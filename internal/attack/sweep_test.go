package attack

import "testing"

// TestFullSecretSweep verifies every encodable secret leaks on the
// undefended system and none leak on the defended one — no
// secret-dependent blind spots in the harness.
func TestFullSecretSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 2x16 attack instances")
	}
	for secret := 0; secret < candidates; secret++ {
		o, err := SpectreCacheLeak(Config{}, secret)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Leaked {
			t.Errorf("secret %d did not leak on the non-secure system", secret)
		}
		o, err = SpectreCacheLeak(Config{Secure: true}, secret)
		if err != nil {
			t.Fatal(err)
		}
		if o.Leaked {
			t.Errorf("secret %d leaked through GhostMinion", secret)
		}
	}
}

func TestPrefetchSweepOnAccess(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 16 attack instances")
	}
	for secret := range CandidateStrides {
		o, err := SpectrePrefetchLeak(Config{Secure: true, Prefetcher: "ip-stride"}, secret)
		if err != nil {
			t.Fatal(err)
		}
		if !o.Leaked {
			t.Errorf("stride secret %d (=%d lines) did not leak via the on-access prefetcher",
				secret, CandidateStrides[secret])
		}
	}
}

func TestAttackErrors(t *testing.T) {
	if _, err := SpectreCacheLeak(Config{}, -1); err == nil {
		t.Error("out-of-range secret accepted")
	}
	for _, pf := range []string{"", "none"} {
		if _, err := SpectrePrefetchLeak(Config{Prefetcher: pf}, 3); err == nil {
			t.Errorf("prefetch leak with prefetcher %q accepted", pf)
		}
	}
	if _, err := SpectrePrefetchLeak(Config{Prefetcher: "ip-stride"}, 99); err == nil {
		t.Error("out-of-range stride secret accepted")
	}
}

func TestOutcomeString(t *testing.T) {
	leaked := Outcome{Secret: 3, Inferred: 3, Leaked: true}
	if s := leaked.String(); s == "" {
		t.Error("empty outcome string")
	}
	clean := Outcome{Secret: 3, Inferred: -1}
	if s := clean.String(); s == "" {
		t.Error("empty outcome string")
	}
}

func TestAttackDeterminism(t *testing.T) {
	a, err := SpectreCacheLeak(Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SpectreCacheLeak(Config{}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Latencies {
		if a.Latencies[i] != b.Latencies[i] {
			t.Fatalf("attack latencies not deterministic at slot %d", i)
		}
	}
}
