package attack

import (
	"reflect"
	"testing"

	"secpref/internal/sim"
)

// TestEnginesAgreeOnAttacks runs both attacks for every secret on every
// combination of system, prefetcher and training discipline, once on
// the event engine and once on the reference engine. The outcomes and
// every component's final state must be identical: the harness hands
// the machine work between advances, which the event engine must see
// exactly as the every-cycle reference does.
func TestEnginesAgreeOnAttacks(t *testing.T) {
	run := func(cfg Config, reference bool, scenario func(*System, int) (Outcome, error), secret int) (Outcome, []uint64) {
		s, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.m.UseReferenceEngine(reference)
		o, err := scenario(s, secret)
		if err != nil {
			t.Fatalf("%+v secret %d: %v", cfg, secret, err)
		}
		return o, s.m.StateDigests(nil)
	}
	for _, secure := range []bool{false, true} {
		for _, pf := range []string{"", "ip-stride", "berti"} {
			for _, onCommit := range []bool{false, true} {
				cfg := Config{Secure: secure, Prefetcher: pf, OnCommitPrefetch: onCommit}
				scenarios := map[string]func(*System, int) (Outcome, error){"cache": (*System).cacheLeak}
				if pf != "" {
					scenarios["prefetch"] = (*System).prefetchLeak
				}
				for name, scenario := range scenarios {
					for secret := 0; secret < candidates; secret++ {
						event, eventState := run(cfg, false, scenario, secret)
						ref, refState := run(cfg, true, scenario, secret)
						if !reflect.DeepEqual(event, ref) {
							t.Errorf("%+v %s secret %d: event engine %v %v, reference %v %v",
								cfg, name, secret, event, event.Latencies, ref, ref.Latencies)
						}
						if !reflect.DeepEqual(eventState, refState) {
							t.Errorf("%+v %s secret %d: final state digests differ between engines", cfg, name, secret)
						}
					}
				}
			}
		}
	}
}

// TestLoadThatNeverCompletesFails checks that a load the machine does
// not complete within the harness's budget is an error, not a latency.
func TestLoadThatNeverCompletesFails(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.DRAM.TCAS = 4 * loadBudget // no DRAM access completes in time
	m, err := sim.NewDriven(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := &System{m: m}
	lat, err := s.CommittedLoad(0x100, 0xA0)
	if err == nil {
		t.Fatalf("load that never completes returned latency %d and no error", lat)
	}
	if got := m.Now(); got != loadBudget {
		t.Errorf("harness gave up at cycle %d, want the budget %d", got, loadBudget)
	}
}
