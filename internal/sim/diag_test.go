package sim

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

var lastBertiTable []string

// TestDiagShapes prints detailed per-config statistics on a streaming
// and a pointer-chasing trace so paper-shape regressions are visible.
func TestDiagShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("diagnostic")
	}
	const n = 50_000
	for _, tn := range []string{"603.bwa-2931B", "605.mcf-1554B"} {
		tr, err := workload.Get(tn, workload.Params{Instrs: n, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("=== trace %s ===", tn)
		for _, tc := range []struct {
			label string
			mut   func(*Config)
		}{
			{"nonsec-nopref", func(c *Config) {}},
			{"sec-nopref", func(c *Config) { c.Secure = true }},
			{"nonsec-berti", func(c *Config) { c.Prefetcher = "berti" }},
			{"sec-berti-acc", func(c *Config) { c.Secure = true; c.Prefetcher = "berti" }},
			{"sec-berti-com", func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeOnCommit }},
			{"sec-tsb", func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeTimelySecure }},
			{"nonsec-ipstride", func(c *Config) { c.Prefetcher = "ip-stride" }},
			{"sec-ipstride-com", func(c *Config) { c.Secure = true; c.Prefetcher = "ip-stride"; c.Mode = ModeOnCommit }},
		} {
			cfg := DefaultConfig()
			cfg.WarmupInstrs = 5_000
			cfg.MaxInstrs = n
			tc.mut(&cfg)
			m, err := NewMachine(cfg, trace.NewSource(tr))
			if err != nil {
				t.Errorf("%s: %v", tc.label, err)
				continue
			}
			if err := m.run(m.Instructions()+uint64(cfg.WarmupInstrs), 1<<40, mem.NoEvent); err != nil {
				t.Errorf("%s: %v", tc.label, err)
				continue
			}
			m.resetStats()
			start := m.now
			if err := m.run(m.Instructions()+uint64(cfg.MaxInstrs), 1<<40, mem.NoEvent); err != nil {
				t.Errorf("%s: %v", tc.label, err)
				continue
			}
			res := m.result(tr.Name, m.now-start)
			lastBertiTable = m.BertiDebug()
			if m.bertiPF != nil {
				t.Logf("%-18s   berti train=%d observe=%d issueAttempts=%d", tc.label, m.bertiPF.TrainCalls, m.bertiPF.ObserveCalls, m.bertiPF.IssueAttempts)
			}
			ap := res.L1DAPKI()
			t.Logf("%-18s IPC=%.3f missLat=%5.1f APKI(L=%5.0f P=%5.0f C=%5.0f) L1Dmshr-full=%4.1f%% dram=%d prefI=%d prefF=%d prefU=%d gmMiss=%d refetch=%d cw=%d",
				tc.label, res.IPC, res.LoadMissLatency(),
				ap.Load, ap.Prefetch, ap.Commit,
				res.L1D.MSHRFullFrac()*100, res.DRAM.Reads,
				res.L1D.PrefIssued, res.L1D.PrefFilled, res.L1D.PrefUseful,
				res.GM.Misses[mem.KindLoad], res.L1D.Accesses[mem.KindRefetch], res.L1D.Accesses[mem.KindCommitWrite])
			t.Logf("%-18s   prefHitLocal=%d prefDropped=%d pqFull=%d", tc.label, res.L1D.PrefHitLocal, res.L1D.PrefDroppedQ, res.L1D.PQFull)
			if tn == "605.mcf-1554B" && tc.label == "sec-berti-acc" {
				for _, s := range lastBertiTable {
					t.Logf("  berti %s", s)
				}
			}
		}
	}
}
