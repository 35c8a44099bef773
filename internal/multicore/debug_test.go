package multicore_test

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/sim"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// TestDebugMulticoreWedge reproduces a wedged 4-core run with state
// dumps (diagnostic harness). It steps the sharded system's reference
// engine one cycle at a time by hand so every private queue is
// inspectable at the wedge cycle.
func TestDebugMulticoreWedge(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := sim.DefaultConfig()
	cfg.WarmupInstrs = 1000
	cfg.MaxInstrs = 10_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = sim.ModeTimelySecure
	names := []string{"605.mcf-1554B", "603.bwa-2931B", "619.lbm-2676B", "602.gcc-1850B"}
	mix := make([]trace.Source, 4)
	for i, n := range names {
		tr, err := workload.Get(n, workload.Params{Instrs: 12_000, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		mix[i] = trace.NewSource(tr)
	}
	sys, err := sim.BuildSharded(cfg, 4, mix, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sys.Cores {
		m.UseReferenceEngine(true)
	}
	sys.Shared.UseReferenceEngine(true)
	llc := sys.Shared.LLC()
	var now mem.Cycle
	var lastSum uint64
	lastProgress := now
	for {
		now++
		for _, m := range sys.Cores {
			m.AdvanceCore(now, 0)
		}
		sys.Shared.Advance(now)
		var sum uint64
		allDone := true
		for _, m := range sys.Cores {
			sum += m.Instructions()
			if m.Instructions() < 11_000 {
				allDone = false
			}
		}
		if allDone {
			t.Logf("completed at cycle %d", now)
			return
		}
		if sum != lastSum {
			lastSum = sum
			lastProgress = now
		} else if now-lastProgress > 200_000 {
			t.Logf("WEDGED at cycle %d", now)
			for i, m := range sys.Cores {
				t.Logf("core %d: instrs=%d %s", i, m.Instructions(), m.CoreDebug())
				t.Logf("  L1D wq=%d pq=%d fills=%d mshrFree=%d fwd=%d | L2 wq=%d fills=%d mshrFree=%d",
					m.L1DDebug().DebugWQ(), m.L1DDebug().DebugPQ(), m.L1DDebug().DebugFills(), m.L1DDebug().MSHRFree(), m.L1DDebug().DebugFwd(),
					m.L2Debug().DebugWQ(), m.L2Debug().DebugFills(), m.L2Debug().MSHRFree())
				for _, s := range m.L1DDebug().DebugMSHR() {
					t.Logf("  L1D mshr %s", s)
				}
			}
			t.Logf("LLC wq=%d fills=%d mshrFree=%d fwd=%d rq=%d", llc.DebugWQ(), llc.DebugFills(), llc.MSHRFree(), llc.DebugFwd(), len(llc.DebugQueues()))
			t.FailNow()
		}
	}
}
