package cpu

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/trace"
)

// benchInstrs is the per-op trace length: long enough that steady-state
// issue/retire dominates the core's construction cost.
const benchInstrs = 2000

// BenchmarkComponentCoreIssueRetire measures the core's front-to-back
// pipeline cost: dispatch, the ring-compacted pending-load scan with
// the hoisted port-version check, and in-order retirement, against a
// fixed-latency load port. ns/op covers one full benchInstrs-long run;
// instrs/s is reported as a derived metric.
func BenchmarkComponentCoreIssueRetire(b *testing.B) {
	mk := func(i int) trace.Instr {
		in := trace.Instr{IP: mem.Addr(0x400 + 4*i)}
		if i%5 == 0 {
			in.Load = mem.Addr(0x10000 + 64*i)
		}
		if i%17 == 0 {
			in.Store = mem.Addr(0x90000 + 64*i)
		}
		return in
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		port := &fixedLatencyPort{lat: 10}
		store := &sinkStore{}
		tr := &trace.Trace{Name: "bench"}
		for i := 0; i < benchInstrs; i++ {
			tr.Append(mk(i))
		}
		c := New(DefaultConfig(), trace.NewSource(tr), port, store)
		now := mem.Cycle(0)
		for !c.Done() {
			now++
			c.Tick(now)
			port.step()
			if now > 10*benchInstrs {
				b.Fatal("core wedged")
			}
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*benchInstrs/elapsed, "instrs/s")
	}
}
