package trace_test

import (
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

// BenchmarkComponentTraceDecode measures the dispatch stage's trace
// refill: one op is one 256-instruction ReadBatch (the core's batch)
// from a generated 150k-instruction mcf trace, rewinding at its end;
// ns/instr is the decode cost per instruction.
func BenchmarkComponentTraceDecode(b *testing.B) {
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 150_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	src := trace.NewSource(tr)
	batch := make([]trace.Instr, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if src.ReadBatch(batch) < len(batch) {
			src.Reset()
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(batch)), "ns/instr")
}
