package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"secpref/internal/trace"
)

// TestRunDeterministic runs the same configuration twice from
// identically-seeded traces and requires bit-identical results: the
// simulator has no hidden nondeterminism (map iteration, pointer
// hashing, pool recycling order) that leaks into architectural state or
// statistics.
func TestRunDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmupInstrs = 2000
	cfg.MaxInstrs = 15_000
	cfg.Secure = true
	cfg.SUF = true
	cfg.Prefetcher = "berti"
	cfg.Mode = ModeTimelySecure

	run := func() *Result {
		res, err := Run(cfg, smokeTrace(t, "605.mcf-1554B", 17_000))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different results:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestNewMachineRejectsEmptyTrace covers the trace.Repeat-over-nothing
// footgun: a Repeat around an empty source spins forever producing zero
// instructions. Machine construction must fail immediately with a
// descriptive error instead of timing out much later with ErrNoProgress.
func TestNewMachineRejectsEmptyTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInstrs = 1000
	// A trace that yields nothing is the degenerate input NewMachine
	// must reject up front rather than wedge on.
	empty := &trace.Trace{Name: "empty-trace"}
	for _, src := range []trace.Source{
		trace.NewSource(empty),
		trace.Repeat(trace.NewSource(empty), 1000),
	} {
		_, err := NewMachine(cfg, src)
		if err == nil {
			t.Fatalf("NewMachine accepted empty source %q", src.Name())
		}
		if !errors.Is(err, trace.ErrEmptySource) {
			t.Errorf("error not ErrEmptySource: %v", err)
		}
		if !strings.Contains(err.Error(), "empty-trace") {
			t.Errorf("error does not name the trace: %v", err)
		}
	}
}
