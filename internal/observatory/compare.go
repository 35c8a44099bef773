package observatory

import (
	"errors"
	"fmt"
	"reflect"
)

// Run is one engine's run of the workload under comparison.
type Run struct {
	// Result runs the workload to completion with rec as the engine's
	// digest sink and returns the run's result.
	Result func(rec *Recorder) (any, error)
	// Engine builds a fresh engine on the same workload, for bisection.
	Engine func() (DigestEngine, error)
}

// Compare is the one engine comparison: it runs the reference, then
// every run in runs, and requires each run to reproduce the reference's
// digest stream (FirstDivergence) and its result (reflect.DeepEqual).
// When a run disagrees or fails, Compare bisects a fresh (reference,
// run) engine pair and reports the first divergent cycle and component;
// names labels the digest vector's indices. Only the reference's own
// error is wrapped, so a caller can tell a workload that cannot finish
// from engines that disagree.
func Compare(ref Run, runs []Run, names []string) error {
	want := NewRecorder()
	wantRes, err := ref.Result(want)
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	if want.Len() == 0 {
		return errors.New("observatory: the reference recorded no digest checkpoints")
	}
	for i, r := range runs {
		got := NewRecorder()
		res, err := r.Result(got)
		_, diverged := FirstDivergence(want, got)
		if err == nil && !diverged && reflect.DeepEqual(wantRes, res) {
			continue
		}
		div, berr := Bisect(func() (DigestEngine, DigestEngine, error) {
			a, err := ref.Engine()
			if err != nil {
				return nil, nil, err
			}
			b, err := r.Engine()
			return a, b, err
		}, BisectOptions{Step: want.Interval, Limit: want.Points[want.Len()-1].Cycle + want.Interval})
		switch {
		case berr != nil:
			return fmt.Errorf("run %d disagrees with the reference; bisecting: %v", i, berr)
		case div != nil:
			return fmt.Errorf("run %d diverges from the reference at cycle %d in %s", i, div.Cycle, componentName(names, div.Component))
		case err != nil:
			return fmt.Errorf("run %d: %v", i, err)
		}
		return fmt.Errorf("run %d: result or digest stream differs from the reference, but no fresh engine pair diverges", i)
	}
	return nil
}

// componentName names a digest-vector index of a Divergence.
func componentName(names []string, c int) string {
	if c >= 0 && c < len(names) {
		return names[c]
	}
	return "the clocks or vector shapes (one engine finished or stopped first)"
}
