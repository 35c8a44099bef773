package event

import (
	"math/rand"
	"slices"
	"testing"

	"secpref/internal/mem"
)

// popDue is the engine's access pattern: visit the ranks in ascending
// order, take every one whose wake is at or before now, and unschedule
// it (the engine then reschedules the ones that ticked).
func popDue(q *Queue, ranks int, now mem.Cycle) []int {
	var due []int
	for r := 0; r < ranks; r++ {
		if q.At(r) <= now {
			due = append(due, r)
			q.Cancel(r)
		}
	}
	return due
}

func TestOrdering(t *testing.T) {
	q := New(4)
	q.Schedule(0, 30)
	q.Schedule(1, 10)
	q.Schedule(2, 20)
	q.Schedule(3, 5)
	if got := q.Next(); got != 5 {
		t.Fatalf("Next() = %d, want 5", got)
	}
	var order []int
	for q.Next() != mem.NoEvent {
		order = append(order, popDue(q, 4, q.Next())...)
	}
	if want := []int{3, 1, 2, 0}; !slices.Equal(order, want) {
		t.Fatalf("drain order = %v, want %v", order, want)
	}
	if got := q.Next(); got != mem.NoEvent {
		t.Fatalf("drained queue Next() = %d, want NoEvent", got)
	}
}

func TestTieBreakByRank(t *testing.T) {
	// Duplicate timestamps must come due together and be visited in
	// ascending rank order regardless of scheduling order: this is what
	// pins the engine's tick order.
	q := New(6)
	q.Schedule(3, 100)
	q.Schedule(0, 100)
	q.Schedule(4, 100)
	q.Schedule(1, 100)
	q.Schedule(2, 100)
	q.Schedule(5, 101)
	if got := q.Next(); got != 100 {
		t.Fatalf("Next() = %d, want 100", got)
	}
	if got, want := popDue(q, 6, q.Next()), []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("due at 100 = %v, want %v", got, want)
	}
	if got := q.Next(); got != 101 {
		t.Fatalf("after the tie, Next() = %d, want 101", got)
	}
}

func TestCancelReschedule(t *testing.T) {
	q := New(3)
	q.Schedule(0, 10)
	q.Schedule(1, 20)
	q.Cancel(0)
	if got := q.Next(); got != 20 {
		t.Fatalf("after cancel, Next() = %d, want 20", got)
	}
	if got := q.At(0); got != mem.NoEvent {
		t.Fatalf("canceled rank At() = %d, want NoEvent", got)
	}
	// Reschedule both earlier and later than the live entry.
	q.Schedule(1, 5)
	if got := q.Next(); got != 5 {
		t.Fatalf("after earlier reschedule, Next() = %d, want 5", got)
	}
	q.Schedule(1, 50)
	if got := q.Next(); got != 50 {
		t.Fatalf("after later reschedule, Next() = %d, want 50", got)
	}
	// Schedule(NoEvent) is Cancel.
	q.Schedule(1, mem.NoEvent)
	if got := q.Next(); got != mem.NoEvent {
		t.Fatalf("after Schedule(NoEvent), Next() = %d, want NoEvent", got)
	}
	// A drained rank can be scheduled again.
	q.Schedule(2, 7)
	if got := popDue(q, 3, 7); !slices.Equal(got, []int{2}) {
		t.Fatalf("due at 7 = %v, want [2]", got)
	}
}

// naiveCalendar is an independent model: a plain per-rank table whose
// pop is a literal "find minimum, prefer lowest rank" loop written the
// obvious way. The fuzz test drives Queue (through the engine's
// Next/At/Cancel pattern) and the model with the same random
// schedule/cancel/pop mix and demands identical observations.
type naiveCalendar struct {
	at []mem.Cycle
}

func newNaive(ranks int) *naiveCalendar {
	n := &naiveCalendar{at: make([]mem.Cycle, ranks)}
	for i := range n.at {
		n.at[i] = mem.NoEvent
	}
	return n
}

func (n *naiveCalendar) next() mem.Cycle {
	best := mem.NoEvent
	for _, at := range n.at {
		if at < best {
			best = at
		}
	}
	return best
}

func (n *naiveCalendar) popDue(now mem.Cycle) []int {
	var out []int
	for {
		best, bestAt := -1, mem.NoEvent
		for r := len(n.at) - 1; r >= 0; r-- { // reverse scan, <= compare:
			if n.at[r] <= now && n.at[r] <= bestAt { // same result, different walk
				best, bestAt = r, n.at[r]
			}
		}
		if best < 0 {
			return out
		}
		n.at[best] = mem.NoEvent
		out = append(out, best)
	}
}

func TestFuzzVsNaiveMinScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		ranks := 2 + rng.Intn(8)
		q := New(ranks)
		model := newNaive(ranks)
		now := mem.Cycle(0)
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // schedule a random rank at a future cycle
				r := rng.Intn(ranks)
				at := now + 1 + mem.Cycle(rng.Intn(40))
				q.Schedule(r, at)
				model.at[r] = at
			case 2: // cancel a random rank
				r := rng.Intn(ranks)
				q.Cancel(r)
				model.at[r] = mem.NoEvent
			case 3: // advance to the next wake and pop everything due
				next := q.Next()
				if want := model.next(); next != want {
					t.Fatalf("trial %d op %d: Next() = %d, model = %d", trial, op, next, want)
				}
				if next == mem.NoEvent {
					continue
				}
				now = next
				if got, want := popDue(q, ranks, now), model.popDue(now); !slices.Equal(got, want) {
					t.Fatalf("trial %d op %d: due = %v, model = %v", trial, op, got, want)
				}
			}
			// Per-rank schedules must agree at every step.
			for r := 0; r < ranks; r++ {
				if q.At(r) != model.at[r] {
					t.Fatalf("trial %d op %d: At(%d) = %d, model = %d", trial, op, r, q.At(r), model.at[r])
				}
			}
		}
	}
}
