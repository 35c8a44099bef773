// Package event provides the calendar queue at the heart of the
// discrete-event simulation core: per-component wakeups keyed by
// (cycle, rank).
//
// Each rank is a component's fixed position in a domain's tick order
// (core < GM < L1D < L2 < LLC < DRAM on a single-core machine) and has
// at most one live scheduled wake. The domain asks the queue for the
// earliest wake (Next), jumps there, and then visits its ranks in
// ascending order, ticking those whose wake is due (At). Ties at the
// same cycle therefore tick in rank order, which is what keeps the
// event-driven engine's tick order — and therefore every campaign byte
// — deterministic: two components due on the same cycle always tick in
// the same order the lockstep engine ticked them.
//
// The implementation is deliberately not a binary heap. A domain has at
// most eight ranks, and the common case is several ranks rescheduling
// to now+1 every cycle; a heap pays push/sift/stale-pop churn per
// reschedule, while a linear min-scan over the per-rank table is a few
// predictable compares with no bookkeeping. (Profiling the bench
// scenario showed the heap variant spending ~8% of the whole run on
// heap maintenance.) The priority-queue *semantics* — earliest cycle
// first, reschedule/cancel — are what the engine and the tests pin
// down; O(n) per operation is the right constant for n <= 8.
package event

import "secpref/internal/mem"

// Queue is the calendar. The zero value is not usable; call New.
type Queue struct {
	at []mem.Cycle // per-rank scheduled wake; mem.NoEvent = unscheduled
}

// New returns a queue for ranks components, all initially unscheduled.
func New(ranks int) *Queue {
	q := &Queue{at: make([]mem.Cycle, ranks)}
	for i := range q.at {
		q.at[i] = mem.NoEvent
	}
	return q
}

// At returns rank's currently scheduled wake cycle, or mem.NoEvent.
func (q *Queue) At(rank int) mem.Cycle { return q.at[rank] }

// Schedule sets rank's wake cycle, replacing any existing schedule.
// Scheduling mem.NoEvent is equivalent to Cancel.
func (q *Queue) Schedule(rank int, at mem.Cycle) { q.at[rank] = at }

// Cancel unschedules rank.
func (q *Queue) Cancel(rank int) { q.at[rank] = mem.NoEvent }

// Next returns the earliest scheduled wake cycle across all ranks, or
// mem.NoEvent when nothing is scheduled.
func (q *Queue) Next() mem.Cycle {
	next := mem.NoEvent
	for _, at := range q.at {
		if at < next {
			next = at
		}
	}
	return next
}
