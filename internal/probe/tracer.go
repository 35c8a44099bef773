package probe

import (
	"fmt"
	"io"
	"sort"

	"secpref/internal/export"
)

// Tracer records sampled request-lifecycle event chains — issue → GM
// probe → cache levels → DRAM → fill → commit — into a fixed-size ring.
// Sampling is by program-order sequence number (every Nth load), so a
// sampled request's whole chain is captured across every site it
// touches. Steady state allocates nothing: the ring is preallocated and
// old events are overwritten.
type Tracer struct {
	every uint64
	ring  []Event
	head  int // next write position
	count int
	// dropped counts events overwritten after the ring filled (the
	// export notes truncation instead of silently presenting a full
	// history).
	dropped uint64
}

// NewTracer builds a tracer sampling one in every loads (every < 1 is
// treated as 1: trace everything) with a ring of capacity events.
func NewTracer(every uint64, capacity int) *Tracer {
	if every < 1 {
		every = 1
	}
	if capacity < 64 {
		capacity = 64
	}
	return &Tracer{every: every, ring: make([]Event, capacity)}
}

// Event implements Observer: sampled events enter the ring. Events
// without a program-order identity (Seq 0: prefetches, writebacks,
// maintenance traffic) are not part of any load's chain and are
// skipped.
func (t *Tracer) Event(ev Event) {
	if ev.Seq == 0 || ev.Seq%t.every != 0 {
		return
	}
	if t.count == len(t.ring) {
		t.dropped++
	} else {
		t.count++
	}
	t.ring[t.head] = ev
	t.head++
	if t.head == len(t.ring) {
		t.head = 0
	}
}

// Events returns the recorded events oldest-first.
func (t *Tracer) Events() []Event {
	out := make([]Event, 0, t.count)
	start := t.head - t.count
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.count; i++ {
		out = append(out, t.ring[(start+i)%len(t.ring)])
	}
	return out
}

// Dropped returns how many events were overwritten after the ring
// filled.
func (t *Tracer) Dropped() uint64 { return t.dropped }

// WriteChromeTrace exports the ring as a Chrome/Perfetto trace: one
// process (pid) per core, one lane (tid) per site within it, an
// instant event per recorded occurrence, and a duration span per
// sampled load from its core issue to its core fill, so the timeline
// shows each load's walk down the hierarchy. Single-core runs collapse
// to one process (core 0). otherData records dropped_events.
func (t *Tracer) WriteChromeTrace(w io.Writer, label string) error {
	evs := t.Events()
	out := export.Trace{Label: label, Other: map[string]any{"dropped_events": t.dropped}}
	seen := map[int]bool{}
	var cores []int
	for _, ev := range evs {
		if !seen[ev.Core] {
			seen[ev.Core] = true
			cores = append(cores, ev.Core)
		}
	}
	if len(cores) == 0 {
		cores = append(cores, 0)
	}
	sort.Ints(cores)
	for _, c := range cores {
		out.Process(c, fmt.Sprintf("core%d", c))
		for s := 0; s < NumSites; s++ {
			out.Thread(c, s, Site(s).String())
		}
	}
	issued := make(map[uint64]Event, 64) // seq -> core issue event
	for _, ev := range evs {
		if ev.Kind == EvIssue && ev.Site == SiteCore {
			// Represented by the X span emitted when the fill pairs up
			// (an unfilled load at ring cutoff leaves no span).
			issued[ev.Seq] = ev
			continue
		}
		if ev.Kind == EvFill && ev.Site == SiteCore {
			if is, ok := issued[ev.Seq]; ok {
				dur := uint64(ev.Cycle - is.Cycle)
				if dur == 0 {
					dur = 1
				}
				out.Events = append(out.Events, export.Event{
					Name: fmt.Sprintf("load seq=%d", ev.Seq), Phase: "X",
					TS: uint64(is.Cycle), Dur: dur, PID: ev.Core, TID: int(SiteCore),
					Args: map[string]any{"line": fmt.Sprintf("%#x", uint64(ev.Line)), "served_by": ev.Level.String()},
				})
				delete(issued, ev.Seq)
				continue
			}
		}
		ce := export.Event{
			Name:  fmt.Sprintf("%s %s", ev.Site, ev.Kind),
			Phase: "i", Scope: "t",
			TS: uint64(ev.Cycle), PID: ev.Core, TID: int(ev.Site),
			Args: map[string]any{
				"seq":  ev.Seq,
				"line": fmt.Sprintf("%#x", uint64(ev.Line)),
				"kind": ev.Req.String(),
			},
		}
		if ev.Spec {
			ce.Args["spec"] = true
		}
		switch ev.Kind {
		case EvAccess:
			ce.Args["hit"] = ev.Hit
		case EvFill:
			ce.Args["latency"] = ev.Aux
		case EvCommit:
			ce.Args["hit_level"] = ev.Level.String()
			if ev.Site == SiteGM {
				ce.Args["outcome"] = commitOutcomeName(ev.Aux)
			}
		case EvDrop:
			ce.Args["reason"] = dropReasonName(ev.Aux)
		case EvSUF:
			ce.Args["drop"] = ev.Hit
			ce.Args["wb_bits"] = ev.Aux
		case EvTrain:
			ce.Args["hit"] = ev.Hit
		case EvSquash:
			ce.Args["from_seq"] = ev.Seq
		}
		out.Events = append(out.Events, ce)
	}
	return out.WriteChrome(w)
}

func commitOutcomeName(a uint64) string {
	switch a {
	case CommitGMHit:
		return "gm-hit"
	case CommitGMMiss:
		return "gm-miss"
	case CommitSUFDrop:
		return "suf-drop"
	}
	return fmt.Sprintf("outcome(%d)", a)
}

func dropReasonName(a uint64) string {
	switch a {
	case DropQueueFull:
		return "queue-full"
	case DropLeapfrog:
		return "leapfrog"
	}
	return fmt.Sprintf("reason(%d)", a)
}
