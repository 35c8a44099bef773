package bingo

import (
	"testing"

	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

func capture() (*[]mem.Line, prefetch.Issuer) {
	var out []mem.Line
	return &out, func(l mem.Line, _ mem.Addr, _ mem.Level) bool {
		out = append(out, l)
		return true
	}
}

// visitRegion touches the given offsets of region reg with trigger IP.
func visitRegion(p *Prefetcher, reg uint64, ip mem.Addr, offsets []uint8) {
	for _, o := range offsets {
		p.Train(prefetch.Event{Line: mem.Line(reg*regionLines + uint64(o)), IP: ip})
	}
}

func TestFootprintReplay(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	footprint := []uint8{0, 3, 7, 12, 19}
	// Teach the pattern in enough regions to evict them into the PHT.
	for reg := uint64(0); reg < atSize+4; reg++ {
		visitRegion(p, reg, 0x400, footprint)
	}
	// Trigger a brand-new region with the same PC+offset event.
	*got = (*got)[:0]
	newReg := uint64(50_000)
	p.Train(prefetch.Event{Line: mem.Line(newReg*regionLines + 0), IP: 0x400})
	if len(*got) == 0 {
		t.Fatal("trigger access replayed nothing from the PHT")
	}
	want := map[mem.Line]bool{}
	for _, o := range footprint[1:] { // trigger offset itself is skipped
		want[mem.Line(newReg*regionLines+uint64(o))] = true
	}
	for _, l := range *got {
		if !want[l] {
			t.Errorf("unexpected prefetch %d (offset %d)", l, uint64(l)%regionLines)
		}
		delete(want, l)
	}
	if len(want) != 0 {
		t.Errorf("footprint lines not prefetched: %v", want)
	}
}

func TestNoPredictionWithoutHistory(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	p.Train(prefetch.Event{Line: 12345, IP: 0x404})
	if len(*got) != 0 {
		t.Errorf("cold trigger issued %d prefetches", len(*got))
	}
}

func TestPCOffsetFallback(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	footprint := []uint8{2, 5, 9}
	for reg := uint64(0); reg < atSize+4; reg++ {
		visitRegion(p, reg, 0x408, footprint)
	}
	*got = (*got)[:0]
	// A new region: PC+Address cannot match (different region), so the
	// PC+Offset event must supply the footprint.
	p.Train(prefetch.Event{Line: mem.Line(77_000*regionLines + 2), IP: 0x408})
	if len(*got) == 0 {
		t.Fatal("PC+Offset fallback failed")
	}
}

func TestDistanceRotatesIssueOrder(t *testing.T) {
	mk := func(dist int) []mem.Line {
		got, issue := capture()
		p := New(issue)
		p.Distance.Set(dist)
		footprint := []uint8{1, 4, 8, 15, 23}
		for reg := uint64(0); reg < atSize+4; reg++ {
			visitRegion(p, reg, 0x40c, footprint)
		}
		*got = (*got)[:0]
		p.Train(prefetch.Event{Line: mem.Line(88_000*regionLines + 1), IP: 0x40c})
		return *got
	}
	d1 := mk(1)
	d3 := mk(3)
	if len(d1) == 0 || len(d3) == 0 {
		t.Fatal("no prefetches issued")
	}
	if d1[0] == d3[0] {
		t.Error("TS-Bingo distance did not rotate the temporal issue order")
	}
}
