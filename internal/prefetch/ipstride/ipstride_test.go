package ipstride

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

func train(p *Prefetcher, ip mem.Addr, lines ...mem.Line) {
	for i, l := range lines {
		p.Train(prefetch.Event{Line: l, IP: ip, Cycle: mem.Cycle(i * 10)})
	}
}

func TestDetectsConstantStride(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	train(p, 0x400, 100, 103, 106, 109, 112)
	if len(*got) == 0 {
		t.Fatal("no prefetches for a constant stride")
	}
	// All targets lie on the stride lattice and the furthest reaches
	// beyond the trained stream.
	maxTarget := mem.Line(0)
	for _, l := range *got {
		if (uint64(l)-100)%3 != 0 {
			t.Errorf("off-stride prefetch target %d", l)
		}
		if l > maxTarget {
			maxTarget = l
		}
	}
	if maxTarget <= 112 {
		t.Errorf("no prefetch ahead of the stream (max target %d)", maxTarget)
	}
}

func TestIgnoresRandomPattern(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	train(p, 0x404, 500, 17, 923, 44, 8100, 3, 999, 123456, 42)
	if len(*got) != 0 {
		t.Errorf("issued %d prefetches on random addresses", len(*got))
	}
}

func TestNegativeStride(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	train(p, 0x408, 1000, 998, 996, 994, 992)
	if len(*got) == 0 {
		t.Fatal("no prefetches for a negative stride")
	}
	minTarget := mem.Line(1 << 62)
	for _, l := range *got {
		if l < minTarget {
			minTarget = l
		}
	}
	if minTarget >= 992 {
		t.Errorf("descending stream never prefetched below it (min target %d)", minTarget)
	}
}

func TestPerIPIsolation(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	// Interleave two IPs with different strides; both must be learned.
	for i := 0; i < 8; i++ {
		p.Train(prefetch.Event{Line: mem.Line(100 + 2*i), IP: 0x500})
		p.Train(prefetch.Event{Line: mem.Line(9000 + 7*i), IP: 0x504})
	}
	var near, far int
	for _, l := range *got {
		if l < 5000 {
			near++
		} else {
			far++
		}
	}
	if near == 0 || far == 0 {
		t.Errorf("per-IP learning failed: near=%d far=%d", near, far)
	}
}

func TestDistanceClamping(t *testing.T) {
	p := New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
	p.Distance.Set(-3)
	if p.Distance.Cur != baseDistance {
		t.Errorf("distance %d after clamping below base", p.Distance.Cur)
	}
	p.Distance.Set(1000)
	if p.Distance.Cur != maxDistance {
		t.Errorf("distance %d after clamping above max", p.Distance.Cur)
	}
}

func TestDistanceShiftsTargets(t *testing.T) {
	got1, issue1 := capture()
	p1 := New(issue1)
	train(p1, 0x600, 100, 101, 102, 103, 104)

	got2, issue2 := capture()
	p2 := New(issue2)
	p2.Distance.Set(4)
	train(p2, 0x600, 100, 101, 102, 103, 104)

	max1, max2 := mem.Line(0), mem.Line(0)
	for _, l := range *got1 {
		if l > max1 {
			max1 = l
		}
	}
	for _, l := range *got2 {
		if l > max2 {
			max2 = l
		}
	}
	if max2 <= max1 {
		t.Errorf("larger distance should reach further: %d vs %d", max2, max1)
	}
}
