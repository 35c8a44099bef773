package ipcp

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

func TestConstantStrideClass(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	for i := 0; i < 10; i++ {
		p.Train(prefetch.Event{Line: mem.Line(1000 + 5*i), IP: 0x400})
	}
	if len(*got) == 0 {
		t.Fatal("CS class issued nothing")
	}
	for _, l := range *got {
		if (uint64(l)-1000)%5 != 0 {
			t.Errorf("off-stride CS target %d", l)
		}
	}
}

func TestComplexStridePattern(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	// Repeating stride pattern +1,+2,+3 — not constant, but signature-
	// predictable (the CPLX class).
	line := mem.Line(5000)
	deltas := []int64{1, 2, 3}
	for i := 0; i < 40; i++ {
		p.Train(prefetch.Event{Line: line, IP: 0x404})
		line = mem.Line(int64(line) + deltas[i%3])
	}
	if len(*got) == 0 {
		t.Fatal("CPLX class issued nothing for a repeating delta pattern")
	}
}

func TestGlobalStreamDenseRegion(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	// Touch 28 of 32 lines in one region (from distinct IPs so CS/CPLX
	// do not dominate): the region becomes dense and GS engages.
	base := mem.Line(32 * 100)
	for i := 0; i < 28; i++ {
		p.Train(prefetch.Event{Line: base + mem.Line(i), IP: mem.Addr(0x500 + 8*i)})
	}
	// One more access from a now-classified-GS IP.
	before := len(*got)
	p.Train(prefetch.Event{Line: base + mem.Line(28), IP: 0x500})
	p.Train(prefetch.Event{Line: base + mem.Line(29), IP: 0x500})
	if len(*got) <= before {
		t.Error("dense region did not trigger GS prefetching")
	}
}

func TestRandomQuiet(t *testing.T) {
	got, issue := capture()
	p := New(issue)
	rng := uint64(99)
	for i := 0; i < 300; i++ {
		rng = rng*6364136223846793005 + 1
		p.Train(prefetch.Event{Line: mem.Line(rng % (1 << 30)), IP: 0x600})
	}
	if len(*got) > 150 {
		t.Errorf("%d prefetches on random stream", len(*got))
	}
}

func TestDistanceTunable(t *testing.T) {
	p := New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
	p.Distance.Set(100)
	if p.Distance.Cur != maxDistance {
		t.Errorf("distance clamp failed: %d", p.Distance.Cur)
	}
}
