package core

import (
	"testing"
	"testing/quick"

	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

func TestSUFDecisionTable(t *testing.T) {
	s := &SUF{}
	cases := []struct {
		hl   mem.Level
		drop bool
		wbb  uint8
	}{
		{mem.LvlL1D, true, 0},    // data already at L1D: drop everything
		{mem.LvlL2, false, 0b00}, // write to L1D, stop there
		{mem.LvlLLC, false, 0b01},
		{mem.LvlDRAM, false, 0b11},
	}
	for _, c := range cases {
		drop, wbb := s.OnCommit(1, c.hl)
		if drop != c.drop || wbb != c.wbb {
			t.Errorf("OnCommit(hl=%v) = (%v,%#b), want (%v,%#b)", c.hl, drop, wbb, c.drop, c.wbb)
		}
	}
	if s.Drops != 1 || s.TrimmedPropagations != 2 || s.FullUpdates != 1 {
		t.Errorf("counters: drops=%d trims=%d full=%d", s.Drops, s.TrimmedPropagations, s.FullUpdates)
	}
}

func TestSUFStorageBudget(t *testing.T) {
	s := &SUF{}
	// Paper §IV: 0.12 KB.
	if got := s.StorageBytes(); got != 128 {
		t.Errorf("StorageBytes = %d, want 128 (0.12 KB)", got)
	}
}

func TestXLQRoundTrip(t *testing.T) {
	x := &XLQ{}
	x.Record(5, 1000, false, 0)
	x.SetLatency(5, 77)
	access, lat, hitp, ok := x.Read(5, 1300)
	if !ok || hitp {
		t.Fatalf("Read: ok=%v hitp=%v", ok, hitp)
	}
	if access != 1000 || lat != 77 {
		t.Errorf("access=%d lat=%d, want 1000/77", access, lat)
	}
	x.Release(5)
	if _, _, _, ok := x.Read(5, 1400); ok {
		t.Error("entry survived Release")
	}
}

func TestXLQHitpCarriesStoredLatency(t *testing.T) {
	x := &XLQ{}
	x.Record(9, 2000, true, 123)
	_, lat, hitp, ok := x.Read(9, 2100)
	if !ok || !hitp || lat != 123 {
		t.Errorf("hitp entry: ok=%v hitp=%v lat=%d", ok, hitp, lat)
	}
}

func TestXLQTimestampWraparound(t *testing.T) {
	// The 16-bit timestamp must reconstruct correctly across the wrap
	// as long as commit follows access within 2^16 cycles.
	f := func(accessRaw uint32, delayRaw uint16) bool {
		access := mem.Cycle(accessRaw)
		commit := access + mem.Cycle(delayRaw)
		x := &XLQ{}
		x.Record(0, access, false, 0)
		got, _, _, ok := x.Read(0, commit)
		return ok && got == access
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestXLQFlush(t *testing.T) {
	x := &XLQ{}
	for i := 0; i < 128; i++ {
		x.Record(i, mem.Cycle(i), false, 0)
	}
	x.Flush()
	for i := 0; i < 128; i++ {
		if _, _, _, ok := x.Read(i, 1000); ok {
			t.Fatalf("entry %d survived Flush (domain-switch leak)", i)
		}
	}
}

func TestXLQStorageBudget(t *testing.T) {
	x := &XLQ{}
	// Paper §V-C: 0.47 KB.
	if got := x.StorageBytes(); got != 480 {
		t.Errorf("StorageBytes = %d, want 480 (0.47 KB)", got)
	}
}

func TestLatenessMonitorRaisesDistance(t *testing.T) {
	d := prefetch.NewDistance(1, 8, prefetch.DefaultLateness)
	var late, useful uint64
	interval := IntervalFor(mem.LvlL1D)
	m := NewLatenessMonitor(&d, interval, func() (uint64, uint64) { return late, useful })
	// Three intervals with rising lateness: interval 1 ratio 0.2,
	// interval 2 ratio 0.4, interval 3 ratio 0.6. The increment fires
	// after the second consecutive rise (end of interval 3).
	ratios := []float64{0.2, 0.4, 0.6}
	for _, ratio := range ratios {
		useful += 100
		late += uint64(100 * ratio)
		for i := uint64(0); i < interval; i++ {
			m.OnMiss(mem.Addr(0x400 + 4*(i%32))) // stable PC set: no phase change
		}
	}
	if d.Cur != 2 {
		t.Errorf("distance = %d after two rising intervals, want 2", d.Cur)
	}
	if m.Adaptations != 1 {
		t.Errorf("Adaptations = %d", m.Adaptations)
	}
}

func TestLatenessMonitorStableLatenessHolds(t *testing.T) {
	d := prefetch.NewDistance(1, 8, prefetch.DefaultLateness)
	var late, useful uint64
	interval := IntervalFor(mem.LvlL1D)
	m := NewLatenessMonitor(&d, interval, func() (uint64, uint64) { return late, useful })
	for k := 0; k < 5; k++ {
		useful += 100
		late += 30 // constant ratio 0.3 > threshold but not rising
		for i := uint64(0); i < interval; i++ {
			m.OnMiss(mem.Addr(0x400 + 4*(i%32)))
		}
	}
	if d.Cur != 1 {
		t.Errorf("distance = %d under steady lateness, want 1 (needs two RISING intervals)", d.Cur)
	}
}

func TestPhaseChangeResetsDistance(t *testing.T) {
	d := prefetch.NewDistance(1, 8, prefetch.DefaultLateness)
	d.Set(5)
	m := NewLatenessMonitor(&d, IntervalFor(mem.LvlL1D), func() (uint64, uint64) { return 0, 0 })
	// Window 1: PC set A. Window 2: disjoint PC set B -> phase change.
	for i := 0; i < phaseWindow; i++ {
		m.OnMiss(mem.Addr(0x1000 + 4*(i%16)))
	}
	for i := 0; i < phaseWindow+1; i++ {
		m.OnMiss(mem.Addr(0x9_0000 + 4*(i%16)))
	}
	if d.Cur != 1 {
		t.Errorf("distance = %d after phase change, want reset to 1", d.Cur)
	}
	if m.Resets == 0 {
		t.Error("no reset recorded")
	}
}

func TestIntervalFor(t *testing.T) {
	if IntervalFor(mem.LvlL1D) != 512 {
		t.Errorf("L1D interval = %d, want 512", IntervalFor(mem.LvlL1D))
	}
	if IntervalFor(mem.LvlL2) != 4096 {
		t.Errorf("L2 interval = %d, want 4096", IntervalFor(mem.LvlL2))
	}
}
