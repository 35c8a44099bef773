package ghostminion

import (
	"testing"

	"secpref/internal/cache"
	"secpref/internal/mem"
	"secpref/internal/stats"
)

// rig is a GM in front of a small L1D backed by an auto-responding
// memory stub.
type rig struct {
	gm   *GM
	l1d  *cache.Cache
	next *memStub
	now  mem.Cycle
	seq  uint64
	cs   stats.CoreStats
}

type memStub struct{ reads, writes int }

func (m *memStub) Enqueue(r *mem.Request) bool {
	switch r.Kind {
	case mem.KindWriteback, mem.KindCommitWrite:
		m.writes++
	default:
		m.reads++
		r.ServedBy = mem.LvlDRAM
		r.Complete()
	}
	return true
}

func newRig() *rig {
	next := &memStub{}
	l1cfg := cache.L1DConfig()
	l1cfg.SizeKiB, l1cfg.Ways = 1, 2
	l1d := cache.New(l1cfg, next)
	return &rig{gm: New(DefaultConfig(), l1d, nil), l1d: l1d, next: next}
}

func (r *rig) step(n int) {
	for i := 0; i < n; i++ {
		r.now++
		r.gm.Tick(r.now)
		r.l1d.Tick(r.now)
	}
}

// specLoad issues a speculative load and waits for data; returns the
// serving level and the sequence number used.
func (r *rig) specLoad(line mem.Line) (mem.Level, uint64) {
	r.seq++
	seq := r.seq
	done := false
	req := &mem.Request{Line: line, Kind: mem.KindLoad, Issued: r.now, Timestamp: seq,
		Owner: mem.CompleterFunc(func(*mem.Request) { done = true })}
	for !r.gm.IssueLoad(req) {
		r.step(1)
	}
	for !done {
		r.step(1)
		if r.now > 100000 {
			panic("load never completed")
		}
	}
	return req.ServedBy, seq
}

func TestSpecLoadFillsOnlyGM(t *testing.T) {
	r := newRig()
	served, _ := r.specLoad(100)
	if served != mem.LvlDRAM {
		t.Errorf("ServedBy = %v, want DRAM", served)
	}
	if !r.gm.Contains(100) {
		t.Fatal("GM missing the speculative fill")
	}
	if r.l1d.Contains(100) {
		t.Fatal("speculative load filled L1D (visible speculation!)")
	}
}

func TestGMHitServesYoungerLoads(t *testing.T) {
	r := newRig()
	_, _ = r.specLoad(200)
	reads := r.next.reads
	served, _ := r.specLoad(200)
	if served != mem.LvlL1D {
		t.Errorf("ServedBy = %v, want L1D-equivalent (GM hit)", served)
	}
	if r.next.reads != reads {
		t.Error("GM hit still fetched from memory")
	}
}

func TestTimeGuardingHidesYoungerInsertions(t *testing.T) {
	r := newRig()
	_, seq := r.specLoad(300) // inserted with this timestamp
	// An OLDER instruction (smaller timestamp) must not see it.
	older := &mem.Request{Line: 300, Kind: mem.KindLoad, Issued: r.now, Timestamp: seq - 1}
	done := false
	older.Owner = mem.CompleterFunc(func(*mem.Request) { done = true })
	reads := r.next.reads
	for !r.gm.IssueLoad(older) {
		r.step(1)
	}
	for !done {
		r.step(1)
	}
	if r.next.reads == reads {
		t.Error("older load observed a younger instruction's GM insertion")
	}
}

func TestCommitGMHitMovesLineToL1D(t *testing.T) {
	r := newRig()
	_, seq := r.specLoad(400)
	r.gm.Commit(400, seq, mem.LvlDRAM, &r.cs)
	r.step(20)
	if !r.l1d.Contains(400) {
		t.Fatal("commit write did not install into L1D")
	}
	if r.gm.Contains(400) {
		t.Error("committed line still in GM (should transfer)")
	}
	if r.cs.CommitGMHits != 1 {
		t.Errorf("CommitGMHits = %d", r.cs.CommitGMHits)
	}
}

func TestCommitGMMissRefetches(t *testing.T) {
	r := newRig()
	// Commit a line that never entered the GM: the re-fetch path.
	r.gm.Commit(500, 1, mem.LvlDRAM, &r.cs)
	r.step(30)
	if r.cs.CommitGMMisses != 1 {
		t.Errorf("CommitGMMisses = %d", r.cs.CommitGMMisses)
	}
	if !r.l1d.Contains(500) {
		t.Fatal("re-fetch did not populate L1D")
	}
}

func TestSquashErasesSpeculativeState(t *testing.T) {
	r := newRig()
	_, seq := r.specLoad(600)
	r.gm.Squash(seq)
	if r.gm.Contains(600) {
		t.Fatal("squashed line survived in GM")
	}
	if r.l1d.Contains(600) {
		t.Fatal("squashed line reached L1D")
	}
	// Commit after squash takes the refetch path (GM miss).
	r.gm.Commit(600, seq, mem.LvlL1D, &r.cs)
	if r.cs.CommitGMMisses != 1 {
		t.Errorf("post-squash commit: CommitGMMisses = %d", r.cs.CommitGMMisses)
	}
}

// dropFilter mimics SUF dropping everything.
type dropFilter struct{ drops int }

func (d *dropFilter) OnCommit(mem.Line, mem.Level) (bool, uint8) {
	d.drops++
	return true, 0
}

func TestFilterDropSuppressesUpdate(t *testing.T) {
	r := newRig()
	f := &dropFilter{}
	r.gm.filter = f
	_, seq := r.specLoad(700)
	writes := r.next.writes
	r.gm.Commit(700, seq, mem.LvlL1D, &r.cs)
	r.step(20)
	if f.drops != 1 {
		t.Errorf("filter consulted %d times", f.drops)
	}
	if r.l1d.Contains(700) {
		t.Error("dropped update still installed into L1D")
	}
	if r.next.writes != writes {
		t.Error("dropped update still propagated")
	}
	if r.cs.SUFDrops != 1 {
		t.Errorf("SUFDrops = %d", r.cs.SUFDrops)
	}
	// The line was NOT in L1D, so the oracle flags the drop as wrong.
	if r.cs.SUFDropWrong != 1 {
		t.Errorf("SUFDropWrong = %d (oracle should catch the bad drop)", r.cs.SUFDropWrong)
	}
}

func TestLeapfrogDisplacesYoungest(t *testing.T) {
	r := newRig()
	cfg := DefaultConfig()
	// A stub L1D that never responds keeps MSHRs occupied.
	stall := cache.New(cache.Config{
		Name: "stall", Level: mem.LvlL1D, SizeKiB: 1, Ways: 2, Latency: 2,
		MSHRs: 1, RQSize: 1, WQSize: 1, PQSize: 1,
		MaxReads: 0, MaxWrites: 0, MaxPrefetches: 0, MaxFills: 0, // zero bandwidth
	}, nil)
	gm := New(cfg, stall, nil)
	_ = r
	// Fill every GM MSHR with young loads.
	for i := 0; i < cfg.MSHRs; i++ {
		req := &mem.Request{Line: mem.Line(1000 + i), Kind: mem.KindLoad, Timestamp: uint64(100 + i)}
		if !gm.IssueLoad(req) {
			t.Fatalf("load %d rejected with free MSHRs", i)
		}
	}
	// An OLDER load must leapfrog the youngest entry.
	older := &mem.Request{Line: 2000, Kind: mem.KindLoad, Timestamp: 5}
	if !gm.IssueLoad(older) {
		t.Fatal("older load failed to leapfrog a full MSHR")
	}
	if gm.Stats.Leapfrogs != 1 {
		t.Errorf("Leapfrogs = %d", gm.Stats.Leapfrogs)
	}
	// A YOUNGER load must not.
	younger := &mem.Request{Line: 3000, Kind: mem.KindLoad, Timestamp: 9999}
	if gm.IssueLoad(younger) {
		t.Fatal("youngest load should be rejected, not leapfrog")
	}
}

func TestGMEvictionOldestTimestamp(t *testing.T) {
	r := newRig()
	n := DefaultConfig().Lines
	for i := 0; i <= n; i++ {
		r.specLoad(mem.Line(5000 + i))
	}
	if r.gm.Contains(5000) {
		t.Error("oldest GM entry should have been evicted")
	}
	if !r.gm.Contains(mem.Line(5000 + n)) {
		t.Error("newest GM entry missing")
	}
}
