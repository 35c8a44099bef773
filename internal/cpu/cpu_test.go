package cpu

import (
	"fmt"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/trace"
)

// fixedLatencyPort serves loads after a fixed delay.
type fixedLatencyPort struct {
	lat     int
	pending []struct {
		r  *mem.Request
		at int
	}
	tick   int
	issued int
	reject bool
}

func (p *fixedLatencyPort) IssueLoad(r *mem.Request) bool {
	if p.reject {
		return false
	}
	p.issued++
	p.pending = append(p.pending, struct {
		r  *mem.Request
		at int
	}{r, p.tick + p.lat})
	return true
}

func (p *fixedLatencyPort) step() {
	p.tick++
	w := 0
	for _, e := range p.pending {
		if e.at <= p.tick {
			e.r.ServedBy = mem.LvlL2
			e.r.FillLat = mem.Cycle(p.lat)
			e.r.Complete()
		} else {
			p.pending[w] = e
			w++
		}
	}
	p.pending = p.pending[:w]
}

type sinkStore struct{ n int }

func (s *sinkStore) IssueStore(*mem.Request) bool { s.n++; return true }

// run drives the core until done or maxCycles.
func run(t *testing.T, c *Core, port *fixedLatencyPort, maxCycles int) mem.Cycle {
	t.Helper()
	now := mem.Cycle(0)
	for !c.Done() {
		now++
		c.Tick(now)
		port.step()
		if int(now) > maxCycles {
			t.Fatalf("core did not finish in %d cycles: %s", maxCycles, robHead(c))
		}
	}
	return now
}

// robHead describes the ROB head entry for a failure message.
func robHead(c *Core) string {
	if c.count == 0 {
		return fmt.Sprintf("rob empty (srcDone=%v staged=%v stores=%d)", c.srcDone, c.hasStaged, c.stores.Len())
	}
	e := &c.rob[c.head]
	return fmt.Sprintf("rob head: seq=%d isLoad=%v issued=%v done=%v line=%#x pendLoads=%d lqFree=%d count=%d",
		e.seq, e.isLoad, e.issued, e.done, e.in.Load, c.pendLen, c.lqFree, c.count)
}

func seqTrace(n int, mk func(i int) trace.Instr) trace.Source {
	tr := &trace.Trace{Name: "t"}
	for i := 0; i < n; i++ {
		tr.Instrs = append(tr.Instrs, mk(i))
	}
	return trace.NewSource(tr)
}

func TestRetiresAllInstructions(t *testing.T) {
	port := &fixedLatencyPort{lat: 10}
	store := &sinkStore{}
	src := seqTrace(1000, func(i int) trace.Instr {
		in := trace.Instr{IP: mem.Addr(0x400 + 4*i)}
		if i%5 == 0 {
			in.Load = mem.Addr(0x10000 + 64*i)
		}
		if i%17 == 0 {
			in.Store = mem.Addr(0x90000 + 64*i)
		}
		return in
	})
	c := New(DefaultConfig(), src, port, store)
	run(t, c, port, 100000)
	if c.Stats.Instructions != 1000 {
		t.Errorf("retired %d, want 1000", c.Stats.Instructions)
	}
	if c.Stats.Loads != 200 {
		t.Errorf("loads %d, want 200", c.Stats.Loads)
	}
	if store.n == 0 {
		t.Error("no stores issued")
	}
}

func TestIPCBoundedByRetireWidth(t *testing.T) {
	port := &fixedLatencyPort{lat: 1}
	c := New(DefaultConfig(), seqTrace(4000, func(i int) trace.Instr {
		return trace.Instr{IP: mem.Addr(0x400 + 4*i)}
	}), port, &sinkStore{})
	cycles := run(t, c, port, 100000)
	ipc := float64(c.Stats.Instructions) / float64(cycles)
	if ipc > float64(DefaultConfig().RetireWidth)+0.01 {
		t.Errorf("IPC %.2f exceeds retire width", ipc)
	}
	if ipc < 3.0 {
		t.Errorf("IPC %.2f too low for pure ALU code", ipc)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	mk := func(dep bool) func(i int) trace.Instr {
		return func(i int) trace.Instr {
			return trace.Instr{IP: 0x400, Load: mem.Addr(0x10000 + 64*i), Dep: dep}
		}
	}
	lat := 50
	portA := &fixedLatencyPort{lat: lat}
	a := New(DefaultConfig(), seqTrace(200, mk(false)), portA, &sinkStore{})
	cyclesIndep := run(t, a, portA, 1000000)

	portB := &fixedLatencyPort{lat: lat}
	b := New(DefaultConfig(), seqTrace(200, mk(true)), portB, &sinkStore{})
	cyclesDep := run(t, b, portB, 1000000)

	// Dependent chains serialize: roughly latency per load.
	if cyclesDep < 3*cyclesIndep {
		t.Errorf("dependent loads not serialized: %d vs %d cycles", cyclesDep, cyclesIndep)
	}
	if int(cyclesDep) < 200*lat {
		t.Errorf("dependent chain finished too fast: %d cycles", cyclesDep)
	}
}

func TestMispredictsSlowDispatch(t *testing.T) {
	rngOutcome := func(i int) bool { return (i*2654435761)>>13&1 == 0 }
	mkBranchy := func(random bool) trace.Source {
		return seqTrace(4000, func(i int) trace.Instr {
			in := trace.Instr{IP: mem.Addr(0x400 + 4*(i%8))}
			if i%4 == 3 {
				in.Branch = true
				if random {
					in.Taken = rngOutcome(i)
				} else {
					in.Taken = true
				}
			}
			return in
		})
	}
	portA := &fixedLatencyPort{lat: 1}
	predictable := New(DefaultConfig(), mkBranchy(false), portA, &sinkStore{})
	cp := run(t, predictable, portA, 1000000)

	portB := &fixedLatencyPort{lat: 1}
	random := New(DefaultConfig(), mkBranchy(true), portB, &sinkStore{})
	cr := run(t, random, portB, 1000000)

	if random.Stats.Mispredicts <= predictable.Stats.Mispredicts {
		t.Errorf("mispredicts: random %d <= predictable %d", random.Stats.Mispredicts, predictable.Stats.Mispredicts)
	}
	if cr <= cp {
		t.Errorf("random branches not slower: %d vs %d cycles", cr, cp)
	}
}

func TestCommitHookSeesLoadMetadata(t *testing.T) {
	port := &fixedLatencyPort{lat: 7}
	src := seqTrace(10, func(i int) trace.Instr {
		return trace.Instr{IP: mem.Addr(0x400 + 4*i), Load: mem.Addr(0x20000 + 64*i)}
	})
	c := New(DefaultConfig(), src, port, &sinkStore{})
	var commits []CommitInfo
	c.OnCommitLoad = func(ci CommitInfo) bool {
		commits = append(commits, ci)
		return true
	}
	run(t, c, port, 10000)
	if len(commits) != 10 {
		t.Fatalf("%d commits, want 10", len(commits))
	}
	for i, ci := range commits {
		if ci.Line != mem.LineOf(mem.Addr(0x20000+64*i)) {
			t.Errorf("commit %d wrong line", i)
		}
		if !ci.WasMiss || ci.HitLevel != mem.LvlL2 {
			t.Errorf("commit %d: WasMiss=%v HitLevel=%v", i, ci.WasMiss, ci.HitLevel)
		}
		if ci.CommitCycle <= ci.AccessCycle {
			t.Errorf("commit %d: commit cycle %d <= access cycle %d", i, ci.CommitCycle, ci.AccessCycle)
		}
		if ci.FetchLat != 7 {
			t.Errorf("commit %d: FetchLat = %d, want 7", i, ci.FetchLat)
		}
	}
	// Sequence numbers must be strictly increasing (program order).
	for i := 1; i < len(commits); i++ {
		if commits[i].Seq <= commits[i-1].Seq {
			t.Error("commits out of program order")
		}
	}
}

func TestCommitBackpressureStallsRetire(t *testing.T) {
	port := &fixedLatencyPort{lat: 1}
	src := seqTrace(20, func(i int) trace.Instr {
		return trace.Instr{IP: 0x400, Load: mem.Addr(0x30000 + 64*i)}
	})
	c := New(DefaultConfig(), src, port, &sinkStore{})
	allow := false
	commits := 0
	c.OnCommitLoad = func(CommitInfo) bool {
		if !allow {
			return false
		}
		commits++
		return true
	}
	now := mem.Cycle(0)
	for i := 0; i < 200; i++ {
		now++
		c.Tick(now)
		port.step()
	}
	if c.Stats.Instructions != 0 {
		t.Fatalf("retired %d instructions against commit back-pressure", c.Stats.Instructions)
	}
	allow = true
	for !c.Done() {
		now++
		c.Tick(now)
		port.step()
	}
	if commits != 20 {
		t.Errorf("%d commits after release, want 20", commits)
	}
}

func TestPortRejectionRetries(t *testing.T) {
	port := &fixedLatencyPort{lat: 1, reject: true}
	src := seqTrace(5, func(i int) trace.Instr {
		return trace.Instr{IP: 0x400, Load: mem.Addr(0x40000 + 64*i)}
	})
	c := New(DefaultConfig(), src, port, &sinkStore{})
	now := mem.Cycle(0)
	for i := 0; i < 50; i++ {
		now++
		c.Tick(now)
		port.step()
	}
	if port.issued != 0 {
		t.Fatal("loads issued while port rejecting")
	}
	port.reject = false
	for !c.Done() {
		now++
		c.Tick(now)
		port.step()
	}
	if c.Stats.Instructions != 5 {
		t.Errorf("retired %d, want 5", c.Stats.Instructions)
	}
}

func TestLQCapacityStallsDispatch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LQSize = 4
	// Loads never complete at first: LQ must fill and stall dispatch.
	port := &fixedLatencyPort{lat: 1 << 30}
	src := seqTrace(100, func(i int) trace.Instr {
		return trace.Instr{IP: 0x400, Load: mem.Addr(0x50000 + 64*i)}
	})
	c := New(cfg, src, port, &sinkStore{})
	now := mem.Cycle(0)
	for i := 0; i < 100; i++ {
		now++
		c.Tick(now)
		port.step()
	}
	if c.Stats.Loads > 4 {
		t.Errorf("dispatched %d loads with a 4-entry LQ", c.Stats.Loads)
	}
	if c.Stats.LQFullCycles == 0 {
		t.Error("LQ-full stalls not recorded")
	}
}
