// Package cpu models the trace-driven out-of-order core of the paper's
// Table II baseline: a 352-entry ROB, 128-entry load queue, 6-wide
// dispatch, 4-wide retire, and a hashed perceptron branch predictor.
//
// The model captures exactly the properties the paper's mechanisms
// depend on: loads issue to the memory system *speculatively* at
// dispatch and *commit* at retire (the access-time/commit-time gap that
// secure prefetching is about); dependent loads (pointer chases, as
// flagged in the trace) serialize on the previous load; branch
// mispredictions stall dispatch; and retirement can stall on the secure
// cache system's commit engine.
package cpu

import (
	"secpref/internal/bpred"
	"secpref/internal/mem"
	"secpref/internal/probe"
	"secpref/internal/ring"
	"secpref/internal/stats"
	"secpref/internal/tlb"
	"secpref/internal/trace"
)

// Config sizes the core (defaults per Table II).
type Config struct {
	ROBSize     int
	LQSize      int
	StoreBuffer int
	// DispatchWidth instructions enter the ROB per cycle; RetireWidth
	// leave it.
	DispatchWidth int
	RetireWidth   int
	// IssueLoadsPerCycle bounds speculative load issue bandwidth.
	IssueLoadsPerCycle int
	// MispredictPenalty stalls dispatch after a mispredicted branch
	// (redirect + refill).
	MispredictPenalty mem.Cycle
}

// DefaultConfig returns the Table II core.
func DefaultConfig() Config {
	return Config{
		ROBSize:            352,
		LQSize:             128,
		StoreBuffer:        32,
		DispatchWidth:      6,
		RetireWidth:        4,
		IssueLoadsPerCycle: 2,
		MispredictPenalty:  15,
	}
}

// LoadPort accepts speculative loads: the GM in a secure system, the
// L1D (via an adapter) otherwise. IssueLoad returns false when the load
// cannot be accepted this cycle; the core retries.
type LoadPort interface {
	IssueLoad(r *mem.Request) bool
}

// VersionedPort is an optional LoadPort extension: StateVersion changes
// whenever port state mutates such that a previously rejected IssueLoad
// could now succeed. For ports whose rejections are side-effect-free
// (the GM), the core skips retrying a blocked load until the version
// changes — the load still issues on exactly the same cycle it would
// with per-cycle retries. Ports with rejection side effects (the plain
// L1D adapter counts RQFull per attempt) must not implement this.
type VersionedPort interface {
	LoadPort
	StateVersion() uint64
}

// StorePort accepts retirement-time stores.
type StorePort interface {
	IssueStore(r *mem.Request) bool
}

// CommitInfo describes a retiring load; the simulator's commit hook
// receives it (GhostMinion update, SUF, on-commit prefetcher training).
type CommitInfo struct {
	Line          mem.Line
	IP            mem.Addr
	Seq           uint64
	LQID          int
	AccessCycle   mem.Cycle
	CommitCycle   mem.Cycle
	HitLevel      mem.Level
	FetchLat      mem.Cycle
	HitPrefetched bool
	// WasMiss reports the load missed the first level (GM/L1D).
	WasMiss bool
	// MergedPrefetch reports the classic late-prefetch merge.
	MergedPrefetch bool
}

type robEntry struct {
	in  trace.Instr
	seq uint64

	isLoad  bool
	issued  bool
	done    bool
	retired bool

	lqID        int
	accessCycle mem.Cycle
	hitLevel    mem.Level
	fetchLat    mem.Cycle
	hitPref     bool
	mergedPref  bool

	execReady mem.Cycle
	// depIdx is the ROB index (ring position) of the load this entry's
	// address depends on, or -1.
	depIdx int
	// req is the load's memory request, built once and reused across
	// issue retries (ports reject when queues are full).
	req *mem.Request
	// transReady is the cycle address translation completes; the load
	// issues to the memory system no earlier.
	transReady mem.Cycle
	translated bool
	// portBlocked/blockedVer gate issue retries against a VersionedPort:
	// a load rejected at version v is not retried until the version
	// moves.
	portBlocked bool
	blockedVer  uint64
}

// Core is the out-of-order core.
type Core struct {
	cfg  Config
	src  trace.Source
	pred *bpred.Perceptron

	rob        []robEntry
	head, tail int // ring [head, tail)
	count      int

	// wake counts externally delivered work (load completions). The
	// event-driven engine re-examines the core's schedule whenever it
	// moves; see WakeCount.
	wake uint64

	// Bulk-decode buffer for sources supporting trace.BatchSource;
	// batcher is nil when the source only does one-at-a-time reads.
	batcher  trace.BatchSource
	batch    []trace.Instr
	batchPos int

	// Issue gate: when a full issueLoads pass issues nothing and every
	// examined load is blocked on an observable signal — a producer
	// load's completion (wake), a version-gated port (verPort), or a
	// translation finishing at a known cycle — the scan is provably
	// fruitless until one of those moves, and Tick skips it. place()
	// drops the gate when a new load enters the window.
	gateValid bool
	gateWake  uint64
	gateVer   uint64
	gateUntil mem.Cycle // earliest translation-ready cycle (NoEvent if none)

	lqFree  int
	nextLQ  int
	stores  ring.Buf[*mem.Request]
	loads   LoadPort
	verPort VersionedPort // loads, if it reports a state version
	storeTo StorePort
	pool    *mem.RequestPool

	now        mem.Cycle
	seq        uint64
	stallUntil mem.Cycle
	srcDone    bool
	lastLoad   int // ROB ring index of most recent dispatched load, -1 if none
	// staged holds an instruction held back by a full LQ (valid when
	// hasStaged). Stored by value: a pointer here escapes a fresh copy
	// to the heap every cycle the LQ stays full.
	staged    trace.Instr
	hasStaged bool
	// pendBuf/pendHead/pendLen ring the ROB indices of
	// dispatched-but-unissued loads in program order. Issue examines a
	// bounded window at the head and compacts only that window in
	// place, so a long blocked tail is never copied per cycle. Loads
	// hold LQ slots until retirement, so occupancy is bounded by
	// LQSize; pendPush still grows defensively. The capacity is kept a
	// power of two so every ring index is pendMask arithmetic.
	pendBuf  []int
	pendMask int
	pendHead int
	pendLen  int

	// OnCommitLoad is invoked for every retiring load; returning false
	// stalls retirement this cycle (commit engine back-pressure).
	OnCommitLoad func(ci CommitInfo) bool
	// OnIssueLoad is invoked when a load is sent to the memory system
	// (the on-access training stream and the X-LQ record point).
	OnIssueLoad func(line mem.Line, ip mem.Addr, lqID int, cycle mem.Cycle)

	// TLB, if set, charges address-translation latency before each load
	// issues (the Table II dTLB/STLB hierarchy).
	TLB *tlb.Hierarchy

	// Obs, if set, receives issue/fill/commit events for retiring loads.
	// Observers are read-only; see internal/probe.
	Obs probe.Observer

	// Stats is the core's counter block.
	Stats stats.CoreStats
}

// New builds a core reading from src, issuing loads to loads and
// retirement stores to storeTo.
func New(cfg Config, src trace.Source, loads LoadPort, storeTo StorePort) *Core {
	c := &Core{
		cfg:      cfg,
		src:      src,
		pred:     bpred.New(),
		rob:      make([]robEntry, cfg.ROBSize),
		lqFree:   cfg.LQSize,
		loads:    loads,
		storeTo:  storeTo,
		lastLoad: -1,
		pool:     &mem.RequestPool{},
	}
	pendCap := 1
	for pendCap < cfg.LQSize {
		pendCap *= 2
	}
	c.pendBuf = make([]int, pendCap)
	c.pendMask = pendCap - 1
	if vp, ok := loads.(VersionedPort); ok {
		c.verPort = vp
	}
	if b, ok := src.(trace.BatchSource); ok {
		c.batcher = b
		c.batch = make([]trace.Instr, 0, dispatchBatch)
	}
	return c
}

// dispatchBatch is how many instructions one ReadBatch call decodes.
// Large enough to amortize the per-call source chain (Repeat wrapping
// Offset wrapping a slice), small enough that the buffer stays resident
// in L1.
const dispatchBatch = 256

// nextInstr fetches the next trace instruction, refilling the batch
// buffer when the source supports bulk decode.
func (c *Core) nextInstr() (trace.Instr, bool) {
	if c.batchPos < len(c.batch) {
		in := c.batch[c.batchPos]
		c.batchPos++
		return in, true
	}
	if c.batcher != nil {
		n := c.batcher.ReadBatch(c.batch[:dispatchBatch])
		if n == 0 {
			return trace.Instr{}, false
		}
		c.batch = c.batch[:n]
		c.batchPos = 1
		return c.batch[0], true
	}
	return c.src.Next()
}

// SetPool shares the machine-wide request pool with the core.
func (c *Core) SetPool(p *mem.RequestPool) { c.pool = p }

// Done reports whether the trace is exhausted and the ROB drained.
func (c *Core) Done() bool {
	return c.srcDone && c.count == 0 && c.stores.Len() == 0 && !c.hasStaged
}

// pendAt returns the i-th pending-load ROB index from the ring head.
func (c *Core) pendAt(i int) int {
	return c.pendBuf[(c.pendHead+i)&c.pendMask]
}

// pendPush appends a pending load at the ring tail.
func (c *Core) pendPush(idx int) {
	if c.pendLen == len(c.pendBuf) {
		// Cannot happen while pending loads hold LQ slots (see the
		// field comment); kept as a safety valve for exotic configs.
		grown := make([]int, 2*len(c.pendBuf))
		for i := 0; i < c.pendLen; i++ {
			grown[i] = c.pendAt(i)
		}
		c.pendBuf = grown
		c.pendMask = len(grown) - 1
		c.pendHead = 0
	}
	c.pendBuf[(c.pendHead+c.pendLen)&c.pendMask] = idx
	c.pendLen++
}

// Now returns the core's current cycle.
func (c *Core) Now() mem.Cycle { return c.now }

// Tick advances the core one cycle: retire, dispatch, issue.
func (c *Core) Tick(now mem.Cycle) {
	c.now = now
	c.Stats.Cycles++
	c.retire()
	c.drainStores()
	c.dispatch()
	c.issueLoads()
}

func (c *Core) retire() {
	for n := 0; n < c.cfg.RetireWidth && c.count > 0; n++ {
		e := &c.rob[c.head]
		if !e.done || e.execReady > c.now {
			return
		}
		if e.isLoad {
			if c.OnCommitLoad != nil {
				ci := CommitInfo{
					Line:           mem.LineOf(e.in.Load),
					IP:             e.in.IP,
					Seq:            e.seq,
					LQID:           e.lqID,
					AccessCycle:    e.accessCycle,
					CommitCycle:    c.now,
					HitLevel:       e.hitLevel,
					FetchLat:       e.fetchLat,
					HitPrefetched:  e.hitPref,
					WasMiss:        e.hitLevel > mem.LvlL1D,
					MergedPrefetch: e.mergedPref,
				}
				if !c.OnCommitLoad(ci) {
					return // commit engine full; stall retirement
				}
			}
			if c.Obs != nil {
				c.Obs.Event(probe.Event{
					Kind: probe.EvCommit, Site: probe.SiteCore, Cycle: c.now,
					Seq: e.seq, Line: mem.LineOf(e.in.Load), IP: e.in.IP,
					Req: mem.KindLoad, Level: e.hitLevel, Hit: e.hitPref,
					Aux: uint64(e.fetchLat),
				})
			}
			c.lqFree++
		}
		if e.in.Store != 0 {
			if c.stores.Len() >= c.cfg.StoreBuffer {
				return
			}
			sr := c.pool.Get()
			sr.Line = mem.LineOf(e.in.Store)
			sr.IP = e.in.IP
			sr.Kind = mem.KindRFO
			sr.Issued = c.now
			sr.Timestamp = e.seq
			c.stores.Push(sr)
			c.Stats.Stores++
		}
		c.Stats.Instructions++
		e.retired = true
		// Compare-and-wrap: the ROB size (352) is not a power of two, so
		// a modulo here is a real division on the retire path.
		if c.head++; c.head == len(c.rob) {
			c.head = 0
		}
		c.count--
	}
}

// drainStores sends buffered retirement stores to the L1D.
func (c *Core) drainStores() {
	for c.stores.Len() > 0 {
		if !c.storeTo.IssueStore(c.stores.Front()) {
			return
		}
		c.stores.PopFront()
	}
}

func (c *Core) dispatch() {
	if c.now < c.stallUntil {
		return
	}
	for n := 0; n < c.cfg.DispatchWidth; n++ {
		if c.count == len(c.rob) {
			return
		}
		var in trace.Instr
		if c.hasStaged {
			in = c.staged
		} else {
			if c.srcDone {
				return
			}
			next, ok := c.nextInstr()
			if !ok {
				c.srcDone = true
				return
			}
			in = next
		}
		if in.Load != 0 && c.lqFree == 0 {
			// LQ full: the trace source cannot un-read, so hold the
			// instruction in a one-slot staging latch until a slot
			// frees.
			c.Stats.LQFullCycles++
			c.staged = in
			c.hasStaged = true
			return
		}
		c.hasStaged = false
		c.place(in)
	}
}

func (c *Core) place(in trace.Instr) {
	e := &c.rob[c.tail]
	// Field-by-field reset instead of a struct literal: the literal
	// builds a 136-byte temporary and bulk-copies it per instruction
	// (it was the core's top duffcopy source). Every robEntry field
	// must be (re)assigned here — the slot is recycled ring storage.
	e.in = in
	e.seq = c.seq
	e.isLoad = false
	e.issued = false
	e.done = false
	e.retired = false
	e.lqID = 0
	e.accessCycle = 0
	e.hitLevel = 0
	e.fetchLat = 0
	e.hitPref = false
	e.mergedPref = false
	e.execReady = c.now + 1
	e.depIdx = -1
	e.req = nil
	e.transReady = 0
	e.translated = false
	e.portBlocked = false
	e.blockedVer = 0
	c.seq++
	if in.Branch {
		c.Stats.Branches++
		if !c.pred.Train(in.IP, in.Taken) {
			c.Stats.Mispredicts++
			// Dispatch resumes after the redirect penalty (the branch
			// resolves at execute; penalty approximates resolve+refill).
			c.stallUntil = c.now + c.cfg.MispredictPenalty
		}
	}
	if in.Load != 0 {
		e.isLoad = true
		e.done = false
		e.lqID = c.nextLQ
		if c.nextLQ++; c.nextLQ == c.cfg.LQSize {
			c.nextLQ = 0
		}
		c.lqFree--
		if in.Dep {
			e.depIdx = c.lastLoad
		}
		c.lastLoad = c.tail
		c.pendPush(c.tail)
		c.gateValid = false // new load entered the scheduling window
		c.Stats.Loads++
	} else {
		e.done = true
	}
	if c.tail++; c.tail == len(c.rob) {
		c.tail = 0
	}
	c.count++
}

// issueWindow bounds how many pending loads the scheduler examines per
// cycle (an issue-queue-width approximation).
const issueWindow = 16

// issueLoads sends ready, un-issued loads to the memory system in
// program order, bounded per cycle. Dependent loads whose producer has
// not completed are skipped (younger independent loads may issue —
// that is the memory-level parallelism of an OoO core).
func (c *Core) issueLoads() {
	if c.gateValid {
		// A previous pass proved every window-visible load blocked on a
		// completion, a port version, or a translation deadline; skip
		// the scan until one of those moves (see the gate fields).
		ver := uint64(0)
		if c.verPort != nil {
			ver = c.verPort.StateVersion()
		}
		if c.wake == c.gateWake && ver == c.gateVer && c.now < c.gateUntil {
			return
		}
		c.gateValid = false
	}
	// One StateVersion read serves the whole pass; within a pass only a
	// successful issue can move it, so it is re-read after each issue.
	// A stale (older) cached version can only cause an extra retry of a
	// side-effect-free rejection — never a skipped one.
	ver := uint64(0)
	if c.verPort != nil {
		ver = c.verPort.StateVersion()
	}
	issued := 0
	gate := true
	until := mem.NoEvent
	var keptBuf [issueWindow]int
	examined, kept := 0, 0
	for i := 0; i < c.pendLen; i++ {
		if issued >= c.cfg.IssueLoadsPerCycle || i >= issueWindow {
			// Loads beyond the window stay invisible until a window
			// entry issues, so an all-blocked window still gates.
			break
		}
		examined++
		idx := c.pendAt(i)
		e := &c.rob[idx]
		if !c.tryIssue(e, idx, ver) {
			keptBuf[kept] = idx
			kept++
			// Classify the block, mirroring tryIssue's checks in order:
			// only observable blocks keep the pass gateable.
			switch {
			case e.depIdx >= 0 && func() bool {
				dep := &c.rob[e.depIdx]
				return dep.isLoad && dep.seq < e.seq && !dep.retired && !dep.done
			}():
				// Producer completion arrives via Complete (wake).
			case e.transReady > c.now:
				if e.transReady < until {
					until = e.transReady
				}
			case e.portBlocked && c.verPort != nil:
				// Retry is version-gated; a fresh rejection just
				// recorded the current version.
			default:
				gate = false // unobservable (e.g. unversioned port)
			}
			continue
		}
		issued++
		if c.verPort != nil {
			ver = c.verPort.StateVersion()
		}
	}
	// Compact in place: the kept window entries slide to the end of the
	// examined region (order preserved), the head advances over the
	// issued ones, and the unexamined tail is untouched.
	if removed := examined - kept; removed > 0 {
		newHead := (c.pendHead + removed) & c.pendMask
		c.pendHead = newHead
		c.pendLen -= removed
		for j := 0; j < kept; j++ {
			c.pendBuf[(newHead+j)&c.pendMask] = keptBuf[j]
		}
	}
	if issued == 0 && gate && c.pendLen > 0 {
		c.gateValid = true
		c.gateWake = c.wake
		c.gateVer = ver
		c.gateUntil = until
	}
}

// tryIssue attempts to send one load; it returns true when the load no
// longer needs scheduling (issued). ver is the caller's current read
// of the versioned port's state version.
func (c *Core) tryIssue(e *robEntry, idx int, ver uint64) bool {
	if e.depIdx >= 0 {
		dep := &c.rob[e.depIdx]
		// The dependency is live only while that entry still holds the
		// older load (not retired/recycled).
		if dep.isLoad && dep.seq < e.seq && !dep.retired && !dep.done {
			return false // address not ready
		}
	}
	if c.TLB != nil && !e.translated {
		// Translation starts once the address is ready (dependencies
		// resolved above) and delays issue by its latency.
		e.transReady = c.now + c.TLB.Translate(e.in.Load) - 1
		e.translated = true
	}
	if e.transReady > c.now {
		return false // translation in flight
	}
	if e.portBlocked && c.verPort != nil && ver == e.blockedVer {
		// The port rejected this load and nothing that could change the
		// outcome has happened since; skip the (side-effect-free) retry.
		return false
	}
	if e.req == nil {
		r := c.pool.Get()
		r.Line = mem.LineOf(e.in.Load)
		r.IP = e.in.IP
		r.Kind = mem.KindLoad
		r.Issued = c.now // first attempt: port back-pressure counts as access latency
		r.Timestamp = e.seq
		// The response routes back via the ROB slot index; seq (carried
		// in Timestamp) guards against a recycled entry.
		r.Owner = c
		r.OwnerTag = uint32(idx)
		e.req = r
		e.accessCycle = c.now
	}
	if !c.loads.IssueLoad(e.req) {
		// Port rejected (queue/MSHR full): retry when its state moves.
		// The rejection was side-effect-free, so ver is still current.
		if c.verPort != nil {
			e.portBlocked = true
			e.blockedVer = ver
		}
		return false
	}
	e.issued = true
	e.portBlocked = false
	if c.OnIssueLoad != nil {
		c.OnIssueLoad(e.req.Line, e.req.IP, e.lqID, c.now)
	}
	if c.Obs != nil {
		c.Obs.Event(probe.Event{
			Kind: probe.EvIssue, Site: probe.SiteCore, Cycle: c.now,
			Seq: e.seq, Line: mem.LineOf(e.in.Load), IP: e.in.IP,
			Req: mem.KindLoad,
		})
	}
	return true
}

// Complete implements mem.Completer: a load response arrived. The ROB
// slot rides in OwnerTag; a stale response (entry recycled — loads pin
// entries, so this is defensive) only recycles the request.
func (c *Core) Complete(r *mem.Request) {
	c.wake++
	ent := &c.rob[r.OwnerTag]
	if ent.seq != r.Timestamp || !ent.isLoad || ent.req != r {
		c.pool.Put(r)
		return
	}
	ent.done = true
	ent.hitLevel = r.ServedBy
	ent.fetchLat = r.FillLat
	ent.hitPref = r.HitPrefetched
	ent.mergedPref = r.MergedPrefetch
	ent.req = nil
	if c.Obs != nil {
		c.Obs.Event(probe.Event{
			Kind: probe.EvFill, Site: probe.SiteCore, Cycle: c.now,
			Seq: r.Timestamp, Line: r.Line, IP: r.IP, Req: r.Kind,
			Level: r.ServedBy, Hit: r.HitPrefetched, Aux: uint64(r.FillLat),
		})
	}
	c.pool.Put(r)
}

// WakeCount is a monotonic counter of peer-delivered work: it moves
// whenever a load completion arrives. A scheduler holding the core
// asleep past its own NextEvent must re-arm it when the counter moves
// (or when the versioned load port's StateVersion moves — the one
// unblocking event with no completion attached).
func (c *Core) WakeCount() uint64 { return c.wake }

// NextEvent reports the earliest future cycle at which the core has
// work of its own. mem.NoEvent means every remaining step waits on an
// external completion: the ROB head is an un-returned load, every
// window-visible pending load is dependence- or port-blocked, and
// there is nothing to dispatch, drain, or retire. See SkipIdle for the
// one statistic that still accrues while idle.
func (c *Core) NextEvent(now mem.Cycle) mem.Cycle {
	// This probe runs every cycle of the main loop, so the common busy
	// cases return now+1 immediately — no candidate can beat it.
	min := now + 1
	if c.stores.Len() > 0 {
		return min // store drain retries every cycle
	}
	next := mem.NoEvent
	earliest := func(t mem.Cycle) {
		if t <= now {
			t = min
		}
		if t < next {
			next = t
		}
	}
	if c.count > 0 {
		if h := &c.rob[c.head]; h.done {
			// Retirement becomes possible once the head's latency
			// elapses (commit-engine back-pressure resolves via the GM's
			// own next event).
			if h.execReady <= now {
				return min
			}
			earliest(h.execReady)
		}
	}
	if c.count < len(c.rob) {
		if c.hasStaged {
			if c.lqFree > 0 {
				if c.stallUntil <= now {
					return min // staged instruction places
				}
				earliest(c.stallUntil)
			}
			// LQ-blocked staging only counts LQFullCycles; SkipIdle
			// integrates that without waking the core.
		} else if !c.srcDone {
			if c.stallUntil <= now {
				return min // dispatch reads the source
			}
			earliest(c.stallUntil)
		}
	}
	// One version read serves the whole (read-only) probe.
	ver := uint64(0)
	if c.verPort != nil {
		ver = c.verPort.StateVersion()
	}
	if c.gateValid && c.wake == c.gateWake && ver == c.gateVer {
		// The issue gate already classified every window-visible load:
		// all blocked externally except translations due at gateUntil.
		earliest(c.gateUntil)
		return next
	}
	n := c.pendLen
	if n > issueWindow {
		n = issueWindow
	}
	for i := 0; i < n; i++ {
		e := &c.rob[c.pendAt(i)]
		if e.depIdx >= 0 {
			dep := &c.rob[e.depIdx]
			if dep.isLoad && dep.seq < e.seq && !dep.retired && !dep.done {
				continue // waits on the producer load (external)
			}
		}
		if !e.translated {
			return min // translation must be charged by a Tick
		}
		if e.transReady > now {
			earliest(e.transReady)
			continue
		}
		if e.portBlocked && c.verPort != nil && ver == e.blockedVer {
			continue // waits on port state (external)
		}
		return min // issuable now
	}
	return next
}

// SkipIdle integrates per-cycle core statistics for k skipped idle
// cycles following the core's current cycle (exact — see NextEvent):
// the cycle counter always runs, and an LQ-blocked staged instruction
// counts an LQFullCycles for every skipped cycle dispatch would have
// attempted (those at or past stallUntil).
func (c *Core) SkipIdle(k mem.Cycle) {
	now := c.now
	c.now += k
	c.Stats.Cycles += uint64(k)
	if c.hasStaged && c.lqFree == 0 && c.count < len(c.rob) {
		attempts := k
		if c.stallUntil > now+1 {
			stalled := c.stallUntil - now - 1 // leading cycles below stallUntil
			if stalled >= k {
				attempts = 0
			} else {
				attempts -= stalled
			}
		}
		c.Stats.LQFullCycles += uint64(attempts)
	}
}
