// Package multicore assembles the paper's 4-core evaluation system:
// per-core private GM/L1D/L2 (and prefetcher), a shared banked LLC, and
// one DRAM channel per four cores (Table II). Each core runs its own
// trace; results are reported as weighted speedup against single-core
// baseline IPCs, as in §VII-B.
//
// The engine is a conservative barrier-synchronized parallel simulator:
// every core's private domain (core, GM, L1D, L2, prefetcher, link)
// advances independently — optionally on its own goroutine — through
// one epoch at a time, using the calendar-queue event machinery from
// the single-core engine. The shared LLC/DRAM domain then drains the
// cores' buffered requests in a seeded deterministic merge order and
// catches up to the barrier. Because the L2-to-LLC link delays
// responses by LinkLatency cycles, any epoch no longer than that bound
// cannot leak same-epoch shared-domain state into a core, so results
// are bit-identical regardless of GOMAXPROCS, goroutine scheduling, or
// barrier interval. A true lockstep loop (every component ticked every
// cycle, one goroutine) is kept as the reference engine; the digest
// gate and observatory.Bisect compare the two. See
// docs/performance.md.
package multicore

import (
	"errors"
	"fmt"
	"runtime"

	"secpref/internal/interference"
	"secpref/internal/mem"
	"secpref/internal/observatory"
	"secpref/internal/probe"
	"secpref/internal/sim"
	"secpref/internal/trace"
)

// Config describes the multi-core run: the per-core configuration is
// cloned from Single (with the LLC replaced by the shared one).
type Config struct {
	// Single holds the per-core system configuration (prefetcher, mode,
	// secure, SUF, instruction counts).
	Single sim.Config
	// Cores is the core count (the paper evaluates 4).
	Cores int
	// LinkLatency is the private-L2 to shared-LLC interconnect latency;
	// zero selects sim.DefaultLinkLatency. It is also the epoch-safety
	// bound: barrier intervals above it are rejected.
	LinkLatency mem.Cycle
	// Seed parameterizes the shared domain's deterministic drain
	// rotation (same-cycle cross-core tie-breaking).
	Seed uint64
}

// DefaultConfig returns the paper's 4-core setup.
func DefaultConfig() Config {
	return Config{Single: sim.DefaultConfig(), Cores: 4}
}

// Probes configures observability and engine selection for one run.
// The zero value runs the parallel engine unobserved at the safety
// bound.
type Probes struct {
	// Digest, when non-nil, receives the system digest vector (per-core
	// private blocks then shared LLC/DRAM; sim.MulticoreComponentNames)
	// at every DigestEvery barrier cycle.
	Digest *observatory.Recorder
	// DigestEvery is the digest interval; zero means
	// sim.DefaultDigestEvery. Barriers are clamped to digest boundaries
	// so both engines sample identical cycles.
	DigestEvery mem.Cycle
	// Profile, when non-nil, accumulates engine-attribution counters
	// from every core's private advance loop and the shared domain
	// (sim.ShardProfileRanks vocabulary).
	Profile *observatory.Profile
	// ReferenceEngine selects the serial lockstep loop instead of the
	// barrier-parallel engine.
	ReferenceEngine bool
	// Interval is the barrier interval in cycles; zero means the
	// safety bound (LinkLatency). Values above the bound are rejected.
	Interval mem.Cycle
	// Workers caps the goroutines advancing core domains: 0 means
	// min(GOMAXPROCS, Cores), 1 runs cores inline on the calling
	// goroutine (identical results either way — that is the point).
	Workers int
	// Interference attaches the cross-core interference observatory to
	// the shared LLC/DRAM. The engine constructs the tracker (it knows
	// the LLC geometry); read it back via Engine.Interference or the
	// Result snapshot.
	Interference bool
	// InterferenceWindow is the observatory's timeline interval in
	// cycles; zero means interference.DefaultWindowCycles.
	InterferenceWindow mem.Cycle
	// SharedObserver receives the shared domain's LLC and DRAM events
	// (Core-stamped). It runs on the serial shared-domain goroutine, so
	// a single observer (e.g. a probe.Tracer) is safe without locking —
	// unlike per-core observers, which would race across workers.
	SharedObserver probe.Observer
	// Windows holds per-core window observers (index = core; nil
	// entries sample nothing). Each core samples its private domain
	// only — shared-domain attribution is the interference
	// observatory's job — at WindowInstrs boundaries of the measured
	// phase.
	Windows []probe.WindowObserver
	// WindowInstrs is the per-core sampling interval in retired
	// instructions; zero means sim.DefaultWindowInstrs.
	WindowInstrs uint64
}

// Result aggregates the per-core results of one mix.
type Result struct {
	PerCore []*sim.Result
	// Cycles is the wall-clock cycles until every core finished its
	// measured instruction budget.
	Cycles uint64
	// FinalDigests is the system state-digest vector at the stop cycle
	// (sim.MulticoreComponentNames order) — the bit-identity witness
	// the determinism suite and the cross-engine gate compare.
	FinalDigests []uint64
	// Interference is the observatory snapshot at run end (nil unless
	// Probes.Interference was set).
	Interference *interference.Snapshot
}

// WeightedSpeedup computes sum_i(IPC_i / IPCalone_i) given the
// same-trace single-core baseline IPCs.
func (r *Result) WeightedSpeedup(alone []float64) (float64, error) {
	if len(alone) != len(r.PerCore) {
		return 0, fmt.Errorf("multicore: %d baseline IPCs for %d cores", len(alone), len(r.PerCore))
	}
	ws := 0.0
	for i, rc := range r.PerCore {
		if alone[i] <= 0 {
			return 0, fmt.Errorf("multicore: non-positive baseline IPC for core %d", i)
		}
		ws += rc.IPC / alone[i]
	}
	return ws, nil
}

// ErrMixSize reports a trace/core count mismatch.
var ErrMixSize = errors.New("multicore: mix size must equal core count")

// Engine drives one multi-core run. It implements
// observatory.DigestEngine, so serial-vs-parallel divergences can be
// bisected to the exact cycle with observatory.Bisect.
type Engine struct {
	cfg    Config
	mix    []trace.Source
	sys    *sim.ShardedSystem
	noSkip bool

	interval mem.Cycle
	workers  int

	now          mem.Cycle
	phase        int // 0 = warmup, 1 = measured
	target       uint64
	measureStart mem.Cycle
	// reached[i] is the first cycle core i's retired count hit the
	// current phase target, or mem.NoEvent while it has not.
	reached []mem.Cycle

	digests sim.DigestStream

	// Persistent worker state: workers live for the duration of one
	// RunToCycle call and execute stages described by the fields below
	// (stage selector plus its parameters), so an epoch costs two
	// channel round-trips instead of goroutine and closure allocations.
	// workCh[w] carries true (run the current stage) or false (exit);
	// doneCh collects completions. Stage fields are written only while
	// the workers are quiescent; the channel operations order them.
	workCh []chan bool
	doneCh chan struct{}
	stage  int // 1 = advance-to-target, 2 = catch-up-to-barrier
	stageB mem.Cycle

	// profiles holds one attribution profile per core plus one for the
	// shared domain; they merge into finalProfile when the run ends.
	profiles     []*observatory.Profile
	finalProfile *observatory.Profile

	// tracker is the interference observatory (nil when not requested);
	// windows/winEvery hold the per-core window sampling arrangement,
	// armed at the warmup boundary.
	tracker  *interference.Tracker
	windows  []probe.WindowObserver
	winEvery uint64

	done   bool
	err    error
	cycles mem.Cycle // measured-window length, valid once done
}

// NewEngine builds the sharded system and prepares a run. The workload
// starts at cycle zero; drive it with Run (to completion) or RunToCycle
// (bisection).
func NewEngine(cfg Config, mix []trace.Source, p Probes) (*Engine, error) {
	if len(mix) != cfg.Cores {
		return nil, ErrMixSize
	}
	sys, err := sim.BuildSharded(cfg.Single, cfg.Cores, mix, cfg.LinkLatency, cfg.Seed)
	if err != nil {
		return nil, err
	}
	interval := p.Interval
	if interval == 0 {
		interval = sys.LinkLatency
	}
	if interval > sys.LinkLatency {
		return nil, fmt.Errorf("multicore: barrier interval %d exceeds the safety bound %d (LinkLatency)",
			interval, sys.LinkLatency)
	}
	workers := p.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > cfg.Cores {
		workers = cfg.Cores
	}
	e := &Engine{
		cfg:      cfg,
		mix:      mix,
		sys:      sys,
		noSkip:   p.ReferenceEngine,
		interval: interval,
		workers:  workers,
		reached:  make([]mem.Cycle, cfg.Cores),
	}
	for i := range e.reached {
		e.reached[i] = mem.NoEvent
	}
	if e.noSkip {
		for _, m := range sys.Cores {
			m.UseReferenceEngine(true)
		}
		sys.Shared.UseReferenceEngine(true)
	}
	e.target = uint64(cfg.Single.WarmupInstrs)
	if e.target == 0 {
		e.phase, e.target = 1, uint64(cfg.Single.MaxInstrs)
	}
	if p.Digest != nil {
		e.digests.Arm(p.Digest, p.DigestEvery, sim.MulticoreComponentNames(cfg.Cores))
	}
	if p.Profile != nil {
		p.Profile.EnsureRanks(sim.ShardProfileRanks[:])
		for _, m := range sys.Cores {
			prof := observatory.NewProfile(sim.ShardProfileRanks[:]...)
			m.AttachShardProfile(prof)
			e.profiles = append(e.profiles, prof)
		}
		shProf := observatory.NewProfile(sim.ShardProfileRanks[:]...)
		sys.Shared.AttachShardProfile(shProf)
		e.profiles = append(e.profiles, shProf)
		e.finalProfile = p.Profile
	}
	if p.Interference {
		geo := sys.Shared.LLC().Config()
		tr := interference.New(cfg.Cores, geo.Sets(), geo.Ways)
		tr.EngineVersion = sim.EngineVersion
		tr.ArmWindows(0, p.InterferenceWindow)
		e.tracker = tr
	}
	if e.tracker != nil || p.SharedObserver != nil {
		// Shared-domain observers only: the LLC and DRAM advance serially
		// on the engine goroutine, so no locking is needed and the seeded
		// drain order makes the event stream — hence the matrix —
		// deterministic.
		var trObs probe.Observer
		if e.tracker != nil {
			trObs = e.tracker
		}
		obs := probe.Fanout(trObs, p.SharedObserver)
		sys.Shared.LLC().Obs = obs
		sys.Shared.DRAM().Obs = obs
	}
	if len(p.Windows) > 0 {
		e.windows = p.Windows
		e.winEvery = p.WindowInstrs
		if cfg.Single.WarmupInstrs == 0 {
			e.armWindows()
		}
	}
	return e, nil
}

// Interference returns the engine's observatory tracker (nil unless
// requested). Its published snapshot is safe to read — or hang off a
// live /metrics handler — while the run is in flight.
func (e *Engine) Interference() *interference.Tracker { return e.tracker }

// armWindows starts per-core interval sampling; called at the warmup
// boundary (or construction when there is no warmup) so windows cover
// the measured phase.
func (e *Engine) armWindows() {
	for i, m := range e.sys.Cores {
		if i < len(e.windows) && e.windows[i] != nil {
			m.ArmCoreWindows(i, e.windows[i], e.winEvery)
		}
	}
}

// mergeLink folds every core's cumulative link-traffic counters into
// the tracker. Only called at barriers, after the worker join: the
// join's happens-before edge makes the core goroutines' counter writes
// visible, and the fixed core order keeps the merge deterministic.
func (e *Engine) mergeLink() {
	for i, l := range e.sys.Links {
		e.tracker.MergeLink(i, l.KindCounts())
	}
}

// BlackHoleCore makes the shared domain silently drop core i's
// outbound requests — a deterministic wedge injector for the
// no-progress detector (tests only).
func (e *Engine) BlackHoleCore(i int) { e.sys.Shared.BlackHole = i }

// StateDigests appends the full system digest vector: each core's
// private block (sim.PrivateComponentNames) then the shared LLC and
// DRAM. Implements observatory.DigestEngine.
func (e *Engine) StateDigests(dst []uint64) []uint64 {
	for _, m := range e.sys.Cores {
		dst = m.PrivateDigests(dst)
	}
	return e.sys.Shared.StateDigests(dst)
}

// Now returns the barrier cycle the whole system has completed.
func (e *Engine) Now() mem.Cycle { return e.now }

// RunToCycle advances the system to exactly cycle t (or the stop cycle
// if the workload finishes first) and reports the cycle reached and
// whether the run is complete. Implements observatory.DigestEngine;
// repeated calls with increasing targets continue the same run.
func (e *Engine) RunToCycle(t mem.Cycle) (mem.Cycle, bool, error) {
	if e.err != nil {
		return e.now, e.done, e.err
	}
	if !e.noSkip && e.workers > 1 && e.now < t && !e.done {
		e.startWorkers()
		defer e.stopWorkers()
	}
	for e.now < t && !e.done {
		var err error
		if e.noSkip {
			err = e.stepLockstep()
		} else {
			err = e.stepEpoch(t)
		}
		if err != nil {
			e.err = err
			return e.now, false, err
		}
	}
	return e.now, e.done, nil
}

// Run drives the simulation to completion: all cores retire their
// measured budget; cores that finish early keep consuming shared
// resources replaying their trace, as ChampSim does.
func (e *Engine) Run() (*Result, error) {
	if _, _, err := e.RunToCycle(mem.NoEvent); err != nil {
		return nil, err
	}
	return e.result(), nil
}

// startWorkers launches the stage workers for one RunToCycle call.
// Cores are statically partitioned (worker w owns cores w, w+workers,
// ...), so each stage touches only private domains and the join is the
// only synchronization. The channels are created once and reused by
// later calls.
func (e *Engine) startWorkers() {
	if e.workCh == nil {
		e.workCh = make([]chan bool, e.workers)
		for w := range e.workCh {
			e.workCh[w] = make(chan bool, 1)
		}
		e.doneCh = make(chan struct{}, e.workers)
	}
	for w := range e.workCh {
		go e.workerLoop(w)
	}
}

// stopWorkers tells every stage worker to exit; paired with
// startWorkers so no goroutine outlives the RunToCycle that needed it.
func (e *Engine) stopWorkers() {
	for _, ch := range e.workCh {
		ch <- false
	}
}

func (e *Engine) workerLoop(w int) {
	for <-e.workCh[w] {
		for i := w; i < len(e.sys.Cores); i += e.workers {
			e.runStage(i, e.sys.Cores[i])
		}
		e.doneCh <- struct{}{}
	}
}

// runStage executes the current stage on core i. Stage parameters live
// in Engine fields (not closures) so the parallel hot path allocates
// nothing per epoch.
func (e *Engine) runStage(i int, m *sim.CoreSystem) {
	switch e.stage {
	case 1:
		if e.reached[i] != mem.NoEvent {
			return
		}
		if c, hit := m.AdvanceCore(e.stageB, e.target); hit {
			e.reached[i] = c
		}
	case 2:
		if m.Now() < e.stageB {
			m.AdvanceCore(e.stageB, 0)
		}
	}
}

// runStageAll runs one stage across every core, on the persistent
// workers when the engine is parallel.
func (e *Engine) runStageAll(stage int, b mem.Cycle) {
	e.stage, e.stageB = stage, b
	if e.workers <= 1 {
		for i, m := range e.sys.Cores {
			e.runStage(i, m)
		}
		return
	}
	for _, ch := range e.workCh {
		ch <- true
	}
	for range e.workCh {
		<-e.doneCh
	}
}

// stepEpoch runs one barrier epoch of the parallel engine: cores first
// (independently, possibly concurrently), then the shared domain, then
// the barrier bookkeeping. Epochs are clamped to digest boundaries and
// the caller's limit. The phase target is resolved with two-stage
// staging: stage one pauses each unfinished core at the exact cycle it
// reaches the target; if every core has now reached it, the global
// stop cycle S is the max of those pause cycles and stage two brings
// every core (including ones that finished in earlier epochs) to
// exactly S.
func (e *Engine) stepEpoch(limit mem.Cycle) error {
	b := e.now + e.interval
	if b > limit {
		b = limit
	}
	b = e.digests.Clamp(b)

	// Stage 1: unfinished cores run toward the barrier, pausing where
	// they reach the target.
	e.runStageAll(1, b)

	stop := mem.NoEvent
	if e.allReached() {
		// Global stop cycle: the slowest core's reach cycle (never
		// before the last completed barrier).
		s := e.now
		for _, c := range e.reached {
			if c > s {
				s = c
			}
		}
		stop = s
		b = s
	}

	// Stage 2: bring every core that is short of the (possibly
	// tightened) barrier to exactly it.
	e.runStageAll(2, b)

	// Shared domain catches up serially, draining the cores' buffered
	// requests in the deterministic merge order.
	e.sys.Shared.Advance(b)
	e.now = b

	if e.tracker != nil {
		e.mergeLink()
		e.tracker.Tick(b)
	}
	if e.digests.Due(e.now) {
		e.digests.Emit(e.now, e.StateDigests)
	}
	if stop != mem.NoEvent {
		e.finishPhase()
		return nil
	}
	return e.checkHealth()
}

// stepLockstep is the reference engine: one cycle, every component,
// reference order (each core's private stack, then the shared drain,
// LLC, and DRAM), with the same phase staging evaluated per cycle.
func (e *Engine) stepLockstep() error {
	u := e.now + 1
	for _, m := range e.sys.Cores {
		m.AdvanceCore(u, 0)
	}
	e.sys.Shared.Advance(u)
	e.now = u

	if e.tracker != nil {
		e.mergeLink()
		e.tracker.Tick(u)
	}
	for i, m := range e.sys.Cores {
		if e.reached[i] == mem.NoEvent && m.Instructions() >= e.target {
			e.reached[i] = u
		}
	}
	if e.digests.Due(e.now) {
		e.digests.Emit(e.now, e.StateDigests)
	}
	if e.allReached() {
		e.finishPhase()
		return nil
	}
	return e.checkHealth()
}

func (e *Engine) allReached() bool {
	for _, c := range e.reached {
		if c == mem.NoEvent {
			return false
		}
	}
	return true
}

// checkHealth is the barrier-granularity progress audit: every
// unfinished core checks its own wedge tracker and the cycle budget
// (sim.Machine.CheckHealth).
func (e *Engine) checkHealth() error {
	for i, m := range e.sys.Cores {
		if e.reached[i] != mem.NoEvent {
			continue
		}
		if err := m.CheckHealth(); err != nil {
			return fmt.Errorf("core %d: %w", i, err)
		}
	}
	return nil
}

// finishPhase handles the warmup-to-measured transition and run
// completion at the stop cycle the staging resolved.
func (e *Engine) finishPhase() {
	if e.phase == 0 {
		// Stats (including retired-instruction counters) reset to zero,
		// so the measured target below is relative to the reset.
		for _, m := range e.sys.Cores {
			m.ResetStats()
		}
		if e.tracker != nil {
			e.mergeLink()
			e.tracker.ResetCounters(e.now)
		}
		e.armWindows()
		e.phase = 1
		e.target = uint64(e.cfg.Single.MaxInstrs)
		e.measureStart = e.now
		for i := range e.reached {
			e.reached[i] = mem.NoEvent
		}
		return
	}
	e.done = true
	e.cycles = e.now - e.measureStart
}

// result assembles the per-core snapshots and the final digest vector.
func (e *Engine) result() *Result {
	res := &Result{Cycles: uint64(e.cycles)}
	for i, m := range e.sys.Cores {
		m.FlushCoreWindows()
		res.PerCore = append(res.PerCore, m.Snapshot(e.mix[i].Name(), e.cycles))
	}
	res.FinalDigests = e.StateDigests(nil)
	if e.tracker != nil {
		e.mergeLink()
		e.tracker.Finish(e.now)
		res.Interference = e.tracker.Snapshot()
	}
	if e.finalProfile != nil {
		for _, p := range e.profiles {
			e.finalProfile.Merge(p)
		}
	}
	return res
}

// Run simulates the mix (one trace per core) on the parallel engine
// with default probes.
func Run(cfg Config, mix []trace.Source) (*Result, error) {
	return RunProbed(cfg, mix, Probes{})
}

// RunProbed simulates the mix with the given probes and engine
// selection.
func RunProbed(cfg Config, mix []trace.Source, p Probes) (*Result, error) {
	e, err := NewEngine(cfg, mix, p)
	if err != nil {
		return nil, err
	}
	return e.Run()
}

// CompareEngines runs cfg's mix on the lockstep reference and then under
// each of runs' probes (engine, barrier interval, workers), with digests
// every `every` cycles, and requires every run to reproduce the
// reference's digest stream and result (observatory.Compare). mix
// returns fresh sources of the same traces on every call.
func CompareEngines(cfg Config, mix func() ([]trace.Source, error), every mem.Cycle, runs ...Probes) error {
	run := func(p Probes) observatory.Run {
		return observatory.Run{
			Result: func(rec *observatory.Recorder) (any, error) {
				srcs, err := mix()
				if err != nil {
					return nil, err
				}
				q := p
				q.Digest, q.DigestEvery = rec, every
				res, err := RunProbed(cfg, srcs, q)
				return res, err
			},
			Engine: func() (observatory.DigestEngine, error) {
				srcs, err := mix()
				if err != nil {
					return nil, err
				}
				e, err := NewEngine(cfg, srcs, p)
				return e, err
			},
		}
	}
	tests := make([]observatory.Run, len(runs))
	for i, p := range runs {
		tests[i] = run(p)
	}
	return observatory.Compare(run(Probes{ReferenceEngine: true}), tests, sim.MulticoreComponentNames(cfg.Cores))
}
