package observatory

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"time"

	"secpref/internal/export"
)

// gapBuckets is the number of power-of-two histogram buckets for
// calendar gap sizes: bucket i counts gaps of at most 1<<i cycles, the
// last bucket is the overflow.
const gapBuckets = 18

// RankProfile accumulates attribution counters for one component rank
// of the calendar-queue engine.
type RankProfile struct {
	Name string `json:"name"`
	// Ticks counts cycles where the component did (potential) work;
	// Integrated counts cycles it absorbed via SkipIdle(1) at its rank
	// slot instead.
	Ticks      uint64 `json:"ticks"`
	Integrated uint64 `json:"integrated"`
	// Tick causes (one tick can have several): the component's own
	// calendar entry was due, a peer poked its wake counter, or — core
	// only — the GM state version moved.
	DueTicks     uint64 `json:"due_ticks"`
	WakeTicks    uint64 `json:"wake_ticks"`
	VersionTicks uint64 `json:"version_ticks"`
	// Conditional re-arm outcomes after a visited cycle: rescheduled at
	// a fresh NextEvent vs. calendar entry kept untouched.
	Rearmed uint64 `json:"rearmed"`
	KeptArm uint64 `json:"kept_arms"`
	// Sampled wall time spent inside the component's Tick.
	WallNs      uint64 `json:"wall_ns"`
	WallSamples uint64 `json:"wall_samples"`

	// wallPhase drives the every-Nth-tick wall sampling cadence.
	wallPhase uint64
}

// TrackPoint is one sampled point of the per-rank counter tracks
// (Perfetto export): cumulative tick counts per rank at a cycle
// timestamp.
type TrackPoint struct {
	Cycle         uint64   `json:"cycle"`
	Ticks         []uint64 `json:"ticks"`
	SkippedCycles uint64   `json:"skipped_cycles"`
}

// Profile accumulates one run's engine attribution. The zero value is
// ready; the machine fills rank names on attach. Profile is not safe
// for concurrent use — it belongs to exactly one Machine. Use
// Aggregate to combine profiles across a campaign.
type Profile struct {
	// EngineVersion is stamped by the simulator on attach.
	EngineVersion string
	// WallSampleEvery enables sampled wall-time measurement: every Nth
	// Tick of each rank is timed with time.Now. 0 disables (the
	// default; timing syscalls perturb the engine's own numbers).
	WallSampleEvery uint64

	Ranks []RankProfile

	// Advances counts domain advances: event-engine visits or
	// reference-engine steps; VisitedCycles counts cycles processed in
	// rank order; SkippedCycles counts gap cycles absorbed in O(1);
	// ClampedAdvances counts advances whose jump target was clamped
	// below the calendar's earliest wake (wedge window, cycle budget,
	// digest boundary or barrier).
	Advances        uint64
	VisitedCycles   uint64
	SkippedCycles   uint64
	ClampedAdvances uint64

	// GapHist[i] counts gap skips of at most 1<<i cycles (last bucket
	// overflows).
	GapHist [gapBuckets]uint64

	// Track holds the sampled counter history (TrackSample); the
	// Perfetto counter export reads it.
	Track []TrackPoint
	// Tracks holds the Track of every profile Merge folded in, in merge
	// order: the multicore engine merges core 0..n-1, then the shared
	// domain (which samples none).
	Tracks [][]TrackPoint
}

// NewProfile returns an empty profile over the given rank names.
func NewProfile(names ...string) *Profile {
	p := &Profile{}
	p.EnsureRanks(names)
	return p
}

// EnsureRanks sizes the rank table and fills missing names. Safe to
// call repeatedly; existing counters are kept.
func (p *Profile) EnsureRanks(names []string) {
	for len(p.Ranks) < len(names) {
		p.Ranks = append(p.Ranks, RankProfile{})
	}
	for i, n := range names {
		if p.Ranks[i].Name == "" {
			p.Ranks[i].Name = n
		}
	}
}

// Advance records one engine advance; clamped marks a jump target
// lowered below the calendar's earliest wake.
func (p *Profile) Advance(clamped bool) {
	p.Advances++
	p.VisitedCycles++
	if clamped {
		p.ClampedAdvances++
	}
}

// Gap records a gap skip of k cycles.
func (p *Profile) Gap(k uint64) {
	p.SkippedCycles += k
	i := 0
	for i < gapBuckets-1 && k > 1<<uint(i) {
		i++
	}
	p.GapHist[i]++
}

// Visit records the outcome of one rank's slot at a visited cycle:
// whether it ticked and, if so, which causes were live.
func (p *Profile) Visit(rank int, ticked, due, woke, ver bool) {
	r := &p.Ranks[rank]
	if !ticked {
		r.Integrated++
		return
	}
	r.Ticks++
	if due {
		r.DueTicks++
	}
	if woke {
		r.WakeTicks++
	}
	if ver {
		r.VersionTicks++
	}
}

// Rearm records the conditional re-arm outcome of one rank after a
// visited cycle.
func (p *Profile) Rearm(rank int, rearmed bool) {
	if rearmed {
		p.Ranks[rank].Rearmed++
	} else {
		p.Ranks[rank].KeptArm++
	}
}

// WallDue reports whether this rank's next Tick should be wall-timed
// (every WallSampleEvery-th tick).
func (p *Profile) WallDue(rank int) bool {
	if p.WallSampleEvery == 0 {
		return false
	}
	r := &p.Ranks[rank]
	r.wallPhase++
	return r.wallPhase%p.WallSampleEvery == 0
}

// WallRecord adds one timed Tick's duration.
func (p *Profile) WallRecord(rank int, d time.Duration) {
	r := &p.Ranks[rank]
	r.WallNs += uint64(d.Nanoseconds())
	r.WallSamples++
}

// TrackSample appends one counter-track point at the given cycle.
// Consecutive samples at the same cycle collapse into one.
func (p *Profile) TrackSample(cycle uint64) {
	if n := len(p.Track); n > 0 && p.Track[n-1].Cycle == cycle {
		return
	}
	ticks := make([]uint64, len(p.Ranks))
	for i := range p.Ranks {
		ticks[i] = p.Ranks[i].Ticks
	}
	p.Track = append(p.Track, TrackPoint{Cycle: cycle, Ticks: ticks, SkippedCycles: p.SkippedCycles})
}

// Merge folds another profile's counters into p and keeps its counter
// track as one of p.Tracks.
func (p *Profile) Merge(o *Profile) {
	if p.EngineVersion == "" {
		p.EngineVersion = o.EngineVersion
	}
	p.Tracks = append(p.Tracks, o.Track)
	names := make([]string, len(o.Ranks))
	for i := range o.Ranks {
		names[i] = o.Ranks[i].Name
	}
	p.EnsureRanks(names)
	for i := range o.Ranks {
		a, b := &p.Ranks[i], &o.Ranks[i]
		a.Ticks += b.Ticks
		a.Integrated += b.Integrated
		a.DueTicks += b.DueTicks
		a.WakeTicks += b.WakeTicks
		a.VersionTicks += b.VersionTicks
		a.Rearmed += b.Rearmed
		a.KeptArm += b.KeptArm
		a.WallNs += b.WallNs
		a.WallSamples += b.WallSamples
	}
	p.Advances += o.Advances
	p.VisitedCycles += o.VisitedCycles
	p.SkippedCycles += o.SkippedCycles
	p.ClampedAdvances += o.ClampedAdvances
	for i := range o.GapHist {
		p.GapHist[i] += o.GapHist[i]
	}
}

// SkipEfficiency is the fraction of simulated cycles absorbed by gap
// skips instead of rank-ordered visits.
func (p *Profile) SkipEfficiency() float64 {
	total := p.SkippedCycles + p.VisitedCycles
	if total == 0 {
		return 0
	}
	return float64(p.SkippedCycles) / float64(total)
}

// Row is one derived line of the sim-profile table.
type Row struct {
	Rank          string  `json:"rank"`
	Ticks         uint64  `json:"ticks"`
	Integrated    uint64  `json:"integrated"`
	DueTicks      uint64  `json:"due_ticks"`
	WakeTicks     uint64  `json:"wake_ticks"`
	VersionTicks  uint64  `json:"version_ticks"`
	Rearmed       uint64  `json:"rearmed"`
	KeptArms      uint64  `json:"kept_arms"`
	TickShare     float64 `json:"tick_share"`
	WallNsPerTick float64 `json:"wall_ns_per_tick"`
	WallSamples   uint64  `json:"wall_samples"`
}

// Table derives the per-rank rows.
func (p *Profile) Table() []Row {
	rows := make([]Row, 0, len(p.Ranks))
	var totalTicks uint64
	for i := range p.Ranks {
		totalTicks += p.Ranks[i].Ticks
	}
	for i := range p.Ranks {
		r := &p.Ranks[i]
		row := Row{
			Rank:         r.Name,
			Ticks:        r.Ticks,
			Integrated:   r.Integrated,
			DueTicks:     r.DueTicks,
			WakeTicks:    r.WakeTicks,
			VersionTicks: r.VersionTicks,
			Rearmed:      r.Rearmed,
			KeptArms:     r.KeptArm,
			WallSamples:  r.WallSamples,
		}
		if totalTicks > 0 {
			row.TickShare = float64(r.Ticks) / float64(totalTicks)
		}
		if r.WallSamples > 0 {
			row.WallNsPerTick = float64(r.WallNs) / float64(r.WallSamples)
		}
		rows = append(rows, row)
	}
	return rows
}

// gapBucketRow is one histogram bucket of the JSON export.
type gapBucketRow struct {
	LE    uint64 `json:"le"` // gap size upper bound, 0 = overflow
	Count uint64 `json:"count"`
}

// profileJSON is the sim-profile export envelope.
type profileJSON struct {
	EngineVersion   string         `json:"engine_version,omitempty"`
	Advances        uint64         `json:"advances"`
	VisitedCycles   uint64         `json:"visited_cycles"`
	SkippedCycles   uint64         `json:"skipped_cycles"`
	ClampedAdvances uint64         `json:"clamped_advances"`
	SkipEfficiency  float64        `json:"skip_efficiency"`
	Ranks           []Row          `json:"ranks"`
	GapHist         []gapBucketRow `json:"gap_hist"`
}

func (p *Profile) export() profileJSON {
	e := profileJSON{
		EngineVersion:   p.EngineVersion,
		Advances:        p.Advances,
		VisitedCycles:   p.VisitedCycles,
		SkippedCycles:   p.SkippedCycles,
		ClampedAdvances: p.ClampedAdvances,
		SkipEfficiency:  p.SkipEfficiency(),
		Ranks:           p.Table(),
	}
	for i, c := range p.GapHist {
		if c == 0 {
			continue
		}
		le := uint64(0)
		if i < gapBuckets-1 {
			le = 1 << uint(i)
		}
		e.GapHist = append(e.GapHist, gapBucketRow{LE: le, Count: c})
	}
	return e
}

// WriteJSON writes the sim-profile table as an indented JSON envelope.
func (p *Profile) WriteJSON(w io.Writer) error { return export.WriteJSON(w, p.export()) }

// WriteCSV writes the per-rank rows as CSV.
func (p *Profile) WriteCSV(w io.Writer) error {
	t := export.Table{Header: []string{"rank", "ticks", "integrated", "due_ticks", "wake_ticks", "version_ticks",
		"rearmed", "kept_arms", "tick_share", "wall_ns_per_tick", "wall_samples"}}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for _, r := range p.Table() {
		t.Rows = append(t.Rows, []string{r.Rank, u(r.Ticks), u(r.Integrated), u(r.DueTicks), u(r.WakeTicks),
			u(r.VersionTicks), u(r.Rearmed), u(r.KeptArms), strconv.FormatFloat(r.TickShare, 'f', 4, 64),
			strconv.FormatFloat(r.WallNsPerTick, 'f', 1, 64), u(r.WallSamples)})
	}
	return t.WriteCSV(w)
}

// WritePrometheus writes the attribution counters in Prometheus text
// exposition format; they ride the campaign /metrics endpoint.
func (p *Profile) WritePrometheus(w io.Writer) error {
	fams := []export.Family{
		export.Scalar("secpref_sim_advances_total", "counter", "Engine advances (calendar jumps or lockstep steps).", float64(p.Advances)),
		export.Scalar("secpref_sim_visited_cycles_total", "counter", "Cycles processed in rank order.", float64(p.VisitedCycles)),
		export.Scalar("secpref_sim_skipped_cycles_total", "counter", "Idle cycles absorbed by gap skips.", float64(p.SkippedCycles)),
		export.Scalar("secpref_sim_clamped_advances_total", "counter", "Advances clamped below the calendar's earliest wake.", float64(p.ClampedAdvances)),
		export.Scalar("secpref_sim_skip_efficiency", "gauge", "Fraction of simulated cycles absorbed by gap skips.", p.SkipEfficiency()),
	}
	for _, m := range []struct {
		name, help string
		get        func(*RankProfile) uint64
	}{
		{"secpref_sim_rank_ticks_total", "Component ticks at visited cycles.", func(r *RankProfile) uint64 { return r.Ticks }},
		{"secpref_sim_rank_integrated_total", "Idle cycles integrated at the rank slot.", func(r *RankProfile) uint64 { return r.Integrated }},
		{"secpref_sim_rank_due_ticks_total", "Ticks caused by a due calendar entry.", func(r *RankProfile) uint64 { return r.DueTicks }},
		{"secpref_sim_rank_wake_ticks_total", "Ticks caused by a wake-counter poke.", func(r *RankProfile) uint64 { return r.WakeTicks }},
		{"secpref_sim_rank_version_ticks_total", "Ticks caused by a GM state-version move.", func(r *RankProfile) uint64 { return r.VersionTicks }},
		{"secpref_sim_rank_rearms_total", "Conditional re-arms performed.", func(r *RankProfile) uint64 { return r.Rearmed }},
		{"secpref_sim_rank_kept_arms_total", "Calendar entries kept untouched.", func(r *RankProfile) uint64 { return r.KeptArm }},
		{"secpref_sim_rank_wall_ns_total", "Sampled wall nanoseconds inside Tick.", func(r *RankProfile) uint64 { return r.WallNs }},
		{"secpref_sim_rank_wall_samples_total", "Wall-timed Tick samples.", func(r *RankProfile) uint64 { return r.WallSamples }},
	} {
		f := export.Family{Name: m.name, Type: "counter", Help: m.help}
		for i := range p.Ranks {
			f.Samples = append(f.Samples, export.Sample{Labels: []string{"rank", p.Ranks[i].Name}, Value: float64(m.get(&p.Ranks[i]))})
		}
		fams = append(fams, f)
	}
	return export.WritePrometheus(w, fams...)
}

// WriteChromeTrace writes the sampled counter tracks as a Chrome/
// Perfetto trace: "rank ticks" and "skipped cycles" counters on the
// absolute-cycle timebase the request-lifecycle tracer uses, so both
// load side by side. Process c+1 holds core c's counters: a run
// profile's own Track is process 1, and every merged track that
// sampled anything is a named process of its own.
func (p *Profile) WriteChromeTrace(w io.Writer, label string) error {
	t := export.Trace{Label: label, EngineVersion: p.EngineVersion}
	p.counters(&t, 1, p.Track)
	for c, track := range p.Tracks {
		if len(track) > 0 {
			t.Process(c+1, fmt.Sprintf("core%d sim-profile", c))
			p.counters(&t, c+1, track)
		}
	}
	return t.WriteChrome(w)
}

// counters adds one track's points to t as process pid's counters.
func (p *Profile) counters(t *export.Trace, pid int, track []TrackPoint) {
	for _, pt := range track {
		args := make(map[string]any, len(pt.Ticks))
		for i, n := range pt.Ticks {
			if i < len(p.Ranks) {
				args[p.Ranks[i].Name] = n
			}
		}
		t.Counter(pid, "rank ticks", pt.Cycle, args)
		t.Counter(pid, "skipped cycles", pt.Cycle, map[string]any{"skipped": pt.SkippedCycles})
	}
}

// Files names the sim-profile artifacts: base.json and base.csv, plus
// base.trace.json counter tracks when the profile sampled any.
func (p *Profile) Files(base, label string) []export.File {
	files := []export.File{
		export.JSONFile(base+".json", p.export()),
		{Name: base + ".csv", Write: p.WriteCSV},
	}
	if len(p.Track)+len(p.Tracks) > 0 {
		files = append(files, export.File{Name: base + ".trace.json", Write: func(w io.Writer) error { return p.WriteChromeTrace(w, label) }})
	}
	return files
}

// String renders a compact human-readable table (stderr summaries).
func (p *Profile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine %s: %d advances, %d visited + %d skipped cycles (%.1f%% skip efficiency), %d clamped\n",
		p.EngineVersion, p.Advances, p.VisitedCycles, p.SkippedCycles, 100*p.SkipEfficiency(), p.ClampedAdvances)
	for _, r := range p.Table() {
		fmt.Fprintf(&b, "  %-5s ticks=%-9d integ=%-9d due=%-9d wake=%-8d ver=%-7d rearm=%-9d kept=%-9d share=%.1f%%",
			r.Rank, r.Ticks, r.Integrated, r.DueTicks, r.WakeTicks, r.VersionTicks, r.Rearmed, r.KeptArms, 100*r.TickShare)
		if r.WallSamples > 0 {
			fmt.Fprintf(&b, " wall=%.0fns/tick", r.WallNsPerTick)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Aggregate is a mutex-guarded campaign-wide profile: worker
// goroutines Add per-run profiles, exporters snapshot it concurrently
// (the /metrics endpoint reads it while the campaign runs).
type Aggregate struct {
	mu sync.Mutex
	p  Profile
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate { return &Aggregate{} }

// Add folds one run's counters in; its counter track is dropped.
func (a *Aggregate) Add(p *Profile) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.p.Merge(p)
	a.p.Tracks = nil
}

// Snapshot returns a deep copy of the aggregated profile.
func (a *Aggregate) Snapshot() Profile {
	a.mu.Lock()
	defer a.mu.Unlock()
	cp := a.p
	cp.Ranks = append([]RankProfile(nil), a.p.Ranks...)
	return cp
}

// WritePrometheus writes the aggregated counters in Prometheus text
// format (rides probe.NewHandler's /metrics endpoint).
func (a *Aggregate) WritePrometheus(w io.Writer) error {
	s := a.Snapshot()
	return s.WritePrometheus(w)
}

// String renders the aggregated table.
func (a *Aggregate) String() string {
	s := a.Snapshot()
	return s.String()
}
