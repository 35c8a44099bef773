package probe

import (
	"expvar"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"secpref/internal/export"
)

// Campaign aggregates live telemetry for a long experiment campaign:
// run and instruction counters bumped by the experiment runner, an
// expvar publication, and a Prometheus text-format export. All methods
// are safe for concurrent use (the runner fans simulations out across
// cores).
type Campaign struct {
	start time.Time

	runsStarted atomic.Uint64
	runsDone    atomic.Uint64
	runsFailed  atomic.Uint64
	instrs      atomic.Uint64
	cycles      atomic.Uint64
	experiments atomic.Uint64
	currentExp  atomic.Value // string: the experiment id in flight
	engineVer   atomic.Value // string: simulation-engine version
	plannedExps int
}

// NewCampaign starts a campaign clock over planned experiment ids.
func NewCampaign(plannedExperiments int) *Campaign {
	c := &Campaign{start: time.Now(), plannedExps: plannedExperiments}
	c.currentExp.Store("")
	c.engineVer.Store("")
	return c
}

// SetEngineVersion records the simulation-engine version the campaign
// runs under; it appears in the snapshot and as the
// secpref_engine_info metric.
func (c *Campaign) SetEngineVersion(v string) { c.engineVer.Store(v) }

// RunStarted records one simulation starting.
func (c *Campaign) RunStarted() { c.runsStarted.Add(1) }

// RunDone records one simulation finishing with its retired instruction
// and simulated cycle counts.
func (c *Campaign) RunDone(instrs, cycles uint64) {
	c.runsDone.Add(1)
	c.instrs.Add(instrs)
	c.cycles.Add(cycles)
}

// RunFailed records one simulation erroring out.
func (c *Campaign) RunFailed() { c.runsFailed.Add(1) }

// ExperimentStarted records the experiment id now in flight.
func (c *Campaign) ExperimentStarted(id string) { c.currentExp.Store(id) }

// ExperimentDone records one experiment id completing.
func (c *Campaign) ExperimentDone() { c.experiments.Add(1) }

// Runs returns (completed, started) simulation counts.
func (c *Campaign) Runs() (done, started uint64) {
	return c.runsDone.Load(), c.runsStarted.Load()
}

// Elapsed returns time since the campaign started.
func (c *Campaign) Elapsed() time.Duration { return time.Since(c.start) }

// ETA estimates remaining campaign time from per-experiment progress:
// elapsed scaled by the unfinished fraction. Zero until the first
// experiment completes.
func (c *Campaign) ETA() time.Duration {
	done := c.experiments.Load()
	if done == 0 || c.plannedExps <= int(done) {
		return 0
	}
	per := c.Elapsed() / time.Duration(done)
	return per * time.Duration(c.plannedExps-int(done))
}

// Snapshot is a consistent-enough view of the counters for export.
type Snapshot struct {
	RunsStarted     uint64  `json:"runs_started"`
	RunsDone        uint64  `json:"runs_done"`
	RunsFailed      uint64  `json:"runs_failed"`
	Instructions    uint64  `json:"instructions"`
	Cycles          uint64  `json:"cycles"`
	ExperimentsDone uint64  `json:"experiments_done"`
	ExperimentsPlan int     `json:"experiments_planned"`
	CurrentExp      string  `json:"current_experiment"`
	EngineVersion   string  `json:"engine_version,omitempty"`
	UptimeSeconds   float64 `json:"uptime_seconds"`
	InstrsPerSec    float64 `json:"instrs_per_sec"`
}

// Snapshot captures the current counters.
func (c *Campaign) Snapshot() Snapshot {
	up := c.Elapsed().Seconds()
	s := Snapshot{
		RunsStarted:     c.runsStarted.Load(),
		RunsDone:        c.runsDone.Load(),
		RunsFailed:      c.runsFailed.Load(),
		Instructions:    c.instrs.Load(),
		Cycles:          c.cycles.Load(),
		ExperimentsDone: c.experiments.Load(),
		ExperimentsPlan: c.plannedExps,
		CurrentExp:      c.currentExp.Load().(string),
		EngineVersion:   c.engineVer.Load().(string),
		UptimeSeconds:   up,
	}
	if up > 0 {
		s.InstrsPerSec = float64(s.Instructions) / up
	}
	return s
}

// WritePrometheus writes the counters in Prometheus text exposition
// format (counters as *_total, gauges bare).
func (c *Campaign) WritePrometheus(w io.Writer) error {
	s := c.Snapshot()
	fams := []export.Family{
		export.Scalar("secpref_runs_started_total", "counter", "Simulations started.", float64(s.RunsStarted)),
		export.Scalar("secpref_runs_completed_total", "counter", "Simulations completed.", float64(s.RunsDone)),
		export.Scalar("secpref_runs_failed_total", "counter", "Simulations failed.", float64(s.RunsFailed)),
		export.Scalar("secpref_instructions_total", "counter", "Instructions retired across completed runs.", float64(s.Instructions)),
		export.Scalar("secpref_cycles_total", "counter", "Cycles simulated across completed runs.", float64(s.Cycles)),
		export.Scalar("secpref_experiments_completed_total", "counter", "Experiment ids completed.", float64(s.ExperimentsDone)),
		export.Scalar("secpref_campaign_uptime_seconds", "gauge", "Seconds since the campaign started.", s.UptimeSeconds),
		export.Scalar("secpref_instructions_per_second", "gauge", "Campaign-average simulated instruction throughput.", s.InstrsPerSec),
	}
	if s.EngineVersion != "" {
		fams = append(fams, export.Family{Name: "secpref_engine_info", Type: "gauge", Help: "Simulation-engine version in use.",
			Samples: []export.Sample{{Labels: []string{"version", s.EngineVersion}, Value: 1}}})
	}
	return export.WritePrometheus(w, fams...)
}

// expvar publication is process-global and append-only, so the package
// registers one Func reading whichever campaign published last.
var expvarOnce sync.Once
var expvarCurrent atomic.Pointer[Campaign]

// Publish exposes the campaign under the expvar key "secpref_campaign"
// (served by /debug/vars). Safe to call more than once and across
// campaigns; the latest publisher wins.
func (c *Campaign) Publish() {
	expvarCurrent.Store(c)
	expvarOnce.Do(func() {
		expvar.Publish("secpref_campaign", expvar.Func(func() any {
			if cur := expvarCurrent.Load(); cur != nil {
				return cur.Snapshot()
			}
			return nil
		}))
	})
}
