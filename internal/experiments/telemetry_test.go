package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"secpref/internal/export"
	"secpref/internal/probe"
)

func TestSanitizeLabel(t *testing.T) {
	for in, want := range map[string]string{
		"berti/TS/secure+SUF":                 "berti-TS-secure-SUF",
		"nopref/non-secure":                   "nopref-non-secure",
		"bingo/on-commit/secure+SUF+classify": "bingo-on-commit-secure-SUF-classify",
	} {
		if got := export.FileName(in); got != want {
			t.Errorf("export.FileName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestTimeseriesOutputInvariant pins the observability layer's
// end-to-end guarantee at campaign scope: regenerating an experiment
// with telemetry enabled must render byte-identical tables, while also
// producing valid series and trace files for every (trace, variant) run.
func TestTimeseriesOutputInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := QuickOptions()
	opts.Instrs = 6000
	opts.Warmup = 1000
	opts.Traces = []string{"605.mcf-1554B", "bfs-3B"}
	gen := func(dir string, c *probe.Campaign) string {
		opts := opts
		opts.TimeseriesDir = dir
		opts.Campaign = c
		tab, err := NewRunner(opts).Run("fig4")
		if err != nil {
			t.Fatalf("fig4 (timeseries=%q): %v", dir, err)
		}
		return tab.String()
	}

	plain := gen("", nil)
	dir := t.TempDir()
	c := probe.NewCampaign(1)
	probed := gen(dir, c)
	if plain != probed {
		t.Errorf("telemetry perturbed the experiment output:\n--- plain ---\n%s\n--- probed ---\n%s", plain, probed)
	}

	// Every run must have exported its three files.
	series, _ := filepath.Glob(filepath.Join(dir, "*.series.json"))
	csvs, _ := filepath.Glob(filepath.Join(dir, "*.series.csv"))
	traces, _ := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if len(series) == 0 || len(series) != len(csvs) || len(series) != len(traces) {
		t.Fatalf("export mismatch: %d series.json, %d series.csv, %d trace.json", len(series), len(csvs), len(traces))
	}

	// The series JSON must decode and hold per-interval rows; the trace
	// must be a Chrome trace-event array.
	stem := "605.mcf-1554B__" + export.FileName(runLabel(onAccessSecure("berti").config(opts)))
	raw, err := os.ReadFile(filepath.Join(dir, stem+".series.json"))
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Trace     string         `json:"trace"`
		Intervals []probe.Row    `json:"intervals"`
		Samples   []probe.Sample `json:"cumulative"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("series JSON invalid: %v", err)
	}
	if env.Trace != "605.mcf-1554B" || len(env.Intervals) < 3 || len(env.Intervals) != len(env.Samples) {
		t.Errorf("series envelope off: trace=%q intervals=%d samples=%d", env.Trace, len(env.Intervals), len(env.Samples))
	}
	rawTrace, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rawTrace, &chrome); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Error("chrome trace empty")
	}

	// The campaign saw every run exactly once (fig4 = 5 prefetchers x 2
	// variants + 2 baselines, per trace), with no failures.
	snap := c.Snapshot()
	if snap.RunsDone != snap.RunsStarted || snap.RunsDone == 0 || snap.RunsFailed != 0 {
		t.Errorf("campaign counters off: %+v", snap)
	}
	if snap.Instructions == 0 || snap.Cycles == 0 {
		t.Errorf("campaign recorded no work: %+v", snap)
	}

	// CSV export has the header plus one line per interval.
	rawCSV, err := os.ReadFile(csvs[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(rawCSV)), "\n")
	if len(lines) < 4 || !strings.HasPrefix(lines[0], "cycle,instructions,ipc,") {
		t.Errorf("csv export off (%d lines, header %q)", len(lines), lines[0])
	}
}

// TestTimeseriesNamesFollowTheRun runs two experiments that share runs
// in both orders: the 32-line GM row of ablate-gm and the LRU row of
// ablate-policy are both the default TSB+SUF system, over one baseline.
// The exported file sets must be identical, because a file is named by
// its run's input, not by the experiment that started the run.
func TestTimeseriesNamesFollowTheRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	files := func(ids ...string) []string {
		opts := QuickOptions()
		opts.Instrs = 4000
		opts.Warmup = 1000
		opts.Traces = []string{"605.mcf-1554B"}
		opts.TimeseriesDir = t.TempDir()
		r := NewRunner(opts)
		for _, id := range ids {
			if _, err := r.Run(id); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		entries, err := os.ReadDir(opts.TimeseriesDir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	gmFirst := files("ablate-gm", "ablate-policy")
	policyFirst := files("ablate-policy", "ablate-gm")
	if len(gmFirst) == 0 || !reflect.DeepEqual(gmFirst, policyFirst) {
		t.Errorf("exported files depend on experiment order:\nablate-gm first:     %v\nablate-policy first: %v", gmFirst, policyFirst)
	}
}

// TestCampaignCountsEveryRun runs every experiment with a campaign
// attached and one -p slot. Each experiment's counted runs must equal
// the distinct runs it started through the memo, every one must finish,
// and a poller must never see two runs in flight. The poller reads the
// started count before the finished counts, so a poll can only
// under-count the runs in flight: a missed poll may hide a violation,
// but no schedule can fail the test spuriously.
func TestCampaignCountsEveryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := QuickOptions()
	opts.Instrs = 6000
	opts.Warmup = 1000
	opts.Mixes = 2
	opts.Traces = []string{"605.mcf-1554B", "641.leela-1083B"}
	opts.Parallelism = 1
	c := probe.NewCampaign(len(IDs) + len(ExtensionIDs))
	opts.Campaign = c
	r := NewRunner(opts)
	memoized := func() uint64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return uint64(len(r.runs))
	}

	stop := make(chan struct{})
	most := make(chan int64)
	go func() {
		var seen int64
		for {
			started := c.Snapshot().RunsStarted
			s := c.Snapshot()
			seen = max(seen, int64(started)-int64(s.RunsDone)-int64(s.RunsFailed))
			select {
			case <-stop:
				most <- seen
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()

	for _, id := range append(append([]string{}, IDs...), ExtensionIDs...) {
		before, memoBefore := c.Snapshot(), memoized()
		if _, err := r.Run(id); err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		after, started := c.Snapshot(), memoized()-memoBefore
		counted, done := after.RunsStarted-before.RunsStarted, after.RunsDone-before.RunsDone
		if counted != started || done != started || after.RunsFailed != 0 {
			t.Errorf("%s: memo started %d runs; campaign counted %d started, %d done, %d failed in total", id, started, counted, done, after.RunsFailed)
		}
		if id == "fig15" {
			// One run per distinct mix and system, the baseline included.
			mixes := map[string]bool{}
			for _, m := range r.randomMixes() {
				mixes[strings.Join(m, "+")] = true
			}
			if want := uint64(len(mixes) * (len(fig15Variants()) + 1)); counted != want {
				t.Errorf("fig15 counted %d runs, want %d", counted, want)
			}
		}
	}
	close(stop)
	if n := <-most; n > 1 {
		t.Errorf("saw %d runs in flight with Parallelism 1", n)
	}
}
