package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	gen := func(dir string, c *probe.Campaign) string {
		opts := QuickOptions()
		opts.Instrs = 6000
		opts.Warmup = 1000
		opts.Traces = []string{"605.mcf-1554B", "bfs-3B"}
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
	raw, err := os.ReadFile(filepath.Join(dir, "605.mcf-1554B__"+export.FileName("berti/on-access/secure")+".series.json"))
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
