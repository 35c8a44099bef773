package experiments

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "demo",
		Header: []string{"a", "bbbb"},
	}
	tab.AddRow("row1", "1.0")
	tab.AddRow("longer-row", "2.0")
	tab.Notes = append(tab.Notes, "a note")
	s := tab.String()
	for _, want := range []string{"== x: demo ==", "longer-row", "note: a note", "bbbb"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestStaticTables(t *testing.T) {
	if got := len(Table1().Rows); got != 10 {
		t.Errorf("Table1 has %d rows, want 10 mitigation techniques", got)
	}
	t2 := Table2()
	if !strings.Contains(t2.String(), "352-entry ROB") {
		t.Errorf("Table2 missing core parameters:\n%s", t2)
	}
	if t3 := Table3(); len(t3.Rows) != len(Prefetchers) {
		t.Errorf("Table3 rows = %d", len(t3.Rows))
	}
}

func TestUnknownExperiment(t *testing.T) {
	r := NewRunner(QuickOptions())
	if _, err := r.Run("fig99"); err == nil {
		t.Fatal("expected unknown-experiment error")
	}
}

func TestRunnerDefaults(t *testing.T) {
	r := NewRunner(Options{})
	o := r.Options()
	if o.Instrs == 0 || o.Warmup == 0 || len(o.Traces) != 65 || o.Parallelism <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

// TestFigSmoke regenerates every experiment at tiny scale — the rows
// must exist and the runner must not error on any path.
func TestFigSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	opts := QuickOptions()
	opts.Instrs = 6000
	opts.Warmup = 1000
	opts.Mixes = 2
	opts.Traces = []string{"605.mcf-1554B", "641.leela-1083B"}
	r := NewRunner(opts)
	ids := append(append([]string{}, IDs...), ExtensionIDs...)
	for _, id := range ids {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if tab.ID == "" || tab.Title == "" || len(tab.Header) == 0 {
			t.Errorf("%s: incomplete table metadata", id)
		}
		if _, err := tab.JSON(); err != nil {
			t.Errorf("%s: JSON rendering failed: %v", id, err)
		}
	}
}

func TestGeomean(t *testing.T) {
	m := map[string]float64{"a": 2, "b": 8}
	if g := geomean(m); g < 3.99 || g > 4.01 {
		t.Errorf("geomean = %f, want 4", g)
	}
	if geomean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
}

func TestRandomMixesDeterministic(t *testing.T) {
	a := NewRunner(QuickOptions()).randomMixes()
	b := NewRunner(QuickOptions()).randomMixes()
	if len(a) != QuickOptions().Mixes {
		t.Fatalf("%d mixes", len(a))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("mixes not deterministic")
			}
		}
	}
}
