package export

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWritePrometheus(t *testing.T) {
	var b bytes.Buffer
	err := WritePrometheus(&b,
		Scalar("x_total", "counter", "Big count.", 1357306),
		Family{Name: "y", Type: "gauge", Help: "Labelled.", Samples: []Sample{
			{Labels: []string{"rank", "core", "v", `a"b\c`}, Value: 0.25},
			{Labels: []string{"rank", "gm"}, Value: 3},
		}},
		Family{Name: "empty_total", Type: "counter", Help: "No samples."})
	if err != nil {
		t.Fatal(err)
	}
	want := "# HELP x_total Big count.\n# TYPE x_total counter\nx_total 1357306\n" +
		"# HELP y Labelled.\n# TYPE y gauge\n" +
		`y{rank="core",v="a\"b\\c"} 0.25` + "\n" + `y{rank="gm"} 3` + "\n" +
		"# HELP empty_total No samples.\n# TYPE empty_total counter\n"
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestTableCSV(t *testing.T) {
	var b bytes.Buffer
	tab := Table{Header: []string{"a", "b"}, Rows: [][]string{{"1", "x,y"}, {"2", "z"}}}
	if err := tab.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if want := "a,b\n1,\"x,y\"\n2,z\n"; b.String() != want {
		t.Errorf("csv %q, want %q", b.String(), want)
	}
}

func TestTraceEnvelope(t *testing.T) {
	var b bytes.Buffer
	if err := (&Trace{}).WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if want := `{"traceEvents":[],"displayTimeUnit":"ns","otherData":{"time_unit":"1 core cycle = 1us"}}` + "\n"; b.String() != want {
		t.Errorf("empty trace %q, want %q", b.String(), want)
	}

	tr := Trace{Label: "run", EngineVersion: "ev", Other: map[string]any{"dropped_events": 2}}
	tr.Process(1, "core0")
	tr.Thread(1, 3, "l1d")
	tr.Counter(1, "ticks", 40, map[string]any{"core": 7})
	b.Reset()
	if err := tr.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		OtherData       map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(b.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ns" || doc.OtherData["label"] != "run" || doc.OtherData["engine_version"] != "ev" ||
		doc.OtherData["time_unit"] != TimeUnit || doc.OtherData["dropped_events"] != 2.0 {
		t.Errorf("envelope %+v %+v", doc.DisplayTimeUnit, doc.OtherData)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events %v", doc.TraceEvents)
	}
	for _, ev := range doc.TraceEvents[:2] {
		if ev["ph"] != "M" || ev["ts"] != 0.0 || ev["pid"] != 1.0 {
			t.Errorf("metadata event %v: want ph M, ts 0, pid 1", ev)
		}
	}
	if c := doc.TraceEvents[2]; c["ph"] != "C" || c["ts"] != 40.0 || c["tid"] != 1.0 {
		t.Errorf("counter event %v", c)
	}
}

func TestWriteJSONEndsInNewline(t *testing.T) {
	var b bytes.Buffer
	if err := WriteJSON(&b, map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if want := "{\n  \"a\": 1\n}\n"; b.String() != want {
		t.Errorf("json %q, want %q", b.String(), want)
	}
}

func TestWriteFiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested")
	err := WriteFiles(dir, JSONFile("a.json", []int{1}),
		File{Name: "b.txt", Write: func(w io.Writer) error { _, err := io.WriteString(w, "hi"); return err }})
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, "b.txt")); string(raw) != "hi" {
		t.Errorf("b.txt = %q", raw)
	}
	boom := errors.New("boom")
	err = WriteFiles(dir, File{Name: "c.txt", Write: func(io.Writer) error { return boom }})
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), filepath.Join(dir, "c.txt")) {
		t.Errorf("write failure %v: want the cause and the path", err)
	}
}

func TestFileName(t *testing.T) {
	if got := FileName("berti/TS/secure+SUF x:y"); got != "berti-TS-secure-SUF-x-y" {
		t.Errorf("FileName = %q", got)
	}
}
