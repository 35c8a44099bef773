// Package export is the one export path for every observer's
// artifacts. Observers fill its model — a Table, metric Families, a
// Trace, or any JSON-encodable value — and the package holds the one
// writer per format: CSV, Prometheus text, Chrome/Perfetto trace JSON
// and indented JSON. WriteFiles puts a named set of artifacts on disk.
//
// Conventions shared by every artifact:
//
//   - Trace timestamps are simulated cycles, one cycle written as 1 µs.
//   - Prometheus sample values are printed in plain decimal notation
//     (strconv 'f', shortest round-trip precision), never in exponent
//     form.
//   - JSON is two-space indented and ends in a newline; traces are one
//     line.
package export

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Table is a header plus string rows, written as CSV.
type Table struct {
	Header []string
	Rows   [][]string
}

// WriteCSV writes the header, then every row.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	return cw.WriteAll(t.Rows)
}

// Family is one Prometheus metric family.
type Family struct {
	Name, Type, Help string
	Samples          []Sample
}

// Sample is one value of a family. Labels alternate label names and
// values.
type Sample struct {
	Labels []string
	Value  float64
}

// Scalar is a family of one unlabelled sample.
func Scalar(name, typ, help string, v float64) Family {
	return Family{Name: name, Type: typ, Help: help, Samples: []Sample{{Value: v}}}
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus writes the families in Prometheus text exposition
// format. A family without samples still prints its HELP and TYPE.
func WritePrometheus(w io.Writer, fams ...Family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, s := range f.Samples {
			bw.WriteString(f.Name)
			for i := 0; i+1 < len(s.Labels); i += 2 {
				sep := byte(',')
				if i == 0 {
					sep = '{'
				}
				bw.WriteByte(sep)
				fmt.Fprintf(bw, `%s="%s"`, s.Labels[i], labelEscaper.Replace(s.Labels[i+1]))
			}
			if len(s.Labels) > 1 {
				bw.WriteByte('}')
			}
			bw.WriteByte(' ')
			bw.WriteString(strconv.FormatFloat(s.Value, 'f', -1, 64))
			bw.WriteByte('\n')
		}
	}
	return bw.Flush()
}

// Event is one Chrome trace event. TS and Dur are simulated cycles.
type Event struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`
	Dur   uint64         `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// TimeUnit is the otherData time_unit every trace carries.
const TimeUnit = "1 core cycle = 1us"

// Trace is one Chrome/Perfetto trace: the events plus what otherData
// records about the run. Empty Label and EngineVersion are left out.
type Trace struct {
	Label, EngineVersion string
	// Other holds further otherData entries.
	Other  map[string]any
	Events []Event
}

// Process names process pid.
func (t *Trace) Process(pid int, name string) {
	t.Events = append(t.Events, Event{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": name}})
}

// Thread names thread tid of process pid.
func (t *Trace) Thread(pid, tid int, name string) {
	t.Events = append(t.Events, Event{Name: "thread_name", Phase: "M", PID: pid, TID: tid, Args: map[string]any{"name": name}})
}

// Counter adds one sample of the counter track name on thread 1 of
// process pid.
func (t *Trace) Counter(pid int, name string, ts uint64, args map[string]any) {
	t.Events = append(t.Events, Event{Name: name, Phase: "C", TS: ts, PID: pid, TID: 1, Args: args})
}

// WriteChrome writes the trace as Chrome trace-event JSON, which
// Perfetto and chrome://tracing both load.
func (t *Trace) WriteChrome(w io.Writer) error {
	other := map[string]any{"time_unit": TimeUnit}
	if t.Label != "" {
		other["label"] = t.Label
	}
	if t.EngineVersion != "" {
		other["engine_version"] = t.EngineVersion
	}
	for k, v := range t.Other {
		other[k] = v
	}
	events := t.Events
	if events == nil {
		events = []Event{}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []Event        `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{events, "ns", other})
}

// WriteJSON writes v as two-space indented JSON ending in a newline.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// File is one artifact: its file name and the function that writes it.
type File struct {
	Name  string
	Write func(io.Writer) error
}

// JSONFile is the artifact name holding v as indented JSON.
func JSONFile(name string, v any) File {
	return File{name, func(w io.Writer) error { return WriteJSON(w, v) }}
}

// WriteFiles creates dir and writes every file into it. The first
// failure stops it; its error names the file's path.
func WriteFiles(dir string, files ...File) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		path := filepath.Join(dir, f.Name)
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		bw := bufio.NewWriter(out)
		err = f.Write(bw)
		if err == nil {
			err = bw.Flush()
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// FileName turns a run label ("berti/TS/secure+SUF") into a file-name
// fragment ("berti-TS-secure-SUF").
func FileName(label string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '+', ' ', ':':
			return '-'
		}
		return r
	}, label)
}
