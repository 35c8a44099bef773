package experiments

import (
	"bytes"
	"fmt"
	"strings"

	"secpref/internal/export"
)

// Table is a rendered experiment result: a title, a header row, data
// rows, and free-form notes (paper-vs-measured commentary).
type Table struct {
	ID     string     `json:"id"` // "fig1", "table2", ...
	Title  string     `json:"title"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// JSON renders the table as indented JSON (for downstream plotting).
func (t *Table) JSON() ([]byte, error) {
	var b bytes.Buffer
	err := export.WriteJSON(&b, t)
	return b.Bytes(), err
}

// AddRow appends a data row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// files names the table's artifacts: ID.json and ID.csv.
func (t *Table) files() []export.File {
	csv := export.Table{Header: t.Header, Rows: t.Rows}
	return []export.File{export.JSONFile(t.ID+".json", t), {Name: t.ID + ".csv", Write: csv.WriteCSV}}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len(c)
			}
			if i == 0 {
				b.WriteString(c + strings.Repeat(" ", pad))
			} else {
				b.WriteString(strings.Repeat(" ", pad) + c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
