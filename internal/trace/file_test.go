package trace

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"secpref/internal/mem"
)

func TestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	ins := genInstrs(rand.New(rand.NewSource(9)), 5000)
	orig := newTrace("file-roundtrip", ins)

	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	g, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	got, err := Read(g)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != orig.Name || !reflect.DeepEqual(readAll(NewSource(got), 256), ins) {
		t.Fatal("file round trip mismatch")
	}
}

func TestEncodingIsCompact(t *testing.T) {
	// Non-memory instructions should cost ~2 bytes (flags + ip delta).
	tr := &Trace{Name: "compact"}
	for i := 0; i < 10_000; i++ {
		tr.Append(Instr{IP: mem.Addr(0x400000 + mem4(i))})
	}
	var n countingWriter
	if err := Write(&n, tr); err != nil {
		t.Fatal(err)
	}
	perInstr := float64(n) / 10_000
	if perInstr > 3 {
		t.Errorf("encoding costs %.1f bytes per ALU instruction", perInstr)
	}
}

func mem4(i int) uint64 { return uint64(i%64) * 4 }

type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
