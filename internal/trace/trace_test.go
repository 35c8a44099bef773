package trace

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"secpref/internal/mem"
)

// genInstrs builds a random but valid instruction slice.
func genInstrs(rng *rand.Rand, n int) []Instr {
	out := make([]Instr, n)
	ip := mem.Addr(0x400000)
	for i := range out {
		in := Instr{IP: ip}
		ip += mem.Addr(rng.Intn(16) * 4)
		switch rng.Intn(4) {
		case 0:
			in.Load = mem.Addr(rng.Uint64()>>8 & ^uint64(0) | 1)
		case 1:
			in.Store = mem.Addr(rng.Uint64()>>8 | 1)
		case 2:
			in.Branch = true
			in.Taken = rng.Intn(2) == 0
		}
		if in.Load != 0 && rng.Intn(3) == 0 {
			in.Dep = true
		}
		out[i] = in
	}
	return out
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 500)
		orig := &Trace{Name: "t", Instrs: genInstrs(rng, n)}
		var buf bytes.Buffer
		if err := Write(&buf, orig); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		return got.Name == orig.Name && reflect.DeepEqual(got.Instrs, orig.Instrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE-------"))); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestReadRejectsTruncated(t *testing.T) {
	orig := &Trace{Name: "x", Instrs: genInstrs(rand.New(rand.NewSource(1)), 100)}
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{5, 9, 12, len(raw) / 2, len(raw) - 1} {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Errorf("expected error for truncation at %d", cut)
		}
	}
}

// readAll drains src in batches of size n.
func readAll(src Source, n int) []Instr {
	var out []Instr
	buf := make([]Instr, n)
	for {
		k := src.ReadBatch(buf)
		if k == 0 {
			return out
		}
		out = append(out, buf[:k]...)
	}
}

func TestSourceIteration(t *testing.T) {
	tr := &Trace{Name: "s", Instrs: genInstrs(rand.New(rand.NewSource(2)), 10)}
	src := NewSource(tr)
	if src.Name() != "s" {
		t.Errorf("name %q", src.Name())
	}
	if got := readAll(src, 3); !reflect.DeepEqual(got, tr.Instrs) {
		t.Fatal("iteration mismatch")
	}
	if n := src.ReadBatch(make([]Instr, 1)); n != 0 {
		t.Fatalf("ReadBatch after end returned %d", n)
	}
	src.Reset()
	if got := readAll(src, 4); !reflect.DeepEqual(got, tr.Instrs) {
		t.Fatal("Reset did not rewind")
	}
}

func TestRepeatWrapsAndBounds(t *testing.T) {
	tr := &Trace{Name: "r", Instrs: genInstrs(rand.New(rand.NewSource(3)), 7)}
	src := Repeat(NewSource(tr), 20)
	got := readAll(src, 5)
	if len(got) != 20 {
		t.Fatalf("Repeat yielded %d instructions, want 20", len(got))
	}
	for i, in := range got {
		if in != tr.Instrs[i%7] {
			t.Fatalf("instruction %d mismatch", i)
		}
	}
	src.Reset()
	if got := readAll(src, 5); len(got) != 20 {
		t.Fatalf("after Reset Repeat yielded %d instructions, want 20", len(got))
	}
}

func TestRepeatEmptyUnderlying(t *testing.T) {
	src := Repeat(NewSource(&Trace{Name: "e"}), 5)
	if n := src.ReadBatch(make([]Instr, 4)); n != 0 {
		t.Fatalf("empty trace yielded %d instructions", n)
	}
}

func TestOffsetRelocatesDataOnly(t *testing.T) {
	tr := &Trace{Name: "o", Instrs: []Instr{
		{IP: 0x400, Load: 0x1000},
		{IP: 0x404, Store: 0x2000},
		{IP: 0x408, Branch: true, Taken: true},
	}}
	got := readAll(Offset(NewSource(tr), 0x10_0000), 8)
	if len(got) != 3 {
		t.Fatalf("Offset yielded %d instructions, want 3", len(got))
	}
	if got[0].Load != 0x101000 || got[0].IP != 0x400 {
		t.Errorf("load offset wrong: %+v", got[0])
	}
	if got[1].Store != 0x102000 {
		t.Errorf("store offset wrong: %+v", got[1])
	}
	if got[2].Load != 0 || got[2].Store != 0 {
		t.Errorf("branch gained data address: %+v", got[2])
	}
}

// TestReadBatch reads the source chain a multi-core run builds,
// Repeat(Offset(NewSource(t), d), n), at several batch sizes, with n
// not a multiple of the trace length, so the wrap falls inside a batch.
func TestReadBatch(t *testing.T) {
	const (
		length = 10
		n      = 263
		delta  = mem.Addr(0x40_0000)
	)
	tr := &Trace{Name: "b", Instrs: genInstrs(rand.New(rand.NewSource(4)), length)}
	want := make([]Instr, n)
	for i := range want {
		in := tr.Instrs[i%length]
		if in.Load != 0 {
			in.Load += delta
		}
		if in.Store != 0 {
			in.Store += delta
		}
		want[i] = in
	}
	for _, batch := range []int{1, 2, 3, 7, 256} {
		t.Run(fmt.Sprint(batch), func(t *testing.T) {
			src := Repeat(Offset(NewSource(tr), delta), n)
			if src.Name() != "b" {
				t.Errorf("name %q", src.Name())
			}
			for pass := 0; pass < 2; pass++ {
				got := readAll(src, batch)
				if len(got) != n {
					t.Fatalf("pass %d: read %d instructions, want %d", pass, len(got), n)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("pass %d: instruction %d = %+v, want %+v", pass, i, got[i], want[i])
					}
				}
				if k := src.ReadBatch(make([]Instr, batch)); k != 0 {
					t.Fatalf("pass %d: ReadBatch past the limit returned %d", pass, k)
				}
				src.Reset()
			}
		})
	}
}

func TestNonEmpty(t *testing.T) {
	if _, err := NonEmpty(NewSource(&Trace{Name: "empty"})); !errors.Is(err, ErrEmptySource) {
		t.Errorf("empty source: err = %v, want ErrEmptySource", err)
	}
	one := &Trace{Name: "one", Instrs: []Instr{{IP: 0x400, Load: 0x1000}}}
	src, err := NonEmpty(NewSource(one))
	if err != nil {
		t.Fatalf("one-instruction source: %v", err)
	}
	if got := readAll(src, 4); !reflect.DeepEqual(got, one.Instrs) {
		t.Errorf("after the probe the source yields %+v, want %+v", got, one.Instrs)
	}
}
