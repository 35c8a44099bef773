package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"slices"
	"testing"

	"secpref/internal/mem"
)

// FuzzRead: any byte stream either decodes or returns an error, and
// never panics; memory follows the records present, not the header's
// count. Read accepts exactly the streams a streaming reference decoder
// accepts; an accepted trace re-encodes to the same bytes, and its
// Source yields exactly Len() instructions, the ones the reference
// decoded.
func FuzzRead(f *testing.F) {
	var valid bytes.Buffer
	if err := Write(&valid, newTrace("seed", genInstrs(rand.New(rand.NewSource(1)), 20))); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	// Magic, empty name, count 2^32 and no records: the reader used to
	// preallocate 2^32 records for it and die out of memory.
	f.Add(append(magic[:], 0, 0, 0, 0, 0, 0, 1, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		want, refErr := readReference(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Read err %v, reference err %v", err, refErr)
		}
		if err != nil {
			return
		}
		var b bytes.Buffer
		if err := Write(&b, tr); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), data) {
			t.Fatal("accepted trace does not re-encode to its own bytes")
		}
		if tr.Len() != len(want) {
			t.Fatalf("Len() = %d, reference decoded %d records", tr.Len(), len(want))
		}
		for _, batch := range []int{1, 7, 256} {
			if got := readAll(NewSource(tr), batch); !slices.Equal(got, want) {
				t.Fatalf("batch %d: ReadBatch yields %d instructions, not the %d the reference decoded", batch, len(got), len(want))
			}
		}
	})
}

// readReference decodes a trace stream record by record with
// encoding/binary's readers, the way Read worked before it kept the
// records' bytes, and requires the stream to end after the last
// record.
func readReference(data []byte) ([]Instr, error) {
	br := bufio.NewReader(bytes.NewReader(data))
	hdr := make([]byte, len(magic)+2)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, err
	}
	if !bytes.Equal(hdr[:len(magic)], magic[:]) {
		return nil, ErrBadTrace
	}
	if _, err := io.ReadFull(br, make([]byte, binary.LittleEndian.Uint16(hdr[len(magic):]))); err != nil {
		return nil, err
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, err
	}
	var out []Instr
	ip := uint64(0)
	for i := binary.LittleEndian.Uint64(cnt[:]); i > 0; i-- {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, err
		}
		ip += uint64(d)
		in := Instr{IP: mem.Addr(ip), Branch: flags&flagBranch != 0, Taken: flags&flagTaken != 0, Dep: flags&flagDep != 0}
		if flags&flagLoad != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			in.Load = mem.Addr(v)
		}
		if flags&flagStore != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			in.Store = mem.Addr(v)
		}
		out = append(out, in)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, ErrBadTrace
	}
	return out, nil
}
