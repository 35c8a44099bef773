package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"secpref/internal/mem"
)

// Binary trace encoding
//
// A trace file is:
//
//	magic   [8]byte  "SECPREF1"
//	nameLen uint16   little-endian
//	name    [nameLen]byte
//	count   uint64   number of instruction records
//	records ...
//
// Each record is a flags byte followed by varint-encoded fields, so
// non-memory instructions cost 1 byte plus the IP delta:
//
//	flags: bit0 hasLoad, bit1 hasStore, bit2 branch, bit3 taken, bit4 dep
//	ipDelta  varint (zig-zag, relative to previous IP)
//	load     uvarint (absolute, if hasLoad)
//	store    uvarint (absolute, if hasStore)

var magic = [8]byte{'S', 'E', 'C', 'P', 'R', 'E', 'F', '1'}

const (
	flagLoad   = 1 << 0
	flagStore  = 1 << 1
	flagBranch = 1 << 2
	flagTaken  = 1 << 3
	flagDep    = 1 << 4
)

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// Write encodes t to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	if len(t.Name) > 0xffff {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	var hdr [2]byte
	binary.LittleEndian.PutUint16(hdr[:], uint16(len(t.Name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := bw.WriteString(t.Name); err != nil {
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(t.Instrs)))
	if _, err := bw.Write(cnt[:]); err != nil {
		return err
	}
	var buf [3 * binary.MaxVarintLen64]byte
	prevIP := uint64(0)
	for _, in := range t.Instrs {
		var flags byte
		if in.Load != 0 {
			flags |= flagLoad
		}
		if in.Store != 0 {
			flags |= flagStore
		}
		if in.Branch {
			flags |= flagBranch
		}
		if in.Taken {
			flags |= flagTaken
		}
		if in.Dep {
			flags |= flagDep
		}
		if err := bw.WriteByte(flags); err != nil {
			return err
		}
		n := binary.PutVarint(buf[:], int64(uint64(in.IP)-prevIP))
		prevIP = uint64(in.IP)
		if in.Load != 0 {
			n += binary.PutUvarint(buf[n:], uint64(in.Load))
		}
		if in.Store != 0 {
			n += binary.PutUvarint(buf[n:], uint64(in.Store))
		}
		if _, err := bw.Write(buf[:n]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a full trace from r.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, m[:])
	}
	var hdr [2]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	nameLen := binary.LittleEndian.Uint16(hdr[:])
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(br, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(br, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint64(cnt[:])
	const maxReasonable = 1 << 32
	if count > maxReasonable {
		return nil, fmt.Errorf("%w: implausible instruction count %d", ErrBadTrace, count)
	}
	// The header's count is untrusted: preallocate at most 64Ki records
	// and let append grow with the records actually present.
	t := &Trace{Name: string(name), Instrs: make([]Instr, 0, min(count, 1<<16))}
	prevIP := uint64(0)
	for i := uint64(0); i < count; i++ {
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		d, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d ip: %w", i, err)
		}
		prevIP += uint64(d)
		in := Instr{
			IP:     mem.Addr(prevIP),
			Branch: flags&flagBranch != 0,
			Taken:  flags&flagTaken != 0,
			Dep:    flags&flagDep != 0,
		}
		if flags&flagLoad != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d load: %w", i, err)
			}
			in.Load = mem.Addr(v)
		}
		if flags&flagStore != 0 {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: record %d store: %w", i, err)
			}
			in.Store = mem.Addr(v)
		}
		t.Instrs = append(t.Instrs, in)
	}
	return t, nil
}
