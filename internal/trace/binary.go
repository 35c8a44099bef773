package trace

import (
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
//
// An in-memory Trace holds exactly the records, so Write copies them
// out after the header and Read keeps the bytes it has checked.

var magic = [8]byte{'S', 'E', 'C', 'P', 'R', 'E', 'F', '1'}

const (
	flagLoad   = 1 << 0
	flagStore  = 1 << 1
	flagBranch = 1 << 2
	flagTaken  = 1 << 3
	flagDep    = 1 << 4
)

// maxRecordLen is the longest record: a flags byte and three varints.
const maxRecordLen = 1 + 3*binary.MaxVarintLen64

// batchLen is how many records Read checks per decodeBatch call.
const batchLen = 256

// ErrBadTrace reports a malformed trace stream.
var ErrBadTrace = errors.New("trace: malformed trace stream")

// appendRecord appends in's record to b; prevIP is the IP of the
// record before it (0 for the first).
func appendRecord(b []byte, in Instr, prevIP uint64) []byte {
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
	b = append(b, flags)
	b = binary.AppendVarint(b, int64(uint64(in.IP)-prevIP))
	if in.Load != 0 {
		b = binary.AppendUvarint(b, uint64(in.Load))
	}
	if in.Store != 0 {
		b = binary.AppendUvarint(b, uint64(in.Store))
	}
	return b
}

// decodeBatch decodes the records from recs[pos:] into dst; prevIP is
// the IP of the record before pos (0 at the start). It returns how many
// records it decoded, the offset of the next one and the IP of the last
// one decoded. It stops short of len(dst) at the end of recs, or at a
// record that is cut short or holds a varint longer than 64 bits, and
// may then have overwritten dst[n].
func decodeBatch(dst []Instr, recs []byte, pos int, prevIP uint64) (n, next int, lastIP uint64) {
	for k := range dst {
		if pos >= len(recs) {
			return k, pos, prevIP
		}
		flags := recs[pos]
		d, p, ok := uvarint(recs, pos+1)
		if !ok {
			return k, pos, prevIP
		}
		// Zig-zag: the low bit carries the sign.
		ip := prevIP + uint64(int64(d>>1)^-int64(d&1))
		// Fill dst[k] field by field: a whole-struct copy from a
		// temporary reads back its just-written flag bytes as words,
		// which the store buffer cannot forward, and costs more than
		// the varints.
		in := &dst[k]
		in.IP = mem.Addr(ip)
		in.Load, in.Store = 0, 0
		in.Branch = flags&flagBranch != 0
		in.Taken = flags&flagTaken != 0
		in.Dep = flags&flagDep != 0
		if flags&flagLoad != 0 {
			var v uint64
			if v, p, ok = uvarint(recs, p); !ok {
				return k, pos, prevIP
			}
			in.Load = mem.Addr(v)
		}
		if flags&flagStore != 0 {
			var v uint64
			if v, p, ok = uvarint(recs, p); !ok {
				return k, pos, prevIP
			}
			in.Store = mem.Addr(v)
		}
		pos, prevIP = p, ip
	}
	return len(dst), pos, prevIP
}

// uvarint decodes the unsigned varint at b[pos:] with the rules of
// binary.Uvarint, returning the offset after it.
func uvarint(b []byte, pos int) (x uint64, next int, ok bool) {
	for s := uint(0); s < 64; s += 7 {
		if pos >= len(b) {
			return 0, pos, false
		}
		c := b[pos]
		pos++
		if c < 0x80 {
			if s == 63 && c > 1 {
				return 0, pos, false
			}
			return x | uint64(c)<<s, pos, true
		}
		x |= uint64(c&0x7f) << s
	}
	return 0, pos, false
}

// Write encodes t to w in the binary trace format.
func Write(w io.Writer, t *Trace) error {
	if len(t.Name) > 0xffff {
		return fmt.Errorf("trace: name too long (%d bytes)", len(t.Name))
	}
	hdr := make([]byte, 0, len(magic)+2+len(t.Name)+8)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(t.Name)))
	hdr = append(hdr, t.Name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(t.n))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(t.recs)
	return err
}

// Read decodes a trace written by Write. It decodes every record once,
// with the decoder NewSource's ReadBatch uses, and keeps the bytes: a
// stream that is cut short, holds fewer or more records than its
// header counts, or holds a record that does not decode returns an
// error, and a trace Read returns decodes in full. Memory follows the
// bytes present, not the header's count.
func Read(r io.Reader) (*Trace, error) {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTrace, m[:])
	}
	var hdr [2]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	name := make([]byte, binary.LittleEndian.Uint16(hdr[:]))
	if _, err := io.ReadFull(r, name); err != nil {
		return nil, fmt.Errorf("trace: reading name: %w", err)
	}
	var cnt [8]byte
	if _, err := io.ReadFull(r, cnt[:]); err != nil {
		return nil, fmt.Errorf("trace: reading count: %w", err)
	}
	count := binary.LittleEndian.Uint64(cnt[:])
	recs, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading records: %w", err)
	}
	t := &Trace{Name: string(name)}
	buf := make([]Instr, batchLen)
	pos := 0
	for uint64(t.n) < count {
		want := int(min(count-uint64(t.n), batchLen))
		var k int
		k, pos, t.lastIP = decodeBatch(buf[:want], recs, pos, t.lastIP)
		t.n += k
		if k < want {
			return nil, fmt.Errorf("%w: record %d of %d is cut short or overflows", ErrBadTrace, t.n, count)
		}
	}
	if pos != len(recs) {
		return nil, fmt.Errorf("%w: %d bytes after record %d", ErrBadTrace, len(recs)-pos, count)
	}
	t.recs = recs
	return t, nil
}
