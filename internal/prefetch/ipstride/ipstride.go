// Package ipstride implements the classic IP-stride data prefetcher
// used by Intel and AMD L1D caches (Table III: 1024 entries, 8 KB): a
// per-IP table tracking the last accessed line and the observed stride
// with a saturating confidence counter. Once the stride is confirmed,
// it prefetches degree lines ahead, starting distance strides beyond
// the current access — the distance is the knob the paper's
// timely-secure variant (TS-stride) adapts to prefetch lateness.
package ipstride

import (
	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

const (
	tableSize = 1024
	degree    = 3
	confMax   = 3
	confThres = 2

	baseDistance = 1
	maxDistance  = 8
)

// The unsigned % (or mask) indexing over this table is a shift-and-
// mask only while the size stays a power of two; this compile-time
// assert (negative array length otherwise) pins that.
type _ [1 - 2*(tableSize&(tableSize-1))]byte

type entry struct {
	tag    uint32
	last   mem.Line
	stride int64
	conf   int8
	valid  bool
}

// Prefetcher is the IP-stride engine.
type Prefetcher struct {
	table [tableSize]entry
	issue prefetch.Issuer
	// Distance is the stride multiple the first prefetch reaches.
	Distance prefetch.Distance
}

// New builds an IP-stride prefetcher.
func New(issue prefetch.Issuer) *Prefetcher {
	return &Prefetcher{issue: issue, Distance: prefetch.NewDistance(baseDistance, maxDistance, prefetch.DefaultLateness)}
}

// StorageBytes implements prefetch.Prefetcher (Table III: 8 KB).
func (p *Prefetcher) StorageBytes() int { return 8 * 1024 }

func slotOf(ip mem.Addr) (int, uint32) {
	h := uint64(ip) >> 2
	h *= 0x9e3779b97f4a7c15
	return int(h % tableSize), uint32(h >> 40)
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) {
	idx, tag := slotOf(ev.IP)
	e := &p.table[idx]
	if !e.valid || e.tag != tag {
		*e = entry{tag: tag, last: ev.Line, valid: true}
		return
	}
	delta := int64(ev.Line) - int64(e.last)
	if delta == 0 {
		return
	}
	if delta == e.stride {
		if e.conf < confMax {
			e.conf++
		}
	} else {
		if e.conf > 0 {
			e.conf--
		} else {
			e.stride = delta
		}
	}
	e.last = ev.Line
	if e.conf >= confThres && e.stride != 0 {
		for d := 0; d < degree; d++ {
			target := mem.Line(int64(ev.Line) + e.stride*int64(p.Distance.Cur+d))
			p.issue(target, ev.IP, mem.LvlL1D)
		}
	}
}
