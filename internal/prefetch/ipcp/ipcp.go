// Package ipcp implements IPCP — the "Bouquet of Instruction Pointers"
// classifier-based spatial prefetcher (Pakalapati & Panda, ISCA 2020;
// winner of DPC-3), configured per the paper's Table III: a 128-entry
// IP table, an 8-entry region stream table (RST), and a 128-entry
// complex-stride pattern table (CSPT), ~0.87 KB total.
//
// Each load IP is classified into one of three classes and prefetched
// with a class-specific engine:
//
//   - CS (constant stride): saturating per-IP stride confidence.
//   - CPLX (complex stride): a signature of recent strides indexes the
//     CSPT, which predicts the next stride; issuing walks the
//     signature chain.
//   - GS (global stream): dense regions detected by the RST trigger
//     aggressive sequential prefetching in the stream direction.
package ipcp

import (
	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

const (
	ipTableSize = 128
	csptSize    = 128
	rstSize     = 8

	regionLines = 32 // 2 KB regions

	csDegree   = 4
	cplxDegree = 3
	gsDegree   = 6

	confMax = 3

	baseDistance = 1
	maxDistance  = 6
)

// The unsigned % (or mask) indexing over this table is a shift-and-
// mask only while the size stays a power of two; this compile-time
// assert (negative array length otherwise) pins that.
type _ [1 - 2*(ipTableSize&(ipTableSize-1))]byte

type class uint8

const (
	classNone class = iota
	classCS
	classCPLX
	classGS
)

type ipEntry struct {
	valid  bool
	tag    uint16
	last   mem.Line
	stride int32
	conf   int8
	sig    uint8 // compressed recent-stride signature (CPLX)
	cls    class
}

type csptEntry struct {
	stride int32
	conf   int8
}

type rstEntry struct {
	valid  bool
	region mem.Line // region id (line >> 5)
	bitmap uint32
	dir    int8 // +1 ascending, -1 descending
	last   mem.Line
	dense  bool
	lru    uint32
}

// Prefetcher is the IPCP engine.
type Prefetcher struct {
	ips      [ipTableSize]ipEntry
	cspt     [csptSize]csptEntry
	rst      [rstSize]rstEntry
	rstClock uint32
	issue    prefetch.Issuer
	// Distance scales how far ahead each class's engine reaches.
	Distance prefetch.Distance
}

// New builds an IPCP prefetcher.
func New(issue prefetch.Issuer) *Prefetcher {
	return &Prefetcher{issue: issue, Distance: prefetch.NewDistance(baseDistance, maxDistance, prefetch.DefaultLateness)}
}

// StorageBytes implements prefetch.Prefetcher (Table III: 0.87 KB).
func (p *Prefetcher) StorageBytes() int { return 891 }

func ipSlot(ip mem.Addr) (int, uint16) {
	h := uint64(ip) >> 2
	h *= 0xff51afd7ed558ccd
	return int(h % ipTableSize), uint16(h >> 48)
}

func sigUpdate(sig uint8, stride int32) uint8 {
	return (sig<<2 ^ uint8(stride)) & (csptSize - 1)
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) {
	p.trainRST(ev.Line)

	idx, tag := ipSlot(ev.IP)
	e := &p.ips[idx]
	if !e.valid || e.tag != tag {
		*e = ipEntry{valid: true, tag: tag, last: ev.Line}
		return
	}
	delta := int32(int64(ev.Line) - int64(e.last))
	if delta == 0 {
		return
	}

	// CS learning.
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

	// CPLX learning: the previous signature predicted this delta.
	ce := &p.cspt[e.sig]
	if ce.stride == delta {
		if ce.conf < confMax {
			ce.conf++
		}
	} else {
		if ce.conf > 0 {
			ce.conf--
		} else {
			ce.stride = delta
		}
	}
	prevSig := e.sig
	e.sig = sigUpdate(e.sig, delta)
	e.last = ev.Line

	// Classification priority (per IPCP): GS > CS > CPLX.
	switch {
	case p.inDenseRegion(ev.Line):
		e.cls = classGS
	case e.conf >= 2:
		e.cls = classCS
	case p.cspt[prevSig].conf >= 2:
		e.cls = classCPLX
	default:
		e.cls = classNone
	}

	p.issueFor(e, ev)
}

func (p *Prefetcher) issueFor(e *ipEntry, ev prefetch.Event) {
	switch e.cls {
	case classCS:
		fill := mem.LvlL1D
		if e.conf < confMax {
			fill = mem.LvlL2
		}
		for d := 0; d < csDegree; d++ {
			t := mem.Line(int64(ev.Line) + int64(e.stride)*int64(p.Distance.Cur+d))
			p.issue(t, ev.IP, fill)
		}
	case classCPLX:
		sig := e.sig
		cur := int64(ev.Line)
		for d := 0; d < cplxDegree*p.Distance.Cur; d++ {
			ce := p.cspt[sig]
			if ce.conf < 2 || ce.stride == 0 {
				break
			}
			cur += int64(ce.stride)
			p.issue(mem.Line(cur), ev.IP, mem.LvlL2)
			sig = sigUpdate(sig, ce.stride)
		}
	case classGS:
		dir := p.streamDir(ev.Line)
		for d := 1; d <= gsDegree; d++ {
			t := mem.Line(int64(ev.Line) + int64(dir)*int64(p.Distance.Cur-1+d))
			p.issue(t, ev.IP, mem.LvlL1D)
		}
	}
}

// trainRST updates region density tracking.
func (p *Prefetcher) trainRST(line mem.Line) {
	region := line >> 5
	bit := uint32(1) << (uint64(line) & (regionLines - 1))
	p.rstClock++
	var slot *rstEntry
	for i := range p.rst {
		if p.rst[i].valid && p.rst[i].region == region {
			slot = &p.rst[i]
			break
		}
	}
	if slot == nil {
		// Allocate LRU.
		slot = &p.rst[0]
		for i := range p.rst {
			if !p.rst[i].valid {
				slot = &p.rst[i]
				break
			}
			if p.rst[i].lru < slot.lru {
				slot = &p.rst[i]
			}
		}
		*slot = rstEntry{valid: true, region: region, last: line}
	}
	if line > slot.last {
		slot.dir = 1
	} else if line < slot.last {
		slot.dir = -1
	}
	slot.last = line
	slot.bitmap |= bit
	slot.lru = p.rstClock
	// Dense when 3/4 of the region has been touched.
	if popcount(slot.bitmap) >= regionLines*3/4 {
		slot.dense = true
	}
}

func (p *Prefetcher) inDenseRegion(line mem.Line) bool {
	region := line >> 5
	for i := range p.rst {
		if p.rst[i].valid && p.rst[i].region == region {
			return p.rst[i].dense
		}
	}
	return false
}

func (p *Prefetcher) streamDir(line mem.Line) int8 {
	region := line >> 5
	for i := range p.rst {
		if p.rst[i].valid && p.rst[i].region == region && p.rst[i].dir != 0 {
			return p.rst[i].dir
		}
	}
	return 1
}

func popcount(x uint32) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
