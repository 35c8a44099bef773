// Package bingo implements the Bingo spatial data prefetcher
// (Bakhshalipour et al., HPCA 2019), configured per the paper's
// Table III: 2 KB regions, a 64-entry filter table, a 128-entry
// accumulation table, and a 16K-entry pattern history table (~124 KB).
// Bingo is an L2 prefetcher.
//
// Bingo's key idea is association of spatial footprints with "long"
// events looked up hierarchically: the PHT is probed first with
// PC+Address of the region trigger access and, failing that, with
// PC+Offset. Footprints are recorded in first-touch (temporal) order,
// which also supports the paper's TS-Bingo variant: Tempo-style
// temporal ordering lets the distance knob rotate issue order so
// further-in-the-future lines are fetched first when prefetches run
// late (§V-D).
package bingo

import (
	"secpref/internal/mem"
	"secpref/internal/prefetch"
)

const (
	regionLines = 32 // 2 KB regions
	ftSize      = 64
	atSize      = 128
	phtSize     = 16384

	baseDistance = 1
	maxDistance  = 8
)

// The unsigned % (or mask) indexing over this table is a shift-and-
// mask only while the size stays a power of two; this compile-time
// assert (negative array length otherwise) pins that.
type _ [1 - 2*(phtSize&(phtSize-1))]byte

// regionOf maps a line to its region id; offsetOf to the line's slot.
func regionOf(l mem.Line) uint64 { return uint64(l) / regionLines }
func offsetOf(l mem.Line) uint8  { return uint8(uint64(l) % regionLines) }

type ftEntry struct {
	valid   bool
	region  uint64
	trigIP  mem.Addr
	trigOff uint8
	lru     uint32
}

type atEntry struct {
	valid   bool
	region  uint64
	trigIP  mem.Addr
	trigOff uint8
	// order lists offsets in first-touch order (the footprint).
	order []uint8
	seen  uint32 // bitmap to dedupe
	lru   uint32
}

type phtEntry struct {
	valid bool
	tag   uint32
	order []uint8
}

// Prefetcher is the Bingo engine.
type Prefetcher struct {
	ft       [ftSize]ftEntry
	at       [atSize]atEntry
	pht      [phtSize]phtEntry
	clock    uint32
	issue    prefetch.Issuer
	distance int
}

func init() {
	prefetch.Register("bingo", func(issue prefetch.Issuer) prefetch.Prefetcher {
		return New(issue)
	})
}

// New builds a Bingo prefetcher.
func New(issue prefetch.Issuer) *Prefetcher {
	return &Prefetcher{issue: issue, distance: baseDistance}
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "bingo" }

// Home implements prefetch.Prefetcher: Bingo is an L2 prefetcher.
func (p *Prefetcher) Home() mem.Level { return mem.LvlL2 }

// StorageBytes implements prefetch.Prefetcher (Table III: 124 KB).
func (p *Prefetcher) StorageBytes() int { return 124 * 1024 }

// Distance implements prefetch.DistanceTunable.
func (p *Prefetcher) Distance() int { return p.distance }

// SetDistance implements prefetch.DistanceTunable.
func (p *Prefetcher) SetDistance(d int) {
	if d < baseDistance {
		d = baseDistance
	}
	if d > maxDistance {
		d = maxDistance
	}
	p.distance = d
}

// BaseDistance implements prefetch.DistanceTunable.
func (p *Prefetcher) BaseDistance() int { return baseDistance }

// MaxDistance implements prefetch.DistanceTunable.
func (p *Prefetcher) MaxDistance() int { return maxDistance }

// hashPCAddr builds the "PC+Address" long-event PHT index/tag.
func hashPCAddr(ip mem.Addr, region uint64, off uint8) (int, uint32) {
	h := (uint64(ip)>>2)*0x9e3779b97f4a7c15 ^ region*0xc2b2ae3d27d4eb4f ^ uint64(off)<<56
	h ^= h >> 31
	return int(h % phtSize), uint32(h>>33) | 1
}

// hashPCOff builds the "PC+Offset" short-event index/tag.
func hashPCOff(ip mem.Addr, off uint8) (int, uint32) {
	h := (uint64(ip)>>2)*0xff51afd7ed558ccd ^ uint64(off)*0x9e3779b97f4a7c15
	h ^= h >> 29
	return int(h % phtSize), uint32(h>>33) | 1
}

// Train implements prefetch.Prefetcher.
func (p *Prefetcher) Train(ev prefetch.Event) {
	p.clock++
	region := regionOf(ev.Line)
	off := offsetOf(ev.Line)

	// Already accumulating?
	if e := p.findAT(region); e != nil {
		if e.seen&(1<<off) == 0 {
			e.seen |= 1 << off
			e.order = append(e.order, off)
			// Write the growing footprint through to the PHT so
			// same-pattern regions triggered before this one is evicted
			// still benefit (region lifetimes routinely exceed the AT
			// residency the eviction-only policy assumes).
			p.store(e)
		}
		e.lru = p.clock
		return
	}
	// Second access to a filtered region promotes it to the AT.
	if f := p.findFT(region); f != nil {
		if f.trigOff != off {
			a := p.allocAT()
			*a = atEntry{
				valid: true, region: region,
				trigIP: f.trigIP, trigOff: f.trigOff,
				order: []uint8{f.trigOff, off},
				seen:  1<<f.trigOff | 1<<off,
				lru:   p.clock,
			}
			f.valid = false
		}
		return
	}
	// Trigger access: record in FT and predict from the PHT.
	f := p.allocFT()
	*f = ftEntry{valid: true, region: region, trigIP: ev.IP, trigOff: off, lru: p.clock}
	p.predict(ev.IP, region, off)
}

// predict looks up the PHT (PC+Address first, then PC+Offset) and
// issues the stored footprint, rotated by the distance knob so the
// temporally-later lines go out first when running late.
func (p *Prefetcher) predict(ip mem.Addr, region uint64, off uint8) {
	var order []uint8
	if i, tag := hashPCAddr(ip, region, off); p.pht[i].valid && p.pht[i].tag == tag {
		order = p.pht[i].order
	} else if i, tag := hashPCOff(ip, off); p.pht[i].valid && p.pht[i].tag == tag {
		order = p.pht[i].order
	}
	if len(order) == 0 {
		return
	}
	base := region * regionLines
	start := p.distance - 1
	if start >= len(order) {
		start = 0
	}
	for k := 0; k < len(order); k++ {
		o := order[(start+k)%len(order)]
		if o == off {
			continue
		}
		p.issue(mem.Line(base+uint64(o)), ip, mem.LvlL2)
	}
}

// store records a region's footprint under both event keys.
func (p *Prefetcher) store(e *atEntry) {
	if len(e.order) < 2 {
		return
	}
	order := append([]uint8(nil), e.order...)
	i, tag := hashPCAddr(e.trigIP, e.region, e.trigOff)
	p.pht[i] = phtEntry{valid: true, tag: tag, order: order}
	i, tag = hashPCOff(e.trigIP, e.trigOff)
	p.pht[i] = phtEntry{valid: true, tag: tag, order: order}
}

// evictAT stores a finished region's footprint and frees the entry.
func (p *Prefetcher) evictAT(e *atEntry) {
	p.store(e)
	e.valid = false
}

func (p *Prefetcher) findAT(region uint64) *atEntry {
	for i := range p.at {
		if p.at[i].valid && p.at[i].region == region {
			return &p.at[i]
		}
	}
	return nil
}

func (p *Prefetcher) findFT(region uint64) *ftEntry {
	for i := range p.ft {
		if p.ft[i].valid && p.ft[i].region == region {
			return &p.ft[i]
		}
	}
	return nil
}

func (p *Prefetcher) allocFT() *ftEntry {
	v := &p.ft[0]
	for i := range p.ft {
		if !p.ft[i].valid {
			return &p.ft[i]
		}
		if p.ft[i].lru < v.lru {
			v = &p.ft[i]
		}
	}
	return v
}

func (p *Prefetcher) allocAT() *atEntry {
	v := &p.at[0]
	for i := range p.at {
		if !p.at[i].valid {
			return &p.at[i]
		}
		if p.at[i].lru < v.lru {
			v = &p.at[i]
		}
	}
	p.evictAT(v)
	return v
}
