package workload

import (
	"math/rand"

	"secpref/internal/mem"
	"secpref/internal/trace"
)

// SPEC CPU2017-like generators. Each named trace below maps to one of
// four pattern families with per-trace parameters chosen to reproduce
// the qualitative behaviour the paper reports for that trace:
//
//   - stream:  sub-line-stride multi-array streaming (bwaves, lbm):
//     several accesses share each line, so the line-miss stream is a
//     fraction of the access stream, as element-wise FP loops produce.
//     Highly prefetchable; bwaves variants use very large working sets
//     so fetch latency is DRAM-dominated (the property behind TSB's
//     24.9% win on 603.bwaves-2931B) without saturating the channel.
//   - stencil: multi-array constant-stride loops with element-level
//     spatial locality (cactuBSSN, roms, wrf, pop2, fotonik3d).
//   - chase:   dependent pointer chasing over large node pools with
//     side loads (mcf, omnetpp, xalancbmk). High MPKI, serialized
//     misses; mcf-1554B is the paper's pathological contention case.
//   - mixed:   hot-set dominated integer code with moderate misses and
//     data-dependent branches (gcc, perlbench, leela, xz).
//
// Working sets are deliberately diverse: roughly a third of the traces
// are L2/LLC-resident (their speculative loads are served by the cache
// hierarchy, giving SUF hit levels below DRAM to act on), the rest are
// DRAM-bound — the footprint mix real SPEC exhibits.

// depLoad emits a load whose address depends on the preceding load.
func (e *emitter) depLoad(ip, addr mem.Addr) {
	e.t.Append(trace.Instr{IP: ip, Load: addr, Dep: true})
}

// streamCfg parameterizes the stream family.
type streamCfg struct {
	arrays  int // parallel streams
	strideB int // bytes between consecutive accesses of one stream
	wsMiB   int // working set per stream, MiB
	compute int // ALU instrs between memory accesses
	storeEv int // emit a store every storeEv iterations (0 = never)
	inner   int // inner-loop trip count (branch predictability)
}

func genStream(name string, cfg streamCfg) func(Params) *trace.Trace {
	return func(p Params) *trace.Trace {
		e := newEmitter(name, p)
		bases := make([]mem.Addr, cfg.arrays)
		offs := make([]mem.Addr, cfg.arrays)
		for i := range bases {
			bases[i] = region(i)
			// Start streams at distinct offsets so they do not march in
			// lockstep through the same sets.
			offs[i] = mem.Addr(e.rng.Intn(4096)) * mem.Addr(cfg.strideB)
		}
		ws := mem.Addr(cfg.wsMiB) << 20
		loadIPs := make([]mem.Addr, cfg.arrays)
		for i := range loadIPs {
			loadIPs[i] = e.ip()
		}
		storeIP := e.ip()
		execIP := e.ip()
		brInner := e.ip()
		brOuter := e.ip()
		iter := 0
		for !e.full() {
			for i := 0; i < cfg.arrays && !e.full(); i++ {
				e.load(loadIPs[i], bases[i]+offs[i]%ws)
				offs[i] += mem.Addr(cfg.strideB)
				e.exec(execIP, cfg.compute)
			}
			if cfg.storeEv > 0 && iter%cfg.storeEv == 0 {
				e.store(storeIP, bases[0]+offs[0]%ws)
			}
			iter++
			// Inner-loop back edge: taken except at iteration boundary.
			e.branch(brInner, iter%cfg.inner != 0)
			if iter%cfg.inner == 0 {
				e.branch(brOuter, true)
			}
		}
		return e.done()
	}
}

// stencilCfg parameterizes the stencil family.
type stencilCfg struct {
	arrays  int // read arrays
	elemB   int // element size in bytes (spatial locality within line)
	wsMiB   int
	compute int
	inner   int
	skew    int // extra element offset between arrays (stencil halo)
}

func genStencil(name string, cfg stencilCfg) func(Params) *trace.Trace {
	return func(p Params) *trace.Trace {
		e := newEmitter(name, p)
		ws := mem.Addr(cfg.wsMiB) << 20
		loadIPs := make([]mem.Addr, cfg.arrays)
		for i := range loadIPs {
			loadIPs[i] = e.ip()
		}
		storeIP := e.ip()
		execIP := e.ip()
		brIP := e.ip()
		idx := mem.Addr(0)
		iter := 0
		for !e.full() {
			for a := 0; a < cfg.arrays && !e.full(); a++ {
				addr := region(a) + (idx+mem.Addr(a*cfg.skew*cfg.elemB))%ws
				e.load(loadIPs[a], addr)
				e.exec(execIP, cfg.compute)
			}
			e.store(storeIP, region(cfg.arrays)+idx%ws)
			idx += mem.Addr(cfg.elemB)
			iter++
			e.branch(brIP, iter%cfg.inner != 0)
		}
		return e.done()
	}
}

// chaseCfg parameterizes the pointer-chase family.
type chaseCfg struct {
	wsMiB    int // node pool size
	chains   int // independent chase chains (memory-level parallelism)
	sideLds  int // dependent field loads per node
	strided  int // prefetchable strided loads interleaved per node (allocator locality)
	compute  int
	condRate float64 // probability of a data-dependent (random) branch outcome
	inner    int
}

func genChase(name string, cfg chaseCfg) func(Params) *trace.Trace {
	return func(p Params) *trace.Trace {
		e := newEmitter(name, p)
		const nodeB = 64 // one node per line: worst case for spatial locality
		nodes := (cfg.wsMiB << 20) / nodeB
		// Per-chain independent random walks. We synthesize the walk with
		// the RNG directly rather than materializing a permutation so
		// multi-hundred-MiB pools cost no host memory.
		walk := make([]*rand.Rand, cfg.chains)
		cur := make([]int, cfg.chains)
		for c := range walk {
			walk[c] = rand.New(rand.NewSource(p.Seed + int64(c)*7919))
			cur[c] = walk[c].Intn(nodes)
		}
		chaseIPs := make([]mem.Addr, cfg.chains)
		for i := range chaseIPs {
			chaseIPs[i] = e.ip()
		}
		fieldIP := e.ip()
		strideIP := e.ip()
		execIP := e.ip()
		brData := e.ip()
		brLoop := e.ip()
		strideOff := mem.Addr(0)
		iter := 0
		for !e.full() {
			for c := 0; c < cfg.chains && !e.full(); c++ {
				nodeAddr := region(1) + mem.Addr(cur[c]*nodeB)
				e.depLoad(chaseIPs[c], nodeAddr)
				for f := 0; f < cfg.sideLds; f++ {
					e.depLoad(fieldIP+mem.Addr(f*4), nodeAddr+mem.Addr(8+8*f))
				}
				cur[c] = walk[c].Intn(nodes)
				e.exec(execIP, cfg.compute)
			}
			for s := 0; s < cfg.strided; s++ {
				e.load(strideIP+mem.Addr(s*4), region(0)+strideOff%(8<<20))
				strideOff += 8
			}
			if cfg.condRate > 0 {
				e.branch(brData, e.rng.Float64() < cfg.condRate)
			}
			iter++
			e.branch(brLoop, iter%cfg.inner != 0)
		}
		return e.done()
	}
}

// mixedCfg parameterizes the mixed integer family.
type mixedCfg struct {
	hotKiB   int     // hot working set (mostly cache resident)
	coldMiB  int     // cold region for occasional far misses
	coldFrac float64 // fraction of loads to the cold region
	strideFr float64 // fraction of loads that are strided
	compute  int
	condRate float64
	inner    int
}

func genMixed(name string, cfg mixedCfg) func(Params) *trace.Trace {
	return func(p Params) *trace.Trace {
		e := newEmitter(name, p)
		hot := mem.Addr(cfg.hotKiB) << 10
		cold := mem.Addr(cfg.coldMiB) << 20
		ldHot := e.ip()
		ldCold := e.ip()
		ldStride := e.ip()
		stIP := e.ip()
		execIP := e.ip()
		brData := e.ip()
		brLoop := e.ip()
		strideOff := mem.Addr(0)
		iter := 0
		for !e.full() {
			r := e.rng.Float64()
			switch {
			case r < cfg.coldFrac:
				e.load(ldCold, region(2)+mem.Addr(e.rng.Int63n(int64(cold))))
			case r < cfg.coldFrac+cfg.strideFr:
				e.load(ldStride, region(1)+strideOff%(4<<20))
				strideOff += 8
			default:
				e.load(ldHot, region(0)+mem.Addr(e.rng.Int63n(int64(hot))))
			}
			e.exec(execIP, cfg.compute)
			if iter%8 == 0 {
				e.store(stIP, region(0)+mem.Addr(e.rng.Int63n(int64(hot))))
			}
			e.branch(brData, e.rng.Float64() < cfg.condRate)
			iter++
			e.branch(brLoop, iter%cfg.inner != 0)
		}
		return e.done()
	}
}

// specTraces lists the 45 memory-intensive SPEC CPU2017 traces from the
// paper's Fig. 12(a) with family parameters tuned to each benchmark's
// published character.
func init() {
	reg := func(name string, gen func(Params) *trace.Trace) {
		register(Generator{Name: name, Suite: "spec", Gen: gen})
	}

	// perlbench / gcc / leela / xz: mixed integer.
	reg("600.perlb-570B", genMixed("600.perlb-570B", mixedCfg{hotKiB: 256, coldMiB: 16, coldFrac: 0.02, strideFr: 0.3, compute: 4, condRate: 0.12, inner: 24}))
	reg("602.gcc-1850B", genMixed("602.gcc-1850B", mixedCfg{hotKiB: 512, coldMiB: 48, coldFrac: 0.06, strideFr: 0.35, compute: 3, condRate: 0.15, inner: 16}))
	reg("602.gcc-2226B", genMixed("602.gcc-2226B", mixedCfg{hotKiB: 384, coldMiB: 64, coldFrac: 0.08, strideFr: 0.3, compute: 3, condRate: 0.18, inner: 12}))
	reg("602.gcc-734B", genMixed("602.gcc-734B", mixedCfg{hotKiB: 768, coldMiB: 32, coldFrac: 0.05, strideFr: 0.4, compute: 3, condRate: 0.1, inner: 20}))
	reg("641.leela-1083B", genMixed("641.leela-1083B", mixedCfg{hotKiB: 192, coldMiB: 8, coldFrac: 0.015, strideFr: 0.2, compute: 6, condRate: 0.2, inner: 10}))
	reg("657.xz-2302B", genMixed("657.xz-2302B", mixedCfg{hotKiB: 1024, coldMiB: 64, coldFrac: 0.07, strideFr: 0.45, compute: 3, condRate: 0.08, inner: 32}))
	reg("628.pop2-17B", genMixed("628.pop2-17B", mixedCfg{hotKiB: 512, coldMiB: 40, coldFrac: 0.05, strideFr: 0.5, compute: 4, condRate: 0.05, inner: 40}))

	// bwaves: large-stride streams over huge working sets (DRAM-bound
	// fetch latency — the TSB showcase).
	reg("603.bwa-1740B", genStream("603.bwa-1740B", streamCfg{arrays: 5, strideB: 24, wsMiB: 96, compute: 3, storeEv: 4, inner: 64}))
	reg("603.bwa-2609B", genStream("603.bwa-2609B", streamCfg{arrays: 6, strideB: 32, wsMiB: 128, compute: 3, storeEv: 4, inner: 64}))
	reg("603.bwa-2931B", genStream("603.bwa-2931B", streamCfg{arrays: 8, strideB: 40, wsMiB: 192, compute: 2, storeEv: 3, inner: 48}))
	reg("603.bwa-891B", genStream("603.bwa-891B", streamCfg{arrays: 4, strideB: 16, wsMiB: 7, compute: 4, storeEv: 5, inner: 80}))

	// lbm: streaming with heavy stores.
	reg("619.lbm-2676B", genStream("619.lbm-2676B", streamCfg{arrays: 6, strideB: 24, wsMiB: 56, compute: 2, storeEv: 1, inner: 100}))
	reg("619.lbm-2677B", genStream("619.lbm-2677B", streamCfg{arrays: 6, strideB: 24, wsMiB: 64, compute: 2, storeEv: 1, inner: 100}))
	reg("619.lbm-3766B", genStream("619.lbm-3766B", streamCfg{arrays: 7, strideB: 32, wsMiB: 72, compute: 2, storeEv: 1, inner: 100}))
	reg("619.lbm-4268B", genStream("619.lbm-4268B", streamCfg{arrays: 5, strideB: 24, wsMiB: 5, compute: 2, storeEv: 1, inner: 100}))

	// cactuBSSN / wrf / fotonik3d / roms: stencils.
	reg("607.cactu-2421B", genStencil("607.cactu-2421B", stencilCfg{arrays: 6, elemB: 8, wsMiB: 48, compute: 4, inner: 50, skew: 17}))
	reg("607.cactu-3477B", genStencil("607.cactu-3477B", stencilCfg{arrays: 7, elemB: 8, wsMiB: 64, compute: 4, inner: 50, skew: 23}))
	reg("607.cactu-4004B", genStencil("607.cactu-4004B", stencilCfg{arrays: 5, elemB: 8, wsMiB: 5, compute: 5, inner: 50, skew: 11}))
	reg("621.wrf-6673B", genStencil("621.wrf-6673B", stencilCfg{arrays: 4, elemB: 4, wsMiB: 3, compute: 5, inner: 60, skew: 9}))
	reg("621.wrf-8065B", genStencil("621.wrf-8065B", stencilCfg{arrays: 5, elemB: 4, wsMiB: 6, compute: 5, inner: 60, skew: 13}))
	reg("649.foton-10881B", genStencil("649.foton-10881B", stencilCfg{arrays: 4, elemB: 8, wsMiB: 56, compute: 3, inner: 72, skew: 33}))
	reg("649.foton-1176B", genStencil("649.foton-1176B", stencilCfg{arrays: 4, elemB: 8, wsMiB: 4, compute: 3, inner: 72, skew: 29}))
	reg("649.foton-7084B", genStencil("649.foton-7084B", stencilCfg{arrays: 5, elemB: 8, wsMiB: 8, compute: 3, inner: 72, skew: 41}))
	reg("649.foton-8225B", genStencil("649.foton-8225B", stencilCfg{arrays: 5, elemB: 8, wsMiB: 56, compute: 3, inner: 72, skew: 37}))
	reg("654.roms-1007B", genStencil("654.roms-1007B", stencilCfg{arrays: 5, elemB: 8, wsMiB: 48, compute: 4, inner: 64, skew: 15}))
	reg("654.roms-1070B", genStencil("654.roms-1070B", stencilCfg{arrays: 6, elemB: 8, wsMiB: 56, compute: 4, inner: 64, skew: 19}))
	reg("654.roms-1390B", genStencil("654.roms-1390B", stencilCfg{arrays: 5, elemB: 8, wsMiB: 40, compute: 4, inner: 64, skew: 21}))
	reg("654.roms-1613B", genStencil("654.roms-1613B", stencilCfg{arrays: 4, elemB: 8, wsMiB: 2, compute: 5, inner: 64, skew: 25}))
	reg("654.roms-293B", genStencil("654.roms-293B", stencilCfg{arrays: 6, elemB: 8, wsMiB: 64, compute: 3, inner: 64, skew: 27}))
	reg("654.roms-294B", genStencil("654.roms-294B", stencilCfg{arrays: 6, elemB: 8, wsMiB: 64, compute: 3, inner: 64, skew: 31}))
	reg("654.roms-523B", genStencil("654.roms-523B", stencilCfg{arrays: 5, elemB: 8, wsMiB: 6, compute: 4, inner: 64, skew: 35}))

	// mcf: pointer chasing, the contention-pathology family. 1554B is
	// the paper's Fig. 5 case study: deepest pool, most side loads.
	reg("605.mcf-1152B", genChase("605.mcf-1152B", chaseCfg{wsMiB: 96, chains: 2, sideLds: 2, strided: 2, compute: 3, condRate: 0.25, inner: 12}))
	reg("605.mcf-1536B", genChase("605.mcf-1536B", chaseCfg{wsMiB: 128, chains: 2, sideLds: 2, strided: 2, compute: 3, condRate: 0.25, inner: 12}))
	reg("605.mcf-1554B", genChase("605.mcf-1554B", chaseCfg{wsMiB: 160, chains: 3, sideLds: 3, strided: 4, compute: 2, condRate: 0.3, inner: 10}))
	reg("605.mcf-1644B", genChase("605.mcf-1644B", chaseCfg{wsMiB: 112, chains: 2, sideLds: 2, strided: 3, compute: 3, condRate: 0.25, inner: 12}))
	reg("605.mcf-472B", genChase("605.mcf-472B", chaseCfg{wsMiB: 80, chains: 2, sideLds: 1, strided: 2, compute: 3, condRate: 0.2, inner: 14}))
	reg("605.mcf-484B", genChase("605.mcf-484B", chaseCfg{wsMiB: 88, chains: 2, sideLds: 1, strided: 2, compute: 3, condRate: 0.2, inner: 14}))
	reg("605.mcf-665B", genChase("605.mcf-665B", chaseCfg{wsMiB: 96, chains: 2, sideLds: 2, strided: 3, compute: 3, condRate: 0.22, inner: 12}))
	reg("605.mcf-782B", genChase("605.mcf-782B", chaseCfg{wsMiB: 104, chains: 2, sideLds: 2, strided: 3, compute: 3, condRate: 0.22, inner: 12}))
	reg("605.mcf-994B", genChase("605.mcf-994B", chaseCfg{wsMiB: 120, chains: 2, sideLds: 2, strided: 2, compute: 3, condRate: 0.25, inner: 12}))

	// omnetpp / xalancbmk: irregular pointer code, smaller pools, more
	// allocator (strided) locality than mcf.
	reg("620.omnet-141B", genChase("620.omnet-141B", chaseCfg{wsMiB: 6, chains: 1, sideLds: 2, strided: 5, compute: 4, condRate: 0.15, inner: 16}))
	reg("620.omnet-874B", genChase("620.omnet-874B", chaseCfg{wsMiB: 56, chains: 1, sideLds: 2, strided: 5, compute: 4, condRate: 0.15, inner: 16}))
	reg("623.xalan-10B", genChase("623.xalan-10B", chaseCfg{wsMiB: 2, chains: 1, sideLds: 1, strided: 7, compute: 4, condRate: 0.1, inner: 20}))
	reg("623.xalan-165B", genChase("623.xalan-165B", chaseCfg{wsMiB: 4, chains: 1, sideLds: 1, strided: 7, compute: 4, condRate: 0.1, inner: 20}))
	reg("623.xalan-202B", genChase("623.xalan-202B", chaseCfg{wsMiB: 36, chains: 1, sideLds: 1, strided: 6, compute: 4, condRate: 0.12, inner: 20}))
}
