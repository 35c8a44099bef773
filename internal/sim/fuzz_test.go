package sim

import (
	"errors"
	"fmt"
	"testing"

	"secpref/internal/cache"
	"secpref/internal/mem"
	"secpref/internal/trace"
	"secpref/internal/workload"
)

// configDraw is one decoded engine-comparison input: a configuration
// and one trace (class, workload seed) per hardware thread.
type configDraw struct {
	cfg    Config
	traces []string
	seeds  []int64
}

// sizeFields lists the sizes decodeConfig draws, sizeBytes input bytes
// each, in input order: the core's queues and widths, each cache's
// geometry, MSHRs, queues and per-cycle bandwidth, the GM, the DRAM
// channel and the TLB geometry.
func sizeFields(c *Config) []*int {
	f := []*int{
		&c.Core.ROBSize, &c.Core.LQSize, &c.Core.StoreBuffer,
		&c.Core.DispatchWidth, &c.Core.RetireWidth, &c.Core.IssueLoadsPerCycle,
	}
	for _, cc := range []*cache.Config{&c.L1D, &c.L2, &c.LLC} {
		f = append(f, &cc.SizeKiB, &cc.Ways, &cc.MSHRs, &cc.RQSize, &cc.WQSize, &cc.PQSize,
			&cc.MaxReads, &cc.MaxWrites, &cc.MaxFills)
	}
	return append(f,
		&c.GM.Lines, &c.GM.MSHRs, &c.GM.CommitQueue,
		&c.DRAM.Banks, &c.DRAM.RQSize, &c.DRAM.WQSize, &c.DRAM.RowBufKiB, &c.DRAM.MaxRequestsPerTick,
		&c.TLB.L1.Entries, &c.TLB.L1.Ways, &c.TLB.STLB.Entries, &c.TLB.STLB.Ways,
	)
}

// headerBytes is the length of decodeConfig's header: traces, seeds,
// SMT switch, lengths, prefetcher, mode and the system switches.
const headerBytes = 18

// sizeBytes is the input length of one size: a selector byte and a
// little-endian 16-bit direct value (decodeSize).
const sizeBytes = 3

// configBytes is the input length decodeConfig reads; shorter inputs
// decode their missing bytes as zero.
var configBytes = headerBytes + sizeBytes*len(sizeFields(&Config{}))

// decodeSize maps one size's selector and direct value to a size around
// its Table II default def. Selectors 0-247 pick def times 1, 2, 1/4 or
// 1/2 (at least 1), which keeps power-of-two set counts; selectors
// 248-255 take the direct value modulo 4096, so every size from 0 to
// 4095 stays reachable, among them every cache geometry below 4 MiB
// with up to 32 ways. Selector 0 is the default.
func decodeSize(sel byte, direct, def int) int {
	if sel >= 248 {
		return direct % 4096
	}
	return max(1, def<<((int(sel)+2)%4)>>2)
}

// decodeConfig is the one config decoder of FuzzConfig and
// TestEngineDifferential: it maps arbitrary bytes to a draw over trace
// class, workload seed, lengths, SMT, prefetcher, mode, security, SUF,
// classifier, TLB switch, replacement policy and every size in
// sizeFields.
func decodeConfig(data []byte) configDraw {
	in := make([]byte, configBytes)
	copy(in, data)
	u16 := func(i int) int { return int(in[i]) | int(in[i+1])<<8 }
	prefetchers := []string{"none", "berti", "bingo", "ip-stride", "ipcp", "spp-ppf"}

	d := configDraw{cfg: DefaultConfig()}
	d.traces = []string{shapeTraces[int(in[0])%len(shapeTraces)]}
	d.seeds = []int64{1 + int64(u16(1)%1000)}
	if in[3]%4 == 3 {
		d.traces = append(d.traces, shapeTraces[int(in[4])%len(shapeTraces)])
		d.seeds = append(d.seeds, 1+int64(u16(5)%1000))
	}
	cfg := &d.cfg
	cfg.WarmupInstrs = u16(7) % 1500
	cfg.MaxInstrs = 3000 + u16(9)%3000
	cfg.Prefetcher = prefetchers[int(in[11])%len(prefetchers)]
	cfg.Mode = Mode(in[12] % 3)
	cfg.Secure = in[13]%2 == 1
	cfg.SUF = in[14]%2 == 1
	cfg.Classify = in[15]%4 == 3
	cfg.DisableTLB = in[16]%4 == 3
	policy := cache.Policy(in[17] % 2)
	cfg.L1D.Policy, cfg.L2.Policy, cfg.LLC.Policy = policy, policy, policy
	for i, f := range sizeFields(cfg) {
		k := headerBytes + sizeBytes*i
		*f = decodeSize(in[k], u16(k+1), *f)
	}
	// Thread 0 of an SMT pair can starve thread 1 at the shared L1D on
	// both engines; a tight budget bounds those draws (the slowest
	// finishing ones run at a few tens of cycles per instruction).
	// Single-core draws keep the default budget.
	if len(d.traces) > 1 {
		cfg.MaxCycles = mem.Cycle(200 * (cfg.WarmupInstrs + cfg.MaxInstrs))
	}
	return d
}

// sources returns fresh sources of the draw's traces.
func (d configDraw) sources() ([]trace.Source, error) {
	out := make([]trace.Source, len(d.traces))
	for i, name := range d.traces {
		tr, err := workload.Get(name, workload.Params{Instrs: d.cfg.WarmupInstrs + d.cfg.MaxInstrs, Seed: d.seeds[i]})
		if err != nil {
			return nil, err
		}
		out[i] = trace.NewSource(tr)
	}
	return out, nil
}

// compare runs the draw through the engine comparison. Only an SMT
// draw whose reference run exhausts its cycle budget, a starved second
// thread, compares no engines and reports ok=false; any other failure,
// a wedge or a single-core draw that cannot finish included, is an
// error.
func (d configDraw) compare() (ok bool, err error) {
	err = CompareEngines(d.cfg, d.sources, 512)
	if len(d.traces) > 1 && errors.Is(err, ErrCycleBudget) {
		return false, nil
	}
	return true, err
}

// corpusEntry formats a fuzz input as a testdata/fuzz/FuzzConfig file.
func corpusEntry(data []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%q)", data)
}

// configSeed encodes the secure TSB+SUF Berti system on one mcf thread
// (100 warmup and 3000 measured instructions) with mut applied to its
// sizes.
func configSeed(mut func(*Config)) []byte {
	data := make([]byte, configBytes)
	data[7], data[11], data[12], data[13], data[14] = 100, 1, byte(ModeTimelySecure), 1, 1
	def, want := DefaultConfig(), DefaultConfig()
	mut(&want)
	wantSizes := sizeFields(&want)
	for i, f := range sizeFields(&def) {
		k, size := headerBytes+sizeBytes*i, *wantSizes[i]
		sel := byte(0)
		for sel < 4 && decodeSize(sel, 0, *f) != size {
			sel++
		}
		if sel == 4 {
			data[k], data[k+1], data[k+2] = 248, byte(size), byte(size>>8)
		} else {
			data[k] = sel
		}
		if decodeSize(data[k], int(data[k+1])|int(data[k+2])<<8, *f) != size {
			panic(fmt.Sprintf("configSeed: size %d cannot be encoded", size))
		}
	}
	return data
}

// invalidConfigs are configurations Validate must reject, as changes
// to the secure TSB+SUF Berti system (obsConfig): each one passed
// Validate once and then panicked or could not finish.
var invalidConfigs = []struct {
	name string
	mut  func(*Config)
}{
	{"no DRAM banks", func(c *Config) { c.DRAM.Banks = 0 }},
	{"zero-way L1D", func(c *Config) { c.L1D.Ways = 0 }},
	{"zero-way LLC", func(c *Config) { c.LLC.Ways = 0 }},
	{"no GhostMinion lines", func(c *Config) { c.GM.Lines = 0 }},
	{"L1D with 53 sets", func(c *Config) { c.L1D.SizeKiB = 40 }},
	{"zero DRAM WQ", func(c *Config) { c.DRAM.WQSize = 0 }},
	{"zero DRAM row buffer", func(c *Config) { c.DRAM.RowBufKiB = 0 }},
	{"zero-way dTLB", func(c *Config) { c.TLB.L1.Ways = 0 }},
	{"zero-way STLB", func(c *Config) { c.TLB.STLB.Ways = 0 }},
	{"no dTLB entries", func(c *Config) { c.TLB.L1.Entries = 0 }},
	{"one dTLB entry", func(c *Config) { c.TLB.L1.Entries = 1 }},
	{"STLB with 1536 sets", func(c *Config) { c.TLB.STLB.Ways = 1 }},
	{"zero ROB", func(c *Config) { c.Core.ROBSize = 0 }},
	{"zero LQ", func(c *Config) { c.Core.LQSize = 0 }},
	{"zero dispatch width", func(c *Config) { c.Core.DispatchWidth = 0 }},
	{"zero retire width", func(c *Config) { c.Core.RetireWidth = 0 }},
	{"zero loads per cycle", func(c *Config) { c.Core.IssueLoadsPerCycle = 0 }},
	{"no L1D MSHRs", func(c *Config) { c.L1D.MSHRs = 0 }},
	{"no L2 MSHRs", func(c *Config) { c.L2.MSHRs = 0 }},
	{"no LLC MSHRs", func(c *Config) { c.LLC.MSHRs = 0 }},
	{"zero L1D RQ", func(c *Config) { c.L1D.RQSize = 0 }},
	{"zero L2 RQ", func(c *Config) { c.L2.RQSize = 0 }},
	{"zero L1D WQ", func(c *Config) { c.L1D.WQSize = 0 }},
	{"zero L1D reads per cycle", func(c *Config) { c.L1D.MaxReads = 0 }},
	{"zero L1D fills per cycle", func(c *Config) { c.L1D.MaxFills = 0 }},
	{"zero L1D writes per cycle", func(c *Config) { c.L1D.MaxWrites = 0 }},
	{"no GhostMinion MSHRs", func(c *Config) { c.GM.MSHRs = 0 }},
	{"zero commit queue", func(c *Config) { c.GM.CommitQueue = 0 }},
	{"zero DRAM RQ", func(c *Config) { c.DRAM.RQSize = 0 }},
	{"zero DRAM requests per tick", func(c *Config) { c.DRAM.MaxRequestsPerTick = 0 }},
	{"zero store buffer", func(c *Config) { c.Core.StoreBuffer = 0 }},
	{"zero L2 WQ", func(c *Config) { c.L2.WQSize = 0 }},
	{"zero L2 PQ", func(c *Config) { c.L2.PQSize = 0 }},
	{"zero L2 reads per cycle", func(c *Config) { c.L2.MaxReads = 0 }},
	{"zero L2 writes per cycle", func(c *Config) { c.L2.MaxWrites = 0 }},
	{"zero L2 fills per cycle", func(c *Config) { c.L2.MaxFills = 0 }},
	{"zero LLC RQ", func(c *Config) { c.LLC.RQSize = 0 }},
	{"zero LLC WQ", func(c *Config) { c.LLC.WQSize = 0 }},
	{"zero LLC PQ", func(c *Config) { c.LLC.PQSize = 0 }},
	{"zero LLC reads per cycle", func(c *Config) { c.LLC.MaxReads = 0 }},
	{"zero LLC writes per cycle", func(c *Config) { c.LLC.MaxWrites = 0 }},
	{"zero LLC fills per cycle", func(c *Config) { c.LLC.MaxFills = 0 }},
}

// FuzzConfig decodes arbitrary bytes into a configuration
// (decodeConfig). Every input either fails Validate or runs to
// completion on both engines with bit-identical digest streams and
// results; none may panic.
func FuzzConfig(f *testing.F) {
	f.Add(configSeed(func(*Config) {}))
	for _, c := range invalidConfigs {
		f.Add(configSeed(c.mut))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeConfig(data)
		if d.cfg.Validate() != nil {
			return
		}
		if _, err := d.compare(); err != nil {
			t.Fatalf("%s: %v", d.cfg.Label(), err)
		}
	})
}
