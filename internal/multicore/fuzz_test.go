package multicore_test

import (
	"encoding/binary"
	"fmt"
	"testing"

	"secpref/internal/mem"
	"secpref/internal/multicore"
	"secpref/internal/sim"
)

// mixDraw is one decoded multicore comparison input: a configuration,
// one trace (class, workload seed) per core, and the barrier interval
// and worker count of the parallel run under test.
type mixDraw struct {
	cfg    multicore.Config
	names  []string
	seeds  []int64
	probes multicore.Probes
}

// mixBytes is the input length decodeMix reads: a 29-byte header, then
// a trace class and a 16-bit workload seed for each of up to eight
// cores. Shorter inputs decode their missing bytes as zero.
const mixBytes = 29 + 3*8

// rare decodes the selector byte in[i] and the little-endian 16-bit
// direct value after it: selectors 248-255 take the direct value modulo
// n, so every value below n stays reachable; the rest pick def.
func rare(in []byte, i, n, def int) int {
	if in[i] >= 248 {
		return int(binary.LittleEndian.Uint16(in[i+1:])) % n
	}
	return def
}

// decodeMix is the one mix decoder of FuzzMulticoreConfig and
// TestEngineDifferential: it maps arbitrary bytes to a draw over the
// core count (2 or 4, or 0-8 directly), the link latency (default or
// 0-48), the LLC bank size (up to 4 MiB) and ways (up to 32), a barrier
// interval up to the link latency, the worker count (0-8), the drain
// seed, security, SUF, the prefetcher, the warmup and measured lengths,
// and each core's trace class and workload seed.
func decodeMix(data []byte) mixDraw {
	in := make([]byte, mixBytes)
	copy(in, data)
	u16 := func(i int) int { return int(binary.LittleEndian.Uint16(in[i:])) }
	classes := []string{"605.mcf-1554B", "603.bwa-2931B", "654.roms-1007B", "bfs-3B"}
	prefetchers := []string{"none", "berti", "bingo", "ip-stride", "ipcp", "spp-ppf"}

	d := mixDraw{cfg: multicore.DefaultConfig()}
	cfg, s := &d.cfg, &d.cfg.Single
	cfg.Cores = rare(in, 0, 9, 2<<(in[0]%2))
	cfg.LinkLatency = mem.Cycle(rare(in, 3, 49, 0))
	s.LLC.SizeKiB = rare(in, 6, 4097, s.LLC.SizeKiB)
	s.LLC.Ways = rare(in, 9, 33, s.LLC.Ways)
	bound := cfg.LinkLatency
	if bound == 0 {
		bound = sim.DefaultLinkLatency
	}
	d.probes.Interval = mem.Cycle(in[12]) % (bound + 1)
	d.probes.Workers = int(in[13] % 9)
	cfg.Seed = binary.LittleEndian.Uint64(in[14:])
	s.Secure = in[22]%2 == 1
	s.SUF = s.Secure && in[23]%2 == 1
	s.Prefetcher = prefetchers[int(in[24])%len(prefetchers)]
	if s.Secure {
		s.Mode = sim.ModeTimelySecure
	}
	s.WarmupInstrs = u16(25) % 800
	s.MaxInstrs = 1000 + u16(27)%1500
	for c := 0; c < cfg.Cores; c++ {
		d.names = append(d.names, classes[int(in[29+3*c])%len(classes)])
		d.seeds = append(d.seeds, 1+int64(u16(30+3*c)%1000))
	}
	return d
}

func (d mixDraw) String() string {
	return fmt.Sprintf("%v, seeds %v, link %d, LLC bank %d KiB/%d ways, interval %d, workers %d, drain seed %d, %s",
		d.names, d.seeds, d.cfg.LinkLatency, d.cfg.Single.LLC.SizeKiB, d.cfg.Single.LLC.Ways,
		d.probes.Interval, d.probes.Workers, d.cfg.Seed, d.cfg.Single.Label())
}

// compare runs the draw through the multicore engine comparison
// (multicore.CompareEngines): the lockstep reference against the
// barrier-parallel engine at the drawn interval and worker count. A
// draw that fails to build compares nothing and reports ok=false, as
// invalid input must; any other failure is an error.
func (d mixDraw) compare() (ok bool, err error) {
	mix := sources(d.names, d.seeds, d.cfg.Single.WarmupInstrs+d.cfg.Single.MaxInstrs)
	srcs, err := mix()
	if err != nil {
		return false, err
	}
	if _, err := multicore.NewEngine(d.cfg, srcs, d.probes); err != nil {
		return false, nil
	}
	return true, multicore.CompareEngines(d.cfg, mix, 512, d.probes)
}

// corpusEntry formats a fuzz input as a
// testdata/fuzz/FuzzMulticoreConfig file.
func corpusEntry(data []byte) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%q)", data)
}

// mixSeed encodes the secure TSB+SUF Berti system on the given core
// count (link latency and barrier interval at their defaults, drain
// seed 7, 200 warmup and 1000 measured instructions), core c running
// trace class c with workload seed 1.
func mixSeed(cores byte) []byte {
	data := make([]byte, mixBytes)
	data[0], data[1] = 248, cores
	data[14], data[22], data[23], data[24], data[25] = 7, 1, 1, 1, 200
	for c := 0; c < 8; c++ {
		data[29+3*c] = byte(c)
	}
	return data
}

// FuzzMulticoreConfig decodes arbitrary bytes into a mix (decodeMix).
// Every input either fails to build with an error or runs on the
// barrier-parallel engine bit-identically to the lockstep reference;
// none may panic.
func FuzzMulticoreConfig(f *testing.F) {
	// The paper's 4-core system, then the core counts whose shared LLC
	// used to panic: none, and 3, 5 or 6 banks (a set count that is not
	// a power of two).
	for _, cores := range []byte{4, 0, 3, 5, 6} {
		f.Add(mixSeed(cores))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := decodeMix(data)
		if _, err := d.compare(); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
	})
}
