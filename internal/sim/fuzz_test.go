package sim

import (
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

// FuzzConfig draws cache geometries, DRAM banks, GhostMinion size,
// prefetcher, mode and security from small ranges (caches up to 4 MiB,
// so memory stays bounded). Every input either fails Validate or runs
// to a result or an error; none may panic.
func FuzzConfig(f *testing.F) {
	// Table II defaults, then the configurations Validate used to pass
	// that panicked: no DRAM banks, a zero-way L1D or LLC, a secure
	// system without GhostMinion lines, and a 40 KiB L1D (53 sets).
	f.Add(uint16(48), uint16(512), uint16(2048), uint8(12), uint8(8), uint8(16), uint8(16), uint8(32), uint8(1), uint8(2), true, true)
	f.Add(uint16(48), uint16(512), uint16(2048), uint8(12), uint8(8), uint8(16), uint8(0), uint8(32), uint8(0), uint8(0), false, false)
	f.Add(uint16(48), uint16(512), uint16(2048), uint8(0), uint8(8), uint8(16), uint8(16), uint8(32), uint8(0), uint8(0), false, false)
	f.Add(uint16(48), uint16(512), uint16(2048), uint8(12), uint8(8), uint8(0), uint8(16), uint8(32), uint8(0), uint8(0), false, false)
	f.Add(uint16(48), uint16(512), uint16(2048), uint8(12), uint8(8), uint8(16), uint8(16), uint8(0), uint8(0), uint8(0), true, false)
	f.Add(uint16(40), uint16(512), uint16(2048), uint8(12), uint8(8), uint8(16), uint8(16), uint8(32), uint8(0), uint8(0), false, false)
	tr, err := workload.Get("605.mcf-1554B", workload.Params{Instrs: 500, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	prefetchers := []string{"none", "berti", "bingo", "ip-stride", "ipcp", "spp-ppf"}
	f.Fuzz(func(t *testing.T, l1dKiB, l2KiB, llcKiB uint16, l1dWays, l2Ways, llcWays, banks, gmLines, pf, mode uint8, secure, suf bool) {
		cfg := DefaultConfig()
		cfg.WarmupInstrs, cfg.MaxInstrs = 100, 400
		cfg.L1D.SizeKiB, cfg.L1D.Ways = int(l1dKiB%4096), int(l1dWays%33)
		cfg.L2.SizeKiB, cfg.L2.Ways = int(l2KiB%4096), int(l2Ways%33)
		cfg.LLC.SizeKiB, cfg.LLC.Ways = int(llcKiB%4096), int(llcWays%33)
		cfg.DRAM.Banks = int(banks % 65)
		cfg.GM.Lines = int(gmLines)
		cfg.Prefetcher = prefetchers[int(pf)%len(prefetchers)]
		cfg.Mode = Mode(mode % 3)
		cfg.Secure, cfg.SUF = secure, suf
		if cfg.Validate() != nil {
			return
		}
		_, _ = Run(cfg, trace.NewSource(tr))
	})
}
