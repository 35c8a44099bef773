package sim

import (
	"testing"

	"secpref/internal/trace"
	"secpref/internal/workload"
)

func smokeTrace(t *testing.T, name string, n int) trace.Source {
	t.Helper()
	tr, err := workload.Get(name, workload.Params{Instrs: n, Seed: 1})
	if err != nil {
		t.Fatalf("workload.Get(%s): %v", name, err)
	}
	return trace.NewSource(tr)
}

func TestSmokeAllConfigs(t *testing.T) {
	traceN := 20_000
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"nonsecure-nopref", func(c *Config) {}},
		{"secure-nopref", func(c *Config) { c.Secure = true }},
		{"secure-suf-nopref", func(c *Config) { c.Secure = true; c.SUF = true }},
		{"nonsecure-berti", func(c *Config) { c.Prefetcher = "berti" }},
		{"secure-berti-onaccess", func(c *Config) { c.Secure = true; c.Prefetcher = "berti" }},
		{"secure-berti-oncommit", func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeOnCommit }},
		{"secure-tsb-suf", func(c *Config) {
			c.Secure = true
			c.SUF = true
			c.Prefetcher = "berti"
			c.Mode = ModeTimelySecure
		}},
		{"secure-berti-ts", func(c *Config) { c.Secure = true; c.Prefetcher = "berti"; c.Mode = ModeTimelySecure }},
		{"secure-ipstride-ts", func(c *Config) {
			c.Secure = true
			c.Prefetcher = "ip-stride"
			c.Mode = ModeTimelySecure
		}},
		{"secure-ipstride-oncommit", func(c *Config) { c.Secure = true; c.Prefetcher = "ip-stride"; c.Mode = ModeOnCommit }},
		{"secure-ipcp-oncommit-classify", func(c *Config) {
			c.Secure = true
			c.Prefetcher = "ipcp"
			c.Mode = ModeOnCommit
			c.Classify = true
		}},
		{"nonsecure-bingo", func(c *Config) { c.Prefetcher = "bingo" }},
		{"secure-bingo-oncommit", func(c *Config) { c.Secure = true; c.Prefetcher = "bingo"; c.Mode = ModeOnCommit }},
		{"secure-spp-oncommit", func(c *Config) { c.Secure = true; c.Prefetcher = "spp-ppf"; c.Mode = ModeOnCommit }},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.WarmupInstrs = 2000
			cfg.MaxInstrs = traceN
			tc.mut(&cfg)
			res, err := Run(cfg, smokeTrace(t, "605.mcf-1554B", traceN))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Instructions == 0 || res.Cycles == 0 {
				t.Fatalf("empty result: %+v", res)
			}
			if res.IPC <= 0 || res.IPC > 6 {
				t.Errorf("implausible IPC %.3f", res.IPC)
			}
			t.Logf("%s: IPC=%.3f cycles=%d L1D-miss-lat=%.1f", cfg.Label(), res.IPC, res.Cycles, res.LoadMissLatency())
		})
	}
}
