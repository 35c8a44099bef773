package multicore_test

import (
	"testing"

	"secpref/internal/multicore"
	"secpref/internal/observatory"
)

// TestReferenceEngineProfile checks that the lockstep reference engine
// feeds an attached profile: every rank ticks every cycle it steps, so
// each private rank records one tick per core per cycle and each shared
// rank one tick per cycle.
func TestReferenceEngineProfile(t *testing.T) {
	cfg := detConfig()
	prof := observatory.NewProfile()
	e, err := multicore.NewEngine(cfg, detMix(t), multicore.Probes{ReferenceEngine: true, Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	steps := uint64(e.Now())
	if steps == 0 {
		t.Fatal("reference engine stepped no cycles")
	}
	want := map[string]uint64{
		"core": uint64(cfg.Cores) * steps, "gm": uint64(cfg.Cores) * steps,
		"l1d": uint64(cfg.Cores) * steps, "l2": uint64(cfg.Cores) * steps,
		"link": uint64(cfg.Cores) * steps, "llc": steps, "dram": steps,
	}
	for _, r := range prof.Ranks {
		if r.Ticks != want[r.Name] || r.Integrated != 0 {
			t.Errorf("rank %s: %d ticks, %d integrated; want %d ticks, 0 integrated", r.Name, r.Ticks, r.Integrated, want[r.Name])
		}
	}
	if len(prof.Ranks) != len(want) {
		t.Errorf("profile has %d ranks, want %d", len(prof.Ranks), len(want))
	}
}
