package experiments

import (
	"fmt"

	"secpref/internal/mem"
	"secpref/internal/sim"
)

// Table1 reproduces Table I: the taxonomy of transient-execution
// mitigation techniques. It is reference data from the paper (the
// other mechanisms are not implemented here; GhostMinion — the one this
// repository builds on — is).
func Table1() *Table {
	t := &Table{
		ID:     "table1",
		Title:  "Mitigation techniques (paper Table I)",
		Header: []string{"technique", "classification", "secure", "storage", "slowdown"},
	}
	rows := [][]string{
		{"CleanupSpec", "undo-based", "no", "<1KB", "medium"},
		{"NDA", "delay-based", "yes", "~150B", "high"},
		{"STT", "delay-based", "yes", "~1.4KB", "medium"},
		{"NDA+Doppelganger", "delay-based", "yes", "~13.5KB", "medium"},
		{"DoM", "delay+invisible", "no", "~0.4KB", "high"},
		{"DoM+Doppelganger", "delay+invisible", "no", "~13.9KB", "high"},
		{"STT+Doppelganger", "delay-based", "yes", "~14.9KB", "low"},
		{"InvisiSpec", "invisible speculation", "no", "~9.5KB", "high"},
		{"MuonTrap", "invisible speculation", "no", "2KB", "low"},
		{"GhostMinion (implemented here)", "invisible speculation", "yes", "2KB", "low"},
	}
	t.Rows = rows
	t.Notes = append(t.Notes, "slowdown bins: low <5%, medium 5-10%, high >10% (paper's categorization)")
	return t
}

// Table2 reproduces Table II: the simulated baseline system parameters,
// read from the live default configuration so the table cannot drift
// from the code.
func Table2() *Table {
	cfg := sim.DefaultConfig()
	t := &Table{
		ID:     "table2",
		Title:  "Baseline system parameters (paper Table II)",
		Header: []string{"component", "configuration"},
	}
	t.AddRow("core", fmt.Sprintf("out-of-order, %d-entry ROB, %d-entry LQ, %d-dispatch, %d-retire, hashed perceptron",
		cfg.Core.ROBSize, cfg.Core.LQSize, cfg.Core.DispatchWidth, cfg.Core.RetireWidth))
	t.AddRow("L1D", fmt.Sprintf("%d KB, %d-way, %d cycles, %d MSHRs, LRU",
		cfg.L1D.SizeKiB, cfg.L1D.Ways, cfg.L1D.Latency, cfg.L1D.MSHRs))
	t.AddRow("L2", fmt.Sprintf("%d KB, %d-way, %d cycles, %d MSHRs, LRU, non-inclusive",
		cfg.L2.SizeKiB, cfg.L2.Ways, cfg.L2.Latency, cfg.L2.MSHRs))
	t.AddRow("LLC", fmt.Sprintf("%d KB/bank, %d-way, %d cycles, %d MSHRs, LRU, non-inclusive",
		cfg.LLC.SizeKiB, cfg.LLC.Ways, cfg.LLC.Latency, cfg.LLC.MSHRs))
	t.AddRow("DRAM", fmt.Sprintf("FR-FCFS, %d banks, %d KB row buffer, tRP=tRCD=tCAS=%d cycles, write watermark %d/%d",
		cfg.DRAM.Banks, cfg.DRAM.RowBufKiB, cfg.DRAM.TCAS, cfg.DRAM.WriteWatermarkNum, cfg.DRAM.WriteWatermarkDen))
	t.AddRow("GM", fmt.Sprintf("%d lines (2 KB), %d-cycle load-to-use, %d MSHRs",
		cfg.GM.Lines, cfg.GM.Latency, cfg.GM.MSHRs))
	return t
}

// Table3 reproduces Table III: the evaluated prefetcher configurations
// and storage budgets, read from the simulator's prefetcher table and
// the implementations.
func Table3() *Table {
	t := &Table{
		ID:     "table3",
		Title:  "Prefetcher configurations (paper Table III)",
		Header: []string{"prefetcher", "home", "storage", "configuration"},
	}
	desc := map[string]string{
		"ip-stride": "1024-entry IP table, stride+confidence",
		"ipcp":      "128-entry IP table, 8-entry RST, 128-entry CSPT; CS/CPLX/GS classes",
		"bingo":     "2 KB regions, 64/128/16K-entry FT/AT/PHT, PC+Address then PC+Offset lookup",
		"spp-ppf":   "256-entry ST, 512x4 PT, 8-entry GHR, perceptron filter 4096x4+2048x2+1024x2+128x1",
		"berti":     "128-entry history table, 16-entry delta table x 16 deltas, timely-delta learning",
	}
	for _, spec := range sim.Prefetchers {
		pf, _ := spec.New(func(mem.Line, mem.Addr, mem.Level) bool { return true })
		t.AddRow(spec.Name, spec.Home.String(), fmt.Sprintf("%.2f KB", float64(pf.StorageBytes())/1024), desc[spec.Name])
	}
	t.Notes = append(t.Notes,
		"SUF adds 0.12 KB (2b x 128 LQ + 1b x 768 L1D lines); the TSB X-LQ adds 0.47 KB — 0.59 KB/core total (paper abstract)")
	return t
}
