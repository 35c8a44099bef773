package experiments

import "fmt"

// experiment is one reproducible table: its id, whether it goes beyond
// the paper, and how a runner builds it.
type experiment struct {
	id        string
	extension bool
	build     func(*Runner) (*Table, error)
}

// registry lists every experiment: the paper's in paper order, then
// the extensions. IDs, ExtensionIDs and Run all derive from it.
var registry = []experiment{
	{"table1", false, func(*Runner) (*Table, error) { return Table1(), nil }},
	{"table2", false, func(*Runner) (*Table, error) { return Table2(), nil }},
	{"table3", false, func(*Runner) (*Table, error) { return Table3() }},
	{"fig1", false, (*Runner).Fig1},
	{"fig3", false, (*Runner).Fig3},
	{"fig4", false, (*Runner).Fig4},
	{"fig5", false, (*Runner).Fig5},
	{"fig6", false, (*Runner).Fig6},
	{"fig10", false, (*Runner).Fig10},
	{"fig11", false, (*Runner).Fig11},
	{"fig12a", false, func(r *Runner) (*Table, error) { return r.Fig12("spec") }},
	{"fig12b", false, func(r *Runner) (*Table, error) { return r.Fig12("gap") }},
	{"fig13", false, (*Runner).Fig13},
	{"fig14", false, (*Runner).Fig14},
	{"fig15", false, (*Runner).Fig15},
	{"suf-accuracy", false, (*Runner).SUFAccuracy},
	{"suf-traffic", false, (*Runner).SUFTraffic},
	{"smt-suf", true, (*Runner).SMTSUF},
	{"tsb-nonsecure", true, (*Runner).TSBNonSecure},
	{"ablate-gm", true, (*Runner).AblateGMSize},
	{"ablate-tlb", true, (*Runner).AblateTLB},
	{"ablate-lateness", true, (*Runner).AblateLateness},
	{"ablate-policy", true, (*Runner).AblatePolicy},
	{"leakage-audit", true, (*Runner).LeakageAudit},
	{"consolidation-interference", true, (*Runner).ConsolidationInterference},
}

// IDs lists every reproducible experiment in paper order; ExtensionIDs
// lists the beyond-the-paper experiments (SMT, TSB on non-secure
// systems, ablations, the security scoreboard, consolidation).
var IDs, ExtensionIDs = registryIDs(false), registryIDs(true)

func registryIDs(extension bool) []string {
	var ids []string
	for _, e := range registry {
		if e.extension == extension {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// Run regenerates one experiment by id.
func (r *Runner) Run(id string) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.build(r)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v, extensions: %v)", id, IDs, ExtensionIDs)
}
