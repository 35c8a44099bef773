package workload

import (
	"bytes"
	"fmt"
	"testing"

	"secpref/internal/observatory"
	"secpref/internal/trace"
)

// Pinned traces: FNV-1a (observatory.HashBytes) over trace.Write's
// output for each generator at 20k instructions, seed 1. Any change to
// a generator, to the graph builder behind the GAP kernels or to the
// record encoding moves a pin.
var tracePins = map[string]string{
	"600.perlb-570B":   "fa916259f9fa6081",
	"602.gcc-1850B":    "1ea4e9ad6ddacd10",
	"602.gcc-2226B":    "eac69751071a7c49",
	"602.gcc-734B":     "3502cf9a18c448af",
	"603.bwa-1740B":    "a006ee41e4c57d1e",
	"603.bwa-2609B":    "565a24e52fe703fa",
	"603.bwa-2931B":    "8d6cafe641f1f9f8",
	"603.bwa-891B":     "916c7faa90191508",
	"605.mcf-1152B":    "e66c88b7c725c260",
	"605.mcf-1536B":    "9575115ea3bef86a",
	"605.mcf-1554B":    "f406450950da5cd4",
	"605.mcf-1644B":    "b862529c51203bec",
	"605.mcf-472B":     "3e00da0eaa7f8eed",
	"605.mcf-484B":     "2bbf6a9223c78820",
	"605.mcf-665B":     "fd0df8ef60d46e2f",
	"605.mcf-782B":     "04432ce091e82523",
	"605.mcf-994B":     "98dd1791303ef462",
	"607.cactu-2421B":  "af46336b6154ab58",
	"607.cactu-3477B":  "aeaf2eb5b3b9bc1d",
	"607.cactu-4004B":  "c9aa35af6eb63c24",
	"619.lbm-2676B":    "1e5cc2302c5779cf",
	"619.lbm-2677B":    "ed4680f56fe72404",
	"619.lbm-3766B":    "e61a74aebf79950b",
	"619.lbm-4268B":    "5ff0f871f855b642",
	"620.omnet-141B":   "8f9f5521c47a2021",
	"620.omnet-874B":   "a5476a45de713f57",
	"621.wrf-6673B":    "4567171d399c3da9",
	"621.wrf-8065B":    "805f7540c15ca871",
	"623.xalan-10B":    "a0c011b63bd99fdb",
	"623.xalan-165B":   "d888adf7b73ab33f",
	"623.xalan-202B":   "c2d9ee60048c54bc",
	"628.pop2-17B":     "b505d7c15f420199",
	"641.leela-1083B":  "9d63863d8bb31a39",
	"649.foton-10881B": "1ca57be3e668df5c",
	"649.foton-1176B":  "3f9bd0de19e7d61e",
	"649.foton-7084B":  "c19c72843b4feb3d",
	"649.foton-8225B":  "04cde86b8b6d44bb",
	"654.roms-1007B":   "1ff03ade3e33f392",
	"654.roms-1070B":   "56445b2cf11d7465",
	"654.roms-1390B":   "c421d736e1955335",
	"654.roms-1613B":   "e29bfbbc46a5fb6f",
	"654.roms-293B":    "0968ab7d591e8e61",
	"654.roms-294B":    "5b68fbb9777ddddb",
	"654.roms-523B":    "6536ff48b02ced95",
	"657.xz-2302B":     "d6697ea7d05d014d",
	"bfs-3B":           "0cfe6b71aeb90af4",
	"sssp-5B":          "298c37235f5ed0f7",
	"cc-14B":           "ef5f25d7267cfc1c",
	"pr-3B":            "1427eaa27a54da7a",
	"bc-0B":            "be61b486b19b4534",
}

// maxBytesPerInstr bounds the record encoding of a generated trace.
const maxBytesPerInstr = 8

func TestPinnedTraces(t *testing.T) {
	var names []string
	for _, g := range Suite("spec") {
		names = append(names, g.Name)
	}
	names = append(names, "bfs-3B", "sssp-5B", "cc-14B", "pr-3B", "bc-0B")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			g, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if g.Suite == "gap" && testing.Short() {
				t.Skip("builds a 600k-vertex graph")
			}
			tr := g.Gen(Params{Instrs: 20_000, Seed: 1})
			var buf bytes.Buffer
			if err := trace.Write(&buf, tr); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%016x", observatory.HashBytes(buf.Bytes())), tracePins[name]; got != want {
				t.Errorf("trace digest = %s, want %s", got, want)
			}
			if per := float64(buf.Len()) / float64(tr.Len()); per > maxBytesPerInstr {
				t.Errorf("encoding costs %.2f bytes per instruction, bound %d", per, maxBytesPerInstr)
			}
		})
	}
}
