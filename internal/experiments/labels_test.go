package experiments

import (
	"strings"
	"testing"
)

func TestFig15Labels(t *testing.T) {
	labels := Fig15Labels()
	if len(labels) != 6 {
		t.Fatalf("%d fig15 variants, want 6", len(labels))
	}
	wantSubstr := []string{"nopref/secure", "on-access", "on-commit", "SUF", "TS", "TS"}
	for i, w := range wantSubstr {
		if !strings.Contains(labels[i], w) {
			t.Errorf("label %d = %q, want to contain %q", i, labels[i], w)
		}
	}
}

func TestVariantLabelsAreUnique(t *testing.T) {
	seen := map[string]bool{}
	add := func(v cfgVariant) {
		if seen[v.label] {
			t.Errorf("duplicate variant label %q (labels name exported files, so two systems would share one)", v.label)
		}
		seen[v.label] = true
	}
	add(baseNonSecure())
	add(baseSecure())
	add(baseSecureSUF())
	for _, pf := range Prefetchers {
		add(onAccessNonSecure(pf))
		add(onAccessSecure(pf))
		add(onCommitSecure(pf))
		add(onCommitSecureSUF(pf))
		add(timelySecure(pf))
		add(timelySecureSUF(pf))
		add(classified(onAccessSecure(pf)))
		add(classified(onCommitSecure(pf)))
	}
}

func TestIDsHaveNoDuplicates(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range append(append([]string{}, IDs...), ExtensionIDs...) {
		if seen[id] {
			t.Errorf("duplicate experiment id %q", id)
		}
		seen[id] = true
	}
}
