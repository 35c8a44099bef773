package prefetch

import "testing"

// TestIsNone: "" and "none" both select no prefetcher; a known name and
// an unknown one both name a prefetcher (building the unknown one is
// what fails).
func TestIsNone(t *testing.T) {
	for name, want := range map[string]bool{"": true, "none": true, "berti": false, "no-such-prefetcher": false} {
		if got := IsNone(name); got != want {
			t.Errorf("IsNone(%q) = %v, want %v", name, got, want)
		}
	}
}
