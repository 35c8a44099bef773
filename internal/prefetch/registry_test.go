package prefetch

import (
	"testing"

	"secpref/internal/mem"
)

func TestRegisterDuplicatePanics(t *testing.T) {
	Register("dup-test", func(Issuer) Prefetcher { return None{} })
	t.Cleanup(func() { delete(factories, "dup-test") })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	Register("dup-test", func(Issuer) Prefetcher { return None{} })
}

func TestNewBindsIssuer(t *testing.T) {
	called := 0
	Register("issuer-test", func(issue Issuer) Prefetcher {
		issue(1, 2, mem.LvlL1D)
		called++
		return None{}
	})
	t.Cleanup(func() { delete(factories, "issuer-test") })
	if _, err := New("issuer-test", func(mem.Line, mem.Addr, mem.Level) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if called != 1 {
		t.Error("factory not invoked")
	}
}
