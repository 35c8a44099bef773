package multicore

import (
	"runtime"
	"testing"
	"time"
)

// TestBarrier drives the barrier alone: 2 to 8 participants sharing
// one to three items each at GOMAXPROCS 1, 2 and 8, thousands of rounds
// across several start/stop cycles, with item 0 sometimes outlasting
// spinBudget so that helpers park. Every round must run each item
// exactly once, whoever claims it, and the caller must see those
// writes after the join; the work writes plain memory, so the race
// detector checks the ordering too. stop must return only once every
// helper has exited. Each cycle first runs rounds with no helper
// started, which complete only because the caller never waits for a
// helper that has not claimed an item: in a campaign that runs several
// engines at once a helper may wait a long time for a CPU. GOMAXPROCS
// 8 oversubscribes the CPUs, so the operating system preempts the
// caller inside release now and then: that is what exposed a wake-up
// that reached a helper after it had parked again for the next round.
func TestBarrier(t *testing.T) {
	const cycles, alone, rounds = 4, 50, 500
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for n := 2; n <= 8; n++ {
			items := n + n*(n%3)
			ran := make([]int, items)
			b := newBarrier(n, items, func(i int) {
				ran[i]++
				if i == 0 && ran[0]%64 == 0 {
					for start := time.Now(); time.Since(start) < 2*spinBudget; {
					}
				}
			})
			want := 0
			round := func() {
				b.round()
				want++
				for i, got := range ran {
					if got != want {
						t.Fatalf("GOMAXPROCS %d, %d participants: after round %d item %d has run %d times",
							procs, n, want, i, got)
					}
				}
			}
			for c := 0; c < cycles; c++ {
				for r := 0; r < alone; r++ {
					round()
				}
				b.start()
				for r := 0; r < rounds; r++ {
					round()
				}
				b.stop()
				if live := b.live.Load(); live != 0 {
					t.Fatalf("GOMAXPROCS %d, %d participants: stop returned with %d helpers running", procs, n, live)
				}
			}
		}
	}
}
