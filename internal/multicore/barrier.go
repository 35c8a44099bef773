package multicore

import (
	"runtime"
	"sync/atomic"
	"time"
)

const (
	// spinBudget is how long a helper polls for the next round before
	// it parks. It covers the serial part of an epoch (the shared
	// domain and the barrier bookkeeping, tens of microseconds), so on
	// an idle machine a helper sleeps only when the caller stops handing
	// out rounds; it also passes while a busy CPU keeps the helper off.
	spinBudget = 100 * time.Microsecond
	// yieldEvery is the number of polls between runtime.Gosched calls.
	// Without the yield a poll loop could hold the only P that the
	// goroutine it waits for needs (GOMAXPROCS 1, or more participants
	// than Ps).
	yieldEvery = 32
)

// barrier is a reusable fork-join of items over n participants. The
// calling goroutine is participant 0 and n-1 helper goroutines are the
// rest; helpers live from start to stop. A round runs work(i) once for
// every item i and returns when all have finished, with their writes
// visible to the caller. Participant p owns items p, p+n, ... and runs
// those first; then it takes any item no one has claimed yet, so a
// helper that is not running (its CPU busy with other work) delays
// nobody: the caller does its items. Between rounds a helper spins on
// the round generation, then parks on its wake channel once spinBudget
// passes.
type barrier struct {
	n    int
	work func(i int)

	// gen is the round generation: the caller bumps it to start a round
	// (or, with quit set, to make the helpers exit). claimed[i] is the
	// last generation in which item i was claimed. left counts the items
	// of the current round that have not finished; live counts the
	// helpers that have not exited.
	gen     atomic.Uint64
	claimed []atomic.Uint64
	left    atomic.Int32
	live    atomic.Int32
	quit    atomic.Bool
	// parked[p] is the generation helper p sleeps, or is about to
	// sleep, on wake[p] waiting for; zero while it is awake. Whichever
	// side clears it decides the wake-up: the caller by sending the one
	// token the channel buffers, the helper by not sleeping. Naming the
	// generation keeps a release that is slow to reach helper p from
	// waking it for a later wait.
	parked []atomic.Uint64
	wake   []chan struct{}
}

func newBarrier(n, items int, work func(i int)) *barrier {
	b := &barrier{n: n, work: work, claimed: make([]atomic.Uint64, items),
		parked: make([]atomic.Uint64, n), wake: make([]chan struct{}, n)}
	for p := 1; p < n; p++ {
		b.wake[p] = make(chan struct{}, 1)
	}
	return b
}

// start launches the helpers. Each is handed the current generation,
// so a round released before it first runs is not missed.
func (b *barrier) start() {
	b.quit.Store(false)
	b.live.Store(int32(b.n - 1))
	g := b.gen.Load()
	for p := 1; p < b.n; p++ {
		go b.helper(p, g)
	}
}

// round runs work once for every item, the caller taking its share on
// the calling goroutine, and returns when every item has finished.
func (b *barrier) round() {
	b.left.Store(int32(len(b.claimed)))
	b.share(0, b.release())
	waitZero(&b.left)
}

// share runs the items participant p can claim in round g: its own,
// then the others' in participant order. A round starts only after the
// previous one has claimed every item, so a participant still holding
// an older generation claims nothing.
func (b *barrier) share(p int, g uint64) {
	for q := range b.n {
		for i := (p + q) % b.n; i < len(b.claimed); i += b.n {
			if c := b.claimed[i].Load(); c < g && b.claimed[i].CompareAndSwap(c, g) {
				b.work(i)
				b.left.Add(-1)
			}
		}
	}
}

// stop makes every helper exit and returns only once all have, so no
// helper can touch the items' state after it (a later start may hand
// the same state to new helpers).
func (b *barrier) stop() {
	b.quit.Store(true)
	b.release()
	waitZero(&b.live)
}

// release bumps the generation, wakes the helpers that parked, and
// returns the new generation.
func (b *barrier) release() uint64 {
	g := b.gen.Add(1)
	for p := 1; p < b.n; p++ {
		if b.parked[p].CompareAndSwap(g, 0) {
			b.wake[p] <- struct{}{}
		}
	}
	return g
}

// waitZero spins until the count reaches zero, yielding every yieldEvery
// polls. The caller never parks: it waits only on items that a helper
// has claimed and is running.
func waitZero(n *atomic.Int32) {
	for i := 1; n.Load() != 0; i++ {
		if i%yieldEvery == 0 {
			runtime.Gosched()
		}
	}
}

func (b *barrier) helper(p int, seen uint64) {
	defer b.live.Add(-1)
	for {
		seen = b.await(p, seen)
		if b.quit.Load() {
			return
		}
		b.share(p, seen)
	}
}

// await returns the generation once it has moved past seen. It polls,
// yielding every yieldEvery polls, and parks once spinBudget has
// passed.
func (b *barrier) await(p int, seen uint64) uint64 {
	var since time.Time
	for i := 1; ; i++ {
		if g := b.gen.Load(); g != seen {
			return g
		}
		if i%yieldEvery != 0 {
			continue
		}
		runtime.Gosched()
		if since.IsZero() {
			since = time.Now()
			continue
		}
		if time.Since(since) < spinBudget {
			continue
		}
		b.parked[p].Store(seen + 1)
		if g := b.gen.Load(); g != seen {
			if !b.parked[p].CompareAndSwap(seen+1, 0) {
				<-b.wake[p] // release claimed the flag: take its token
			}
			return g
		}
		<-b.wake[p]
		return b.gen.Load()
	}
}
