package workload

import (
	"sync"

	"secpref/internal/trace"
)

// onceMap memoizes one value per key. The first caller of a key builds
// its value under the key's own sync.Once, outside the map's lock, so
// distinct keys build at the same time while concurrent callers of one
// key wait for its single build.
type onceMap[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*onceEntry[V]
}

type onceEntry[V any] struct {
	once sync.Once
	v    V
}

func (c *onceMap[K, V]) get(key K, build func() V) V {
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		if c.m == nil {
			c.m = make(map[K]*onceEntry[V])
		}
		e = &onceEntry[V]{}
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// reset drops every entry; a build in flight still completes for the
// callers already waiting on it.
func (c *onceMap[K, V]) reset() {
	c.mu.Lock()
	c.m = nil
	c.mu.Unlock()
}

// The experiment harness simulates every trace under many
// configurations (secure/non-secure × prefetcher × mode), so generated
// traces are memoized by (name, params).

type cacheKey struct {
	name string
	p    Params
}

var traces onceMap[cacheKey, *trace.Trace]

// Get returns the (memoized) trace for a registered generator name.
func Get(name string, p Params) (*trace.Trace, error) {
	g, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return traces.get(cacheKey{name, p}, func() *trace.Trace { return g.Gen(p) }), nil
}

// Evict clears the trace cache (tests use it to bound memory).
func Evict() { traces.reset() }
