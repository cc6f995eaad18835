package api

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// cacheGet probes c for key, counting a hit when found.
func cacheGet(c *responseCache, key string) ([]byte, bool) {
	body, _, ok := get(c, hashKey(key), key)
	return body, ok
}

// TestSingleflightExactlyOnceUnderSkew is the coalescing contract under the
// worst realistic shape: many goroutines, hot-key skew, all missing at
// once. With no eviction (capacity ≫ keyspace), every distinct key must be
// evaluated exactly once — the first generation — no matter how many
// requests raced on it, and every request must receive that generation's
// body (no lost updates). Run under -race via `make test`.
func TestSingleflightExactlyOnceUnderSkew(t *testing.T) {
	const (
		keys       = 32
		goroutines = 32
		iters      = 200
	)
	c := newCache(cacheOptions{entries: 1024, maxBytes: DefaultCacheBytes, shards: 8, coalesce: true})
	var evals [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Skew: ~3/4 of traffic lands on the first four keys.
				k := (g*31 + i*17) % (4 * keys)
				if k >= keys {
					k %= 4
				}
				key := []byte(fmt.Sprintf("key-%03d", k))
				want := fmt.Sprintf("body-%03d", k)
				h := hashKey(key)
				body, _, ok := get(c, h, key)
				if !ok {
					var coalesced bool
					var err error
					body, _, coalesced, err = fill(c, h, key, func() ([]byte, int64, error) {
						evals[k].Add(1)
						time.Sleep(time.Millisecond) // widen the coalescing window
						return []byte(want), 0, nil
					})
					_ = coalesced
					if err != nil {
						t.Errorf("fill(%s): %v", key, err)
						return
					}
				}
				if string(body) != want {
					t.Errorf("key %s returned body %q, want %q", key, body, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for k := range evals {
		if n := evals[k].Load(); n != 1 {
			t.Errorf("key %d evaluated %d times, want exactly 1", k, n)
		}
	}
	ct := c.counters()
	if ct.misses != keys {
		t.Errorf("misses = %d, want %d (one per distinct key)", ct.misses, keys)
	}
	if ct.evicted != 0 {
		t.Errorf("evicted = %d, want 0", ct.evicted)
	}
	if ct.size != keys {
		t.Errorf("size = %d, want %d", ct.size, keys)
	}
	if total := ct.hits + ct.misses + ct.coalesced; total != goroutines*iters {
		t.Errorf("hits(%d)+misses(%d)+coalesced(%d) = %d, want %d requests",
			ct.hits, ct.misses, ct.coalesced, total, goroutines*iters)
	}
}

// TestSingleflightReevaluatesAfterEviction pins the "per key generation"
// half of the exactly-once contract: eviction ends a generation, so the
// next request for the key legitimately evaluates again.
func TestSingleflightReevaluatesAfterEviction(t *testing.T) {
	c := newCache(cacheOptions{entries: 1, maxBytes: DefaultCacheBytes, shards: 1, coalesce: true})
	var evals atomic.Int64
	get := func(key string) {
		kb := []byte(key)
		h := hashKey(kb)
		if _, _, ok := get(c, h, kb); ok {
			return
		}
		if _, _, _, err := fill(c, h, kb, func() ([]byte, int64, error) {
			evals.Add(1)
			return []byte(key), 0, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	get("a") // generation 1 of a
	get("b") // evicts a (capacity 1)
	get("a") // generation 2 of a: must evaluate again
	if n := evals.Load(); n != 3 {
		t.Fatalf("evaluations = %d, want 3 (a, b, a-again)", n)
	}
}

// TestShardedCacheConcurrentEvictionBounds hammers a sharded cache with a
// keyspace far over capacity from many goroutines and asserts the
// invariants eviction must preserve under concurrency: the global bound
// holds, counters reconcile with the request count, and a body read back on
// a hit is exactly the body stored for that key — across every shard. Run
// under -race via `make test`.
func TestShardedCacheConcurrentEvictionBounds(t *testing.T) {
	const (
		capacity   = 64
		keyspace   = 512
		goroutines = 16
		iters      = 400
	)
	c := newCache(cacheOptions{entries: capacity, maxBytes: DefaultCacheBytes, shards: 8, coalesce: true})
	if len(c.shards) != 8 {
		t.Fatalf("shards = %d, want 8", len(c.shards))
	}
	var requests atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g*7919 + i*613) % keyspace
				key := []byte(fmt.Sprintf("key-%04d", k))
				want := fmt.Sprintf("body-%04d", k)
				h := hashKey(key)
				requests.Add(1)
				body, _, ok := get(c, h, key)
				if !ok {
					var err error
					body, _, _, err = fill(c, h, key, func() ([]byte, int64, error) {
						return []byte(want), 0, nil
					})
					if err != nil {
						t.Errorf("fill: %v", err)
						return
					}
				}
				if string(body) != want {
					t.Errorf("lost update: key %s returned %q", key, body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ct := c.counters()
	if ct.size > capacity {
		t.Fatalf("cache overflowed its global bound: size %d > capacity %d", ct.size, capacity)
	}
	if total := ct.hits + ct.misses + ct.coalesced; total != requests.Load() {
		t.Fatalf("counters %d+%d+%d do not reconcile with %d requests",
			ct.hits, ct.misses, ct.coalesced, requests.Load())
	}
	// Per-shard bounds, not just the global sum.
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.order.Len() > sh.capacity {
			t.Errorf("shard %d over its bound: %d > %d", i, sh.order.Len(), sh.capacity)
		}
		if len(sh.flight) != 0 {
			t.Errorf("shard %d leaked %d in-flight entries", i, len(sh.flight))
		}
		sh.mu.Unlock()
	}
}

// TestSingleflightPropagatesErrorsWithoutCaching: a failed evaluation must
// reach every coalesced waiter and leave nothing cached, so the next
// request retries.
func TestSingleflightPropagatesErrorsWithoutCaching(t *testing.T) {
	c := newCache(cacheOptions{entries: 16, maxBytes: DefaultCacheBytes, shards: 1, coalesce: true})
	key := []byte("k")
	h := hashKey(key)
	const waiters = 8
	started := make(chan struct{})
	release := make(chan struct{})
	var failures atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, _, err := fill(c, h, key, func() ([]byte, int64, error) {
			close(started)
			<-release
			return nil, 0, fmt.Errorf("boom")
		})
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("winner error = %v", err)
			return
		}
		failures.Add(1)
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, coalesced, err := fill(c, h, key, func() ([]byte, int64, error) {
				return nil, 0, fmt.Errorf("boom")
			})
			if err == nil {
				t.Error("waiter got nil error")
				return
			}
			_ = coalesced
			failures.Add(1)
		}()
	}
	// Give the waiters a moment to join the flight, then let it fail.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if failures.Load() != waiters+1 {
		t.Fatalf("failures = %d, want %d", failures.Load(), waiters+1)
	}
	if _, ok := cacheGet(c, "k"); ok {
		t.Fatal("failed evaluation was cached")
	}
}

// TestRawLayerCoalescesLargeQueryHerd drives the full server path with a
// thundering herd of byte-identical large queries and asserts the raw-query
// front layer collapses it to exactly one evaluation: one canonical miss,
// every other request a raw hit or raw coalesced wait. Run under -race via
// `make test`.
func TestRawLayerCoalescesLargeQueryHerd(t *testing.T) {
	const herd = 24
	q := largeTestQuery(1024, 8)
	if len(q) < rawFastPathMinQuery {
		t.Fatal("query too short for the raw layer")
	}
	s := NewServer()
	start := make(chan struct{})
	var wg sync.WaitGroup
	bodies := make([][]byte, herd)
	for g := 0; g < herd; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			status, body := s.MeasureQuery(q)
			if status != 200 {
				t.Errorf("goroutine %d: status %d", g, status)
				return
			}
			bodies[g] = body
		}(g)
	}
	close(start)
	wg.Wait()
	for g := 1; g < herd; g++ {
		if string(bodies[g]) != string(bodies[0]) {
			t.Fatalf("goroutine %d received different bytes", g)
		}
	}
	if canon := s.cache.counters(); canon.misses != 1 {
		t.Fatalf("canonical misses = %d, want exactly 1 evaluation for the herd", canon.misses)
	}
	raw := s.rawCache.counters()
	if raw.misses != 1 {
		t.Fatalf("raw misses = %d, want 1", raw.misses)
	}
	if raw.hits+raw.coalesced != herd-1 {
		t.Fatalf("raw hits(%d)+coalesced(%d) = %d, want %d",
			raw.hits, raw.coalesced, raw.hits+raw.coalesced, herd-1)
	}
}
