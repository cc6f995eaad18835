package api

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hetero/internal/model"
	"hetero/internal/profile"
)

// CanonicalKey renders a (params, profile) pair as the cache key for
// /v1/measure. Floats are formatted as hexadecimal ('x', -1), which is
// exact and round-trippable: two requests share a key iff every parameter
// and every ρ is the same float64, regardless of how the query spelled them
// ("0.5", "5e-1" and "0.50" all canonicalize identically).
//
// The serving hot path builds the same bytes allocation-free through
// appendCanonicalKey; this wrapper exists for callers that want a string.
func CanonicalKey(m model.Params, p profile.Profile) string {
	return string(appendCanonicalKey(make([]byte, 0, 24*(len(p)+3)), m, p))
}

// appendCanonicalParams appends the parameter prefix of the canonical key —
// tau|pi|delta in exact hex spelling, no trailing separator.
func appendCanonicalParams(dst []byte, m model.Params) []byte {
	dst = strconv.AppendFloat(dst, m.Tau, 'x', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, m.Pi, 'x', -1, 64)
	dst = append(dst, '|')
	dst = strconv.AppendFloat(dst, m.Delta, 'x', -1, 64)
	return dst
}

// appendCanonicalProfile appends the profile suffix of the canonical key:
// |ρ,ρ,... in exact hex spelling. It is the profile-dependent (and for large
// profiles dominant) part of the key; the admission batcher renders it once
// per distinct profile in a flush and memcpys it behind each item's
// parameter prefix.
func appendCanonicalProfile(dst []byte, p []float64) []byte {
	for i, rho := range p {
		if i == 0 {
			dst = append(dst, '|')
		} else {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, rho, 'x', -1, 64)
	}
	return dst
}

// appendCanonicalKey appends the canonical key for (m, p) to dst and returns
// the extended slice — the zero-allocation spelling of CanonicalKey used by
// the measure hot path (dst comes from a pooled scratch buffer).
func appendCanonicalKey(dst []byte, m model.Params, p []float64) []byte {
	dst = appendCanonicalParams(dst, m)
	return appendCanonicalProfile(dst, p)
}

// ParseCanonicalKey inverts CanonicalKey, strictly: it accepts exactly the
// image of CanonicalKey on valid inputs and errors on everything else —
// empty or trailing fields ("...|1," or "a||b"), missing profiles,
// non-finite or out-of-range values, and non-canonical float spellings. It
// exists so the fuzzer can prove the key is lossless and unambiguous:
// parse(key(m, p)) must reproduce m and p exactly, and no malformed key may
// parse (let alone panic).
func ParseCanonicalKey(key string) (model.Params, profile.Profile, error) {
	var m model.Params
	rest := key
	for i, dst := range []*float64{&m.Tau, &m.Pi, &m.Delta} {
		field, tail, found := strings.Cut(rest, "|")
		if !found {
			return model.Params{}, nil, fmt.Errorf("api: canonical key %q: fewer than 4 |-fields", key)
		}
		v, err := parseKeyField(field)
		if err != nil {
			return model.Params{}, nil, fmt.Errorf("api: canonical key param %d: %w", i, err)
		}
		*dst = v
		rest = tail
	}
	var rhos []float64
	for {
		field, tail, found := strings.Cut(rest, ",")
		v, err := parseKeyField(field)
		if err != nil {
			return model.Params{}, nil, fmt.Errorf("api: canonical key ρ[%d]: %w", len(rhos), err)
		}
		rhos = append(rhos, v)
		if !found {
			break
		}
		rest = tail
	}
	if err := m.Validate(); err != nil {
		return model.Params{}, nil, fmt.Errorf("api: canonical key params: %w", err)
	}
	p, err := profile.New(rhos...)
	if err != nil {
		return model.Params{}, nil, fmt.Errorf("api: canonical key profile: %w", err)
	}
	// A decodable key must also be in canonical spelling, or two spellings of
	// one cluster could masquerade as distinct keys.
	if CanonicalKey(m, p) != key {
		return model.Params{}, nil, fmt.Errorf("api: key %q is not in canonical form", key)
	}
	return m, p, nil
}

// parseKeyField parses one |- or ,-delimited canonical-key field, rejecting
// the empty fields that trailing or doubled separators produce.
func parseKeyField(field string) (float64, error) {
	if field == "" {
		return 0, fmt.Errorf("empty field (trailing or doubled separator)")
	}
	return strconv.ParseFloat(field, 64)
}

// responseCache is a sharded, doubly bounded LRU over fully rendered JSON
// responses with singleflight miss coalescing. Storing the bytes (not the
// structs) guarantees a hit serves exactly what the miss served.
//
// Two bounds apply simultaneously: an entry-count capacity (the historical
// bound) and a byte budget over the resident cost of every entry, counted
// as len(key) + len(body). Large-n profiles carry keys and bodies of
// hundreds of KB each, so an entry-count bound alone lets a hostile or
// large-n workload pin gigabytes; the byte budget caps residency no matter
// the workload shape. Eviction is LRU from the cold end until both bounds
// hold; a single entry larger than a shard's whole byte budget is rejected
// outright (and counted) rather than admitted to thrash the shard empty.
//
// Keys hash (FNV-1a) to one of a power-of-two number of shards, each with
// its own lock, LRU list and in-flight table, so concurrent requests for
// different keys contend only when they collide on a shard. The shard count
// is fixed at construction. Small caches collapse to one shard, which
// preserves the exact global-LRU semantics the pre-sharding implementation
// had (and the tests pin).
//
// The cache is driven through four package functions, generic over string
// and []byte keys: get, fill, put and hashKey. A caller holding its key as
// bytes (a pooled canonical-key buffer, a request body) probes without
// copying; the key is copied once, when a miss's fill inserts it.
type responseCache struct {
	// capacity is the global entry bound (the sum of per-shard bounds);
	// ≤ 0 disables caching entirely (every get misses, put is a no-op,
	// and misses are never coalesced — matching the uncached baseline).
	capacity int
	// maxBytes is the global byte budget over len(key)+len(body) of the
	// resident entries; ≤ 0 means unlimited (entry count still bounds).
	maxBytes int64
	// coalesce enables singleflight miss coalescing: concurrent fill calls
	// for one key run the compute closure once and share the result. Off in
	// the single-lock baseline configuration benchserve compares against.
	coalesce bool
	shards   []cacheShard
	mask     uint64
}

// cacheShard is one lock domain: an LRU bounded to capacity entries and
// byteBudget resident bytes, plus the singleflight table for keys currently
// being computed.
type cacheShard struct {
	mu         sync.Mutex
	capacity   int
	byteBudget int64
	bytes      int64
	order      *list.List // front = most recently used; values are *cacheEntry
	entries    map[string]*list.Element
	flight     map[string]*flightCall
	// sink, when set, receives every entry evicted by the byte/entry bounds
	// (the spill tier's evict-to-disk hook); wsink receives every entry at
	// admission time (the spill tier's write-through hook). Both run under
	// the shard lock, so they must be non-blocking and cheap; setSinks
	// writes them before traffic flows.
	sink  func(key string, body []byte)
	wsink func(key string, body []byte)

	hits      uint64
	misses    uint64
	coalesced uint64
	evicted   uint64
	rejected  uint64 // entries larger than the shard's whole byte budget
}

type cacheEntry struct {
	key  string
	body []byte
	// meta is an opaque caller-owned value stored with the entry at
	// admission time (the /v1/batch raw front records the profile count
	// here, so a hit never re-parses the body to recover it). Zero for
	// layers that don't use it.
	meta int64
	// onDisk marks a body promoted from the spill tier, which already
	// holds it: neither sink offers it back.
	onDisk bool
}

// entryCost is the resident byte cost charged against the byte budget.
func entryCost(key string, body []byte) int64 {
	return int64(len(key) + len(body))
}

// flightCall is one in-progress miss evaluation; waiters block on done and
// then read body/meta/err (written before done is closed).
type flightCall struct {
	done chan struct{}
	body []byte
	meta int64
	err  error
}

// DefaultCacheBytes is the default resident-byte budget for each response
// cache when no -cache-bytes is configured: 256 MiB. Large-n profiles carry
// ~25-byte hex floats per ρ in the key and ~18-byte decimals per ρ in the
// body, so the default 1024-entry bound alone could pin multiple GiB; the
// byte budget caps it regardless of entry shape.
const DefaultCacheBytes int64 = 256 << 20

const (
	// cacheMinPerShard is the smallest per-shard capacity worth sharding
	// for; below it the cache stays single-sharded so tiny caches keep
	// exact global LRU eviction order.
	cacheMinPerShard = 8
	// cacheMaxShards bounds the automatic shard count (a power of two).
	cacheMaxShards = 16
)

// autoShards picks the shard count for a capacity: the largest power of two
// ≤ capacity/cacheMinPerShard, clamped to [1, cacheMaxShards].
func autoShards(capacity int) int {
	shards := 1
	for shards*2 <= capacity/cacheMinPerShard && shards*2 <= cacheMaxShards {
		shards *= 2
	}
	return shards
}

// cacheOptions configures newCache. The zero value of maxBytes means
// unlimited; shards 0 means automatic (autoShards), other values round down
// to a power of two. shards = 1, coalesce = false reproduces the
// pre-sharding single-lock cache exactly — the baseline configuration for
// benchserve.
type cacheOptions struct {
	entries  int
	maxBytes int64
	shards   int
	coalesce bool
}

// newCache builds a responseCache from options, distributing the global
// entry and byte bounds across shards and giving remainders to the first
// shards so the per-shard bounds sum exactly to the global ones. A disabled
// cache (entries ≤ 0) keeps one counter-only shard so its stats still work.
func newCache(o cacheOptions) *responseCache {
	c := &responseCache{capacity: o.entries, maxBytes: o.maxBytes, coalesce: o.coalesce}
	shards := 1
	if o.entries > 0 {
		want := o.shards
		if want <= 0 {
			want = autoShards(o.entries)
		}
		for shards*2 <= want {
			shards *= 2
		}
	}
	c.shards = make([]cacheShard, shards)
	c.mask = uint64(shards - 1)
	base, rem := o.entries/shards, o.entries%shards
	var byteBase, byteRem int64
	if o.maxBytes > 0 {
		byteBase, byteRem = o.maxBytes/int64(shards), o.maxBytes%int64(shards)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.capacity = base
		if i < rem {
			sh.capacity++
		}
		if sh.capacity < 1 && o.entries > 0 {
			sh.capacity = 1
		}
		sh.byteBudget = byteBase
		if int64(i) < byteRem {
			sh.byteBudget++
		}
		sh.order = list.New()
		sh.entries = make(map[string]*list.Element)
		sh.flight = make(map[string]*flightCall)
	}
	return c
}

// maxEntryCost is the largest entry cost any shard admits: the first
// shard's byte budget, since newCache gives the remainder bytes to the
// first shards. 0 means no byte budget.
func (c *responseCache) maxEntryCost() int64 {
	return c.shards[0].byteBudget
}

// admits reports whether the cache would keep an entry of key and body
// hashed to h: it is on, and the entry fits its shard's byte budget.
func (c *responseCache) admits(h uint64, key string, body []byte) bool {
	if c.capacity <= 0 {
		return false
	}
	budget := c.shard(h).byteBudget
	return budget <= 0 || entryCost(key, body) <= budget
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211

	// hashSampleCutoff is the key length above which the shard hash samples
	// the key instead of reading every byte. The hash only picks a shard —
	// entries and flight tables are keyed by the full string, so a collision
	// costs shard balance, never correctness. Large-n canonical keys and raw
	// queries run to hundreds of KB; full FNV-1a over them costs as much as
	// the evaluation they front. The sample covers the head (where canonical
	// keys differ in their parameter prefix), the tail (where sweep queries
	// differ in their trailing parameters), a stride through the middle, and
	// the length.
	hashSampleCutoff = 1024
	hashSampleHead   = 512
	hashSampleTail   = 256
	hashSampleProbes = 16
)

// cacheKey is the key type of get, fill, put and hashKey: the caller's
// bytes or string, used as is.
type cacheKey interface{ string | []byte }

// hashKey hashes a key for shard selection (and, in a fleet, for ring
// ownership): FNV-1a over the whole key up to hashSampleCutoff, a fixed-size
// head+tail+stride sample beyond it. Equal content hashes equally whichever
// key type carries it — a peer put arrives as bytes for a key its sender
// hashed as a string.
func hashKey[K cacheKey](key K) uint64 {
	n := len(key)
	h := uint64(fnvOffset64)
	if n <= hashSampleCutoff {
		for i := 0; i < n; i++ {
			h ^= uint64(key[i])
			h *= fnvPrime64
		}
		return h
	}
	h ^= uint64(n)
	h *= fnvPrime64
	for i := 0; i < hashSampleHead; i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	for i := n - hashSampleTail; i < n; i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	stride := (n - hashSampleHead - hashSampleTail) / hashSampleProbes
	for i := 0; i < hashSampleProbes; i++ {
		h ^= uint64(key[hashSampleHead+i*stride])
		h *= fnvPrime64
	}
	return h
}

func (c *responseCache) shard(h uint64) *cacheShard {
	return &c.shards[h&c.mask]
}

// hitLocked counts a hit on a resident entry, refreshes its LRU position
// and returns its body and meta. Callers hold sh.mu.
func (sh *cacheShard) hitLocked(el *list.Element) ([]byte, int64) {
	sh.hits++
	sh.order.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e.body, e.meta
}

// get returns the body and admission-time meta cached under key, counting a
// hit when found. Misses are NOT counted here — the fill that follows
// counts them — so a get+fill counts each evaluation exactly once. The hit
// path performs no allocation for either key type: the map is probed via
// the compiler's string(bytes) lookup optimization.
func get[K cacheKey](c *responseCache, h uint64, key K) (body []byte, meta int64, ok bool) {
	if c.capacity <= 0 {
		return nil, 0, false
	}
	sh := c.shard(h)
	sh.mu.Lock()
	el, ok := sh.entries[string(key)]
	if ok {
		body, meta = sh.hitLocked(el)
	}
	sh.mu.Unlock()
	return body, meta, ok
}

// fill completes a miss: it re-checks the entry under the shard lock, joins
// an in-flight computation for the same key when coalescing is on, or runs
// compute itself and publishes the body with its meta value, which every
// later hit and waiter gets back. compute also reports whether the body
// came from the spill tier (onDisk), so the entry is never offered back to
// it. The returned coalesced flag reports that this call waited on another
// goroutine's evaluation. Errors are propagated to every waiter and nothing
// is cached. A []byte key is copied once, for the flight table and the
// entry.
func fill[K cacheKey](c *responseCache, h uint64, key K, compute func() (body []byte, meta int64, onDisk bool, err error)) (body []byte, meta int64, coalesced bool, err error) {
	sh := c.shard(h)
	sh.mu.Lock()
	if c.capacity <= 0 {
		sh.misses++
		sh.mu.Unlock()
		body, meta, _, err = compute()
		return body, meta, false, err
	}
	if el, ok := sh.entries[string(key)]; ok {
		body, meta = sh.hitLocked(el)
		sh.mu.Unlock()
		return body, meta, false, nil
	}
	if fc, ok := sh.flight[string(key)]; ok {
		sh.coalesced++
		sh.mu.Unlock()
		<-fc.done
		return fc.body, fc.meta, true, fc.err
	}
	sh.misses++
	k := string(key)
	var fc *flightCall
	if c.coalesce {
		fc = &flightCall{done: make(chan struct{})}
		sh.flight[k] = fc
	}
	sh.mu.Unlock()

	body, meta, onDisk, err := compute()

	sh.mu.Lock()
	if fc != nil {
		delete(sh.flight, k)
	}
	if err == nil {
		sh.insertLocked(k, body, meta, onDisk)
	}
	sh.mu.Unlock()
	if fc != nil {
		fc.body, fc.meta, fc.err = body, meta, err
		close(fc.done)
	}
	return body, meta, false, err
}

// put stores body under key, evicting least recently used entries of the
// key's shard while over either bound.
func put[K cacheKey](c *responseCache, key K, body []byte) {
	if c.capacity <= 0 {
		return
	}
	sh := c.shard(hashKey(key))
	sh.mu.Lock()
	sh.insertLocked(string(key), body, 0, false)
	sh.mu.Unlock()
}

// insertLocked stores body (and its admission-time meta value) under key in
// the shard's LRU, maintaining the resident-bytes account and evicting from
// the cold end while either the entry bound or the byte budget is exceeded.
// An entry whose own cost exceeds the shard's whole byte budget is rejected
// (and any stale entry under the key removed) instead of admitted to evict
// everything else. A body onDisk (promoted from the spill tier) reaches
// neither the write-through sink nor, later, the evict sink. Callers hold
// sh.mu.
func (sh *cacheShard) insertLocked(key string, body []byte, meta int64, onDisk bool) {
	cost := entryCost(key, body)
	if sh.byteBudget > 0 && cost > sh.byteBudget {
		if el, ok := sh.entries[key]; ok {
			sh.removeLocked(el)
		}
		sh.rejected++
		return
	}
	if el, ok := sh.entries[key]; ok {
		e := el.Value.(*cacheEntry)
		sh.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
		e.meta = meta
		e.onDisk = onDisk
		sh.order.MoveToFront(el)
	} else {
		sh.entries[key] = sh.order.PushFront(&cacheEntry{key: key, body: body, meta: meta, onDisk: onDisk})
		sh.bytes += cost
	}
	if sh.wsink != nil && !onDisk {
		sh.wsink(key, body)
	}
	for sh.order.Len() > sh.capacity || (sh.byteBudget > 0 && sh.bytes > sh.byteBudget) {
		oldest := sh.order.Back()
		if oldest == nil {
			break
		}
		if e := oldest.Value.(*cacheEntry); sh.sink != nil && !e.onDisk {
			sh.sink(e.key, e.body)
		}
		sh.removeLocked(oldest)
		sh.evicted++
	}
}

// removeLocked drops one entry from the LRU, map and bytes account.
// Callers hold sh.mu.
func (sh *cacheShard) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	sh.order.Remove(el)
	delete(sh.entries, e.key)
	sh.bytes -= entryCost(e.key, e.body)
}

// cacheCounters is the full statistics snapshot of a cache, summed over
// shards.
type cacheCounters struct {
	hits      uint64
	misses    uint64
	coalesced uint64
	evicted   uint64
	rejected  uint64
	size      int
	bytes     int64
	shards    int
}

// counters snapshots every counter, the occupancy (entries and resident
// bytes), and the shard count.
func (c *responseCache) counters() cacheCounters {
	out := cacheCounters{shards: len(c.shards)}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		out.hits += sh.hits
		out.misses += sh.misses
		out.coalesced += sh.coalesced
		out.evicted += sh.evicted
		out.rejected += sh.rejected
		out.size += sh.order.Len()
		out.bytes += sh.bytes
		sh.mu.Unlock()
	}
	return out
}

// setSinks installs evict as the eviction sink and insert (nil for none) as
// the write-through admission sink on every shard. Both run under a shard
// lock: they must be non-blocking (the spill tier hands off to a bounded
// queue). Install before traffic flows.
func (c *responseCache) setSinks(evict, insert func(key string, body []byte)) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.sink, sh.wsink = evict, insert
		sh.mu.Unlock()
	}
}

// forEachEntry visits every resident entry, hot-to-cold within each shard,
// until fn returns false. fn runs under the visited shard's lock: it must
// not call back into the cache and must not block — callers that need to do
// real work (the shutdown flush) snapshot references inside fn and process
// them after forEachEntry returns. Bodies are immutable once admitted, so
// holding the references afterwards is safe.
func (c *responseCache) forEachEntry(fn func(key string, body []byte) bool) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		for el := sh.order.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			if !fn(e.key, e.body) {
				sh.mu.Unlock()
				return
			}
		}
		sh.mu.Unlock()
	}
}
