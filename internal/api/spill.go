package api

import (
	"sync"
	"sync/atomic"

	"hetero/internal/spill"
)

// Spill-tier wiring: internal/spill is the bounded on-disk second-level
// cache under the in-memory response caches. Each memory layer gets an
// eviction sink that offers the evicted (key, body) to a bounded queue;
// one background writer drains it into the store. Reads happen in
// readThrough, as the key's singleflight leader — after the memory layer,
// before peer fetch and before local evaluation — so a spill hit is
// promoted back into memory by the normal fill insert and pushed to no
// peer. Each memory layer is its own spill.Layer, namespaced on disk by
// one layer byte, so the three memory layers can never alias each other;
// keys go to the store as they are, never concatenated with that byte.
const (
	layerCanonical byte = 'c' // canonical measure cache keys
	layerRaw       byte = 'r' // raw-query front keys (incl. compare/speedup prefixes)
	layerBatch     byte = 'b' // /v1/batch raw body-front keys

	// spillQueueEntries and spillQueueMaxBytes bound the evict hand-off
	// queue; beyond either, evictions are dropped (counted) rather than
	// ever blocking a shard lock.
	spillQueueEntries  = 256
	spillQueueMaxBytes = 64 << 20

	// spillFlushMaxBytes bounds the best-effort shutdown flush of
	// still-resident memory entries in write-through mode: CloseSpill
	// stops offering once this many body+key bytes have been handed to
	// the store, so a huge memory tier can't stall a drain indefinitely.
	// Entries already spilled dedupe inside store.Put, so the common
	// warm-shutdown flush touches far less than this ceiling.
	spillFlushMaxBytes = 256 << 20
)

type spillItem struct {
	layer byte
	key   string
	body  []byte
}

// spillTier owns the background evict writer in front of a spill.Store.
type spillTier struct {
	store        *spill.Store
	queue        chan spillItem
	queuedBytes  atomic.Int64
	drops        atomic.Uint64
	failedWrites atomic.Uint64 // store.Put returned false in writeLoop
	flushed      atomic.Uint64 // entries flushed durably by CloseSpill
	writeThrough bool
	closeOnce    sync.Once
	done         chan struct{}
	// closeMu orders late evictions against queue close: offer holds it
	// shared around the send, CloseSpill exclusively around the close.
	closeMu sync.RWMutex
	closed  bool
}

// SpillOptions configures the spill tier's wiring to the memory layers.
type SpillOptions struct {
	// WriteThrough offers every memory-tier insert to the spill queue at
	// admission time (not only on eviction) and adds a bounded
	// best-effort flush of still-resident entries during CloseSpill, so
	// a warm restart re-serves the working set from segment recovery
	// with zero re-evaluations. Off by default: write-through turns the
	// spill writer into a firehose sized to the insert rate, which only
	// pays off when restarts are routine (rolling fleet deploys).
	WriteThrough bool
}

// EnableSpill attaches store as the evict-to-disk tier under every
// response-cache layer. Call before serving traffic; pair with
// CloseSpill on shutdown (after the HTTP server has drained). The
// server takes ownership: CloseSpill closes the store.
func (s *Server) EnableSpill(store *spill.Store) {
	s.EnableSpillOptions(store, SpillOptions{})
}

// EnableSpillOptions is EnableSpill with explicit options (write-through
// durability mode for heterod's -spill-write-through flag).
func (s *Server) EnableSpillOptions(store *spill.Store, opts SpillOptions) {
	t := &spillTier{
		store:        store,
		queue:        make(chan spillItem, spillQueueEntries),
		done:         make(chan struct{}),
		writeThrough: opts.WriteThrough,
	}
	go t.writeLoop()
	s.spill = t
	for _, l := range s.memoryLayers() {
		sink := func(key string, body []byte) {
			if len(key) >= l.minKey {
				t.offer(l.layer, key, body)
			}
		}
		var insert func(key string, body []byte)
		if opts.WriteThrough {
			insert = sink
		}
		l.cache.setSinks(sink, insert)
	}
}

// memoryLayer pairs a memory cache with its layer byte, which names the
// layer both in spill and in the peer protocol. Keys shorter than minKey
// stay out of spill and off the peer tier: the raw front holds every
// /v1/measure spelling, but only spellings of at least rawFastPathMinQuery
// bytes are ever read from layer 'r' (smaller ones read the canonical
// layer's 'c' behind the front), so writing the rest would fill the disk
// with records no read looks up.
type memoryLayer struct {
	layer  byte
	minKey int
	cache  *responseCache
}

// memoryLayers lists the three memory layers, canonical first.
func (s *Server) memoryLayers() []memoryLayer {
	return []memoryLayer{
		{layerCanonical, 0, s.cache},
		{layerRaw, rawFastPathMinQuery, s.rawCache},
		{layerBatch, 0, s.batchRawCache},
	}
}

// CloseSpill stops the evict writer (draining queued entries), flushes
// still-resident memory entries in write-through mode (bounded by
// spillFlushMaxBytes), and closes the store. Call after the HTTP server
// has stopped accepting requests. No-op when spill is off.
func (s *Server) CloseSpill() {
	t := s.spill
	if t == nil {
		return
	}
	t.closeOnce.Do(func() {
		t.closeMu.Lock()
		t.closed = true
		close(t.queue)
		t.closeMu.Unlock()
		<-t.done
		if t.writeThrough {
			s.flushResident(t)
		}
		t.store.Close()
	})
}

// flushResident offers every still-resident memory entry to the store
// directly (the queue is closed by now), best-effort and bounded: the
// write-through queue already carried the steady state to disk, so this
// pass exists to catch entries whose offers were dropped at the queue
// bound. References are snapshotted under the shard locks (bodies are
// immutable) and written after, so no disk I/O runs under a lock.
func (s *Server) flushResident(t *spillTier) {
	var pending []spillItem
	var budget int64 = spillFlushMaxBytes
	snapshot := func(l memoryLayer) func(key string, body []byte) bool {
		return func(key string, body []byte) bool {
			if len(key) < l.minKey {
				return true
			}
			cost := int64(len(key) + len(body))
			if cost > budget {
				return false
			}
			budget -= cost
			pending = append(pending, spillItem{layer: l.layer, key: key, body: body})
			return true
		}
	}
	for _, l := range s.memoryLayers() {
		l.cache.forEachEntry(snapshot(l))
	}
	for _, it := range pending {
		if t.store.Layer(it.layer).Put(it.key, it.body) {
			t.flushed.Add(1)
		} else {
			t.failedWrites.Add(1)
		}
	}
}

// offer hands an evicted (or, in write-through mode, freshly admitted)
// entry to the writer without ever blocking: it runs under a cache shard
// lock. Over-full queues drop (counted). The byte bound is reserved with
// an atomic add BEFORE the send and undone on every rejection path —
// a load-then-add check would let concurrent offers each observe room
// and overshoot the bound together.
func (t *spillTier) offer(layer byte, key string, body []byte) {
	cost := int64(len(key) + len(body))
	if t.queuedBytes.Add(cost) > spillQueueMaxBytes {
		t.queuedBytes.Add(-cost)
		t.drops.Add(1)
		return
	}
	t.closeMu.RLock()
	defer t.closeMu.RUnlock()
	if t.closed {
		t.queuedBytes.Add(-cost)
		t.drops.Add(1)
		return
	}
	select {
	case t.queue <- spillItem{layer: layer, key: key, body: body}:
	default:
		t.queuedBytes.Add(-cost)
		t.drops.Add(1)
	}
}

func (t *spillTier) writeLoop() {
	defer close(t.done)
	for it := range t.queue {
		if !t.store.Layer(it.layer).Put(it.key, it.body) {
			t.failedWrites.Add(1)
		}
		t.queuedBytes.Add(-int64(len(it.key) + len(it.body)))
	}
}

// spillGet consults the disk tier for key in one layer. Its caller,
// readThrough, sits inside a singleflight fill closure, so a hit is
// promoted back into the memory tier by the insert that follows.
func (s *Server) spillGet(layer byte, key string) ([]byte, bool) {
	t := s.spill
	if t == nil {
		return nil, false
	}
	return t.store.Layer(layer).Get(key)
}

// spillOpenStream pins a CRC-verified streaming handle for key in one
// layer, so the body can be written from disk (Entry.WriteTo) without
// materializing it. key is read in place and not kept. nil when spill is
// off or the key misses.
func (s *Server) spillOpenStream(layer byte, key []byte) (*spill.Entry, bool) {
	t := s.spill
	if t == nil {
		return nil, false
	}
	return t.store.Layer(layer).OpenVerifiedBytes(key)
}

// spillBegin starts a streamed tee of a batch response into the spill
// tier under key in one layer; the store copies key into the record head
// and does not keep it. nil when spill is off or the store refuses the tee
// while its unlink backlog is past its bound (callers must tolerate nil).
func (s *Server) spillBegin(layer byte, key []byte) *spill.Appender {
	t := s.spill
	if t == nil {
		return nil
	}
	return t.store.Layer(layer).BeginBytes(key)
}

// SpillStats is the /v1/statz view of the on-disk spill tier.
type SpillStats struct {
	Enabled          bool   `json:"enabled"`
	WriteThrough     bool   `json:"write_through"`
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Writes           uint64 `json:"writes"`
	DroppedWrites    uint64 `json:"dropped_writes"` // offers dropped at the hand-off queue
	FailedWrites     uint64 `json:"failed_writes"`  // store.Put failures in the writer/flush
	FlushedWrites    uint64 `json:"flushed_writes"` // entries the shutdown flush made durable
	Rejected         uint64 `json:"rejected"`       // entries over the whole disk budget
	Corrupt          uint64 `json:"corrupt"`        // CRC failures read as misses
	RetiredSegments  uint64 `json:"retired_segments"`
	RefusedWrites    uint64 `json:"refused_writes"`     // stream tees and request-path puts refused past the unlink bound
	ReapBacklogBytes int64  `json:"reap_backlog_bytes"` // retired segment bytes still waiting to be unlinked
	Segments         int    `json:"segments"`
	Entries          int    `json:"entries"`
	Bytes            int64  `json:"bytes"`
	DeadBytes        int64  `json:"dead_bytes"` // rewritten, colliding or corrupt records left until their segment retires
	MaxBytes         int64  `json:"max_bytes"`
	IndexBytes       int64  `json:"index_bytes"`
	MaxIndexBytes    int64  `json:"max_index_bytes"`
}

// SpillStatsNow snapshots the spill tier's statz block (zero value when
// the tier is off) — the handle cmd/benchserve's sweep regime asserts hit
// and corruption counters through, like Cluster().Stats() for the fleet.
func (s *Server) SpillStatsNow() SpillStats { return s.spillStats() }

func (s *Server) spillStats() SpillStats {
	t := s.spill
	if t == nil {
		return SpillStats{}
	}
	st := t.store.Stats()
	return SpillStats{
		Enabled:          true,
		WriteThrough:     t.writeThrough,
		Hits:             st.Hits,
		Misses:           st.Misses,
		Writes:           st.Writes,
		DroppedWrites:    t.drops.Load(),
		FailedWrites:     t.failedWrites.Load(),
		FlushedWrites:    t.flushed.Load(),
		Rejected:         st.Rejected,
		Corrupt:          st.Corrupt,
		RetiredSegments:  st.RetiredSegments,
		RefusedWrites:    st.Refused,
		ReapBacklogBytes: st.ReapBytes,
		Segments:         st.Segments,
		Entries:          st.Entries,
		Bytes:            st.DiskBytes,
		DeadBytes:        st.DeadBytes,
		MaxBytes:         st.MaxBytes,
		IndexBytes:       st.IndexBytes,
		MaxIndexBytes:    st.MaxIndexBytes,
	}
}
