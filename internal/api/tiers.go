package api

// The read order of the response tiers, in one place. Every cached handler
// layer — the /v1/measure raw front and canonical layer, the
// /v1/compare·/v1/speedup raw front, and the /v1/batch body front — resolves
// a key by calling readThrough with the tiers it uses. Only three readers
// go around it: batch fragments (memory only, probeFragment), the streamed
// batch spill hit in serveBatch (never promoted), and the peer endpoints,
// which answer from this replica's memory and disk and never evaluate.

// source names the tier that answered a readThrough.
type source uint8

const (
	fromMemory    source = iota // a resident entry, at the probe or the fill's re-check
	fromCoalesced               // another request's in-flight fill of the same key
	fromSpill                   // the on-disk tier, promoted into memory by the fill
	fromPeer                    // the key's owning replica, promoted likewise
	fromCompute                 // the caller's compute
)

// readThrough resolves key through the tiers in their one order: the memory
// cache c; then, as the key's singleflight leader, the spill tier under
// spillLayer (0 skips it), the owning replica under the peer layer (0 skips
// it; so does a single-replica server), and finally compute. A body compute
// produced for a peer-owned key is pushed to the owner once, so the fleet
// still converges on one evaluation per key. Spill and peer bodies are
// stored verbatim and promoted into memory by the fill; a spill body is
// marked on disk there, so c's sinks never offer it back to spill. An
// error from compute reaches every coalesced waiter and is never cached.
//
// A computed body reaches spillLayer through c's sinks when c keeps it. One
// c cannot keep — c is off, or the entry is over its shard's byte budget —
// is written to spillLayer here, once, so a repeat reads it from disk
// instead of evaluating again. The write is a TryPut: while the store's
// unlink backlog is past its bound it is skipped, not waited for. Callers
// name a spill layer only for keys its reads look up (the raw layer's only
// at rawFastPathMinQuery bytes and up), so this write adds no record no
// read would find.
//
// A []byte key is probed without copying. On a miss it is copied once,
// into a string that keys the spill read and the memory entry alike when
// the spill tier is consulted, else by the fill's insert. A string key is
// never copied.
func readThrough[K cacheKey](s *Server, c *responseCache, h uint64, key K, spillLayer, peer byte, compute func() ([]byte, int64, error)) ([]byte, int64, source, error) {
	if body, meta, ok := get(c, h, key); ok {
		return body, meta, fromMemory, nil
	}
	src := fromMemory
	useSpill := s.spill != nil && spillLayer != 0
	var spillKey string
	miss := func() ([]byte, int64, bool, error) {
		if useSpill {
			if b, ok := s.spillGet(spillLayer, spillKey); ok {
				src = fromSpill
				return b, 0, true, nil
			}
		}
		var owner string
		var kb []byte
		if cl := s.cluster; cl != nil && peer != 0 {
			if o, self := cl.Owner(h); !self {
				kb = []byte(key)
				if b, ok := cl.Fetch(o, peer, kb); ok {
					src = fromPeer
					return b, 0, false, nil
				}
				owner = o
			}
		}
		src = fromCompute
		body, meta, err := compute()
		if err != nil {
			return nil, 0, false, err
		}
		if owner != "" {
			s.cluster.Push(owner, peer, kb, body)
		}
		if useSpill && !c.admits(h, spillKey, body) {
			s.spill.store.Layer(spillLayer).TryPut(spillKey, body)
		}
		return body, meta, false, nil
	}
	var body []byte
	var meta int64
	var coalesced bool
	var err error
	if useSpill {
		spillKey = string(key)
		body, meta, coalesced, err = fill(c, h, spillKey, miss)
	} else {
		body, meta, coalesced, err = fill(c, h, key, miss)
	}
	if coalesced {
		src = fromCoalesced
	}
	return body, meta, src, err
}

// statusError carries a non-200 outcome through a layer's singleflight so
// every coalesced waiter of a malformed herd receives the same status and
// message, and nothing is cached.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// errStatus turns a readThrough error into a status and message: a
// statusError's own, else 500.
func errStatus(err error) (int, string) {
	if se, ok := err.(*statusError); ok {
		return se.status, se.msg
	}
	return 500, err.Error()
}
