package api

import (
	"net/http"
	"strconv"

	"hetero/internal/cluster"
)

// Fleet cache tier (see internal/cluster and DESIGN.md S31). When enabled,
// every cache key has one owning replica on a consistent-hash ring; a local
// miss on a peer-owned key fetches the owner's cached bytes (hedged) before
// evaluating, and a local evaluation of a peer-owned key offers the result
// to the owner afterwards — so a fleet of R replicas warms each distinct key
// once instead of R times. The peer protocol serves cached bytes only: a
// get can never trigger an evaluation on the owner, so a fleet-wide cold
// key can never amplify into a fan-out of evaluations.
//
// Both endpoints are POST with the key in the request body, first byte
// selecting the cache layer by its spill layer byte (layerCanonical or
// layerRaw; internal/cluster passes it through opaquely):
//
//	POST /internal/peer/get   body = layer ++ key
//	     → 200 + cached bytes, or 404 when the owner is cold
//	POST /internal/peer/put   body = cluster.PutFrame(layer, key, response-body)
//	     → 204, or 400 when this replica does not own the key / the key or
//	       frame is malformed (the key is length-prefixed, because a binary
//	       canonical key may hold any byte)
//
// The endpoints are internal: they are exempt from admission control (a
// saturated replica must still answer its peers cheaply) and trust their
// callers to be fleet members — puts are validated for ownership and (for
// the canonical layer) strict key canonicality, but bodies are accepted as
// rendered; the fleet shares one trust domain.

// EnableCluster attaches the peer tier. Call before serving traffic; the
// peer endpoints are always mounted and answer 404 (miss) until a tier is
// attached, so replicas may bind listeners first and learn the fleet
// membership second (as cmd/benchserve does).
func (s *Server) EnableCluster(p *cluster.Peers) { s.cluster = p }

// Cluster returns the attached peer tier (nil when clustering is off).
func (s *Server) Cluster() *cluster.Peers { return s.cluster }

// MeasureEvals reports how many profile evaluations this replica has run on
// the measure path (inline and coalesced-flush), whether or not clustering
// is enabled. The fleet benchmark sums it across replicas to certify that R
// replicas evaluate each distinct key ~once, not ~R times.
func (s *Server) MeasureEvals() uint64 { return s.measureEvals.Load() }

// peerLayer resolves a peer-protocol layer byte to its memory layer. Peers
// exchange the canonical and raw layers; /v1/batch bodies stay local.
func (s *Server) peerLayer(b byte) (memoryLayer, bool) {
	for _, l := range s.memoryLayers() {
		if l.layer == b && b != layerBatch {
			return l, true
		}
	}
	return memoryLayer{}, false
}

// handlePeerGet serves cached bytes to a fleet peer: 200 with the body on a
// warm key, 404 on a cold one (or when no tier is attached). It never
// evaluates — the never-worse guarantee of the tier rests on misses being
// cheap here.
func (s *Server) handlePeerGet(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	req, ok := s.readPostBody(w, r)
	if !ok {
		return
	}
	if len(req) < 2 {
		writeError(w, http.StatusBadRequest, "peer get: want layer byte + key")
		return
	}
	layer, key := req[0], req[1:]
	var body []byte
	var found bool
	if s.cluster != nil {
		l, ok := s.peerLayer(layer)
		if !ok {
			writeError(w, http.StatusBadRequest, "peer get: unknown layer")
			return
		}
		// A peer-served hit counts as a local cache hit and refreshes the
		// entry's LRU position: keys a fleet keeps asking for stay warm.
		body, _, found = get(l.cache, hashKey(key), key)
		if !found && s.servePeerGetFromSpill(w, layer, key) {
			return
		}
	}
	if !found {
		s.servedGetMisses.Add(1)
		w.WriteHeader(http.StatusNotFound)
		return
	}
	s.servedGets.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(body)
}

// servePeerGetFromSpill answers a peer get from the on-disk tier after the
// memory layers miss: an owner that has evicted a key it owns — or was
// restarted since serving it, in write-through mode — still serves the
// cached bytes without an evaluation, which is what keeps the fleet's
// ≤1.25-evals-per-key bound intact across restarts. The handle is fully
// CRC-verified before the first byte is written, so corruption degrades to
// a plain miss (never a bad byte), and the body is written from disk
// without being materialized (raw-front bodies can be large). The entry is
// deliberately not promoted back into memory: a key only peers are asking
// for should not displace this replica's own working set. Reports whether
// it wrote a response.
func (s *Server) servePeerGetFromSpill(w http.ResponseWriter, layer byte, key []byte) bool {
	ent, ok := s.spillOpenStream(layer, key)
	if !ok {
		return false
	}
	defer ent.Close()
	s.servedGetsSpill.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(ent.BodyLen(), 10))
	// The record was verified before the 200; a mid-stream read failure
	// truncates the response short of Content-Length, which the peer's HTTP
	// client surfaces as an error (and treats as a miss) — still never a
	// bad byte.
	ent.WriteTo(w)
	return true
}

// handlePeerPut accepts a response body a peer computed for a key this
// replica owns, warming the owner without an evaluation. Rejected (400) when
// no tier is attached, when this replica does not own the key, or when a
// canonical-layer key fails strict ParseCanonicalKey validation — a put can
// therefore only ever add an entry the owner could have computed itself.
func (s *Server) handlePeerPut(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		methodNotAllowed(w, http.MethodPost)
		return
	}
	req, ok := s.readPostBody(w, r)
	if !ok {
		return
	}
	reject := func(msg string) {
		s.rejectedPuts.Add(1)
		writeError(w, http.StatusBadRequest, msg)
	}
	if s.cluster == nil {
		reject("peer put: cluster tier not enabled")
		return
	}
	layer, key, body, err := cluster.ParsePutFrame(req)
	if err != nil {
		reject("peer put: " + err.Error())
		return
	}
	if _, self := s.cluster.Owner(hashKey(key)); !self {
		reject("peer put: not the owner of this key")
		return
	}
	l, ok := s.peerLayer(layer)
	switch {
	case !ok:
		reject("peer put: unknown layer")
		return
	case len(key) < l.minKey:
		// Peers exchange raw-front keys only at or above the threshold
		// (below it the canonical layer is the peer layer); a small raw
		// key is a protocol violation, not a cache policy question.
		reject("peer put: raw key below front-layer threshold")
		return
	case layer == layerCanonical:
		if _, _, err := ParseCanonicalKey(string(key)); err != nil {
			reject("peer put: " + err.Error())
			return
		}
	}
	put(l.cache, key, append([]byte(nil), body...))
	s.acceptedPuts.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

// ClusterStats is the /v1/statz view of the fleet cache tier. LocalEvals is
// reported even when the tier is disabled (the fleet benchmark's no-peer
// baseline needs it); everything else is zero until EnableCluster. The
// aggregate counters sum the per-peer client-side counters in Peers;
// ServedGets/AcceptedPuts count this replica's server side of the protocol.
type ClusterStats struct {
	Enabled         bool               `json:"enabled"`
	Self            string             `json:"self,omitempty"`
	Replicas        int                `json:"replicas,omitempty"`
	HedgeDelayMs    float64            `json:"hedge_delay_ms,omitempty"`
	TimeoutMs       float64            `json:"timeout_ms,omitempty"`
	LocalEvals      uint64             `json:"local_evals"`
	PeerHits        uint64             `json:"peer_hits"`
	PeerMisses      uint64             `json:"peer_misses"`
	Hedges          uint64             `json:"hedges"`
	HedgeWins       uint64             `json:"hedge_wins"`
	Fallbacks       uint64             `json:"fallbacks"`
	Errors          uint64             `json:"errors"`
	Pushes          uint64             `json:"pushes"`
	PushErrors      uint64             `json:"push_errors"`
	ServedGets      uint64             `json:"served_gets"`
	ServedGetsSpill uint64             `json:"served_gets_spill"`
	ServedGetMisses uint64             `json:"served_get_misses"`
	AcceptedPuts    uint64             `json:"accepted_puts"`
	RejectedPuts    uint64             `json:"rejected_puts"`
	Peers           []cluster.PeerStat `json:"peers,omitempty"`
}

// clusterStats assembles the statz block.
func (s *Server) clusterStats() ClusterStats {
	cs := ClusterStats{
		LocalEvals:      s.measureEvals.Load(),
		ServedGets:      s.servedGets.Load(),
		ServedGetsSpill: s.servedGetsSpill.Load(),
		ServedGetMisses: s.servedGetMisses.Load(),
		AcceptedPuts:    s.acceptedPuts.Load(),
		RejectedPuts:    s.rejectedPuts.Load(),
	}
	cl := s.cluster
	if cl == nil {
		return cs
	}
	cs.Enabled = true
	cs.Self = cl.Self()
	cs.Replicas = cl.Ring().Size()
	cs.HedgeDelayMs = float64(cl.HedgeDelay().Microseconds()) / 1e3
	cs.TimeoutMs = float64(cl.Timeout().Microseconds()) / 1e3
	cs.Peers = cl.Stats()
	for _, p := range cs.Peers {
		cs.PeerHits += p.Hits
		cs.PeerMisses += p.Misses
		cs.Hedges += p.Hedges
		cs.HedgeWins += p.HedgeWins
		cs.Fallbacks += p.Fallbacks
		cs.Errors += p.Errors
		cs.Pushes += p.Pushes
		cs.PushErrors += p.PushErrors
	}
	return cs
}
