package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Peer-protocol defaults. The hedge delay follows the tail-at-scale rule of
// thumb — hedge after roughly the expected p95 of a healthy loopback/LAN
// fetch, so hedges are rare under normal operation but cap the tail when the
// owner stalls. The timeout bounds the whole fetch (both attempts) so a
// degraded fleet degrades to local evaluation, never to unavailability.
const (
	DefaultHedgeDelay = 2 * time.Millisecond
	DefaultTimeout    = 250 * time.Millisecond

	// maxPeerBody caps one fetched response body. Cached bodies are already
	// bounded by the owner's cache byte budget; the cap only guards against a
	// misbehaving endpoint streaming forever.
	maxPeerBody = 64 << 20
)

// Peer-protocol paths, mounted by internal/api on every replica. Both are
// POST with the key in the request body (canonical keys and raw-query keys
// run to hundreds of KB — far past safe request-line limits). The first
// byte of a get or put body is a layer byte that namespaces the caller's
// cache layers; this package passes it through without interpreting it.
//
//	get: layer ++ key
//	put: layer ++ uint32 big-endian len(key) ++ key ++ body (PutFrame)
const (
	PeerGetPath = "/internal/peer/get"
	PeerPutPath = "/internal/peer/put"
)

// PutFrame frames a put: the layer byte, the key's length as 4 big-endian
// bytes, the key, then the body. Keys may hold any byte, so the length and
// not a delimiter ends the key.
func PutFrame(layer byte, key, body []byte) []byte {
	framed := make([]byte, 0, 5+len(key)+len(body))
	framed = append(framed, layer)
	framed = binary.BigEndian.AppendUint32(framed, uint32(len(key)))
	framed = append(framed, key...)
	return append(framed, body...)
}

// ParsePutFrame splits a PutFrame. It fails unless the frame holds a
// layer byte, a length prefix, a non-empty key of that length and a
// non-empty body. A length prefix that overruns the frame fails too; so
// does a frame in the old newline framing (layer ++ key ++ '\n' ++ body),
// whose first four key bytes, being printable, read as a length over
// 500 MB.
func ParsePutFrame(frame []byte) (layer byte, key, body []byte, err error) {
	if len(frame) < 5 {
		return 0, nil, nil, fmt.Errorf("want layer byte + key length + key + body")
	}
	n := binary.BigEndian.Uint32(frame[1:5])
	if n == 0 || uint64(n) >= uint64(len(frame)-5) {
		return 0, nil, nil, fmt.Errorf("key length %d leaves no key or no body in a %d-byte frame", n, len(frame))
	}
	return frame[0], frame[5 : 5+n], frame[5+n:], nil
}

// Config configures a fleet's peer tier.
type Config struct {
	// Self is this replica's own address (host:port) as it appears in Peers.
	Self string
	// Peers is the full fleet membership, host:port per replica. Self is
	// added if absent. Every replica must be configured with the same set.
	Peers []string
	// HedgeDelay is how long a fetch waits on its first request before
	// issuing the hedged second one; 0 means DefaultHedgeDelay, negative
	// disables hedging.
	HedgeDelay time.Duration
	// Timeout bounds one whole fetch or push (all attempts); 0 means
	// DefaultTimeout.
	Timeout time.Duration
	// VNodes is the virtual-node count per member; 0 means
	// DefaultVirtualNodes.
	VNodes int
}

// PeerStat is one peer's client-side counters, snapshotted for /v1/statz.
type PeerStat struct {
	Addr       string `json:"addr"`
	Hits       uint64 `json:"hits"`        // fetches answered 200 (cached bytes served)
	Misses     uint64 `json:"misses"`      // fetches answered 404 (owner cold)
	Hedges     uint64 `json:"hedges"`      // hedged second requests issued
	HedgeWins  uint64 `json:"hedge_wins"`  // fetches whose winning response came from the hedge
	Fallbacks  uint64 `json:"fallbacks"`   // fetches that fell back to local evaluation (miss or error)
	Errors     uint64 `json:"errors"`      // fetches that failed outright (timeout, refused, bad status)
	Pushes     uint64 `json:"pushes"`      // locally computed bodies offered to this owner
	PushErrors uint64 `json:"push_errors"` // offers that failed (never fatal to the request)
}

// peerCounters is the live atomic form of PeerStat.
type peerCounters struct {
	hits, misses, hedges, hedgeWins, fallbacks, errors, pushes, pushErrors atomic.Uint64
}

// Peers is the peer tier of one replica: the ring plus the HTTP client and
// per-peer counters. Immutable after New (counters aside), safe for
// concurrent use.
type Peers struct {
	ring     *Ring
	cfg      Config
	client   *http.Client
	counters map[string]*peerCounters
}

// New builds the peer tier. Config.Self and at least one other member are
// required — a one-replica "fleet" has no peers to fetch from.
func New(cfg Config) (*Peers, error) {
	ring, err := NewRing(cfg.Self, cfg.Peers, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	if ring.Size() < 2 {
		return nil, fmt.Errorf("cluster: -peers lists no replica besides self %q", cfg.Self)
	}
	if cfg.HedgeDelay == 0 {
		cfg.HedgeDelay = DefaultHedgeDelay
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = DefaultTimeout
	}
	p := &Peers{
		ring: ring,
		cfg:  cfg,
		client: &http.Client{
			Transport: &http.Transport{
				MaxIdleConns:        4 * ring.Size(),
				MaxIdleConnsPerHost: 8,
				IdleConnTimeout:     90 * time.Second,
			},
		},
		counters: make(map[string]*peerCounters, ring.Size()),
	}
	for _, m := range ring.Members() {
		p.counters[m] = &peerCounters{}
	}
	return p, nil
}

// Ring exposes the membership ring (ownership checks, statz).
func (p *Peers) Ring() *Ring { return p.ring }

// Self returns this replica's own address.
func (p *Peers) Self() string { return p.ring.Self() }

// Owner maps a key hash to its owning replica; self reports whether it is us.
func (p *Peers) Owner(h uint64) (addr string, self bool) { return p.ring.Owner(h) }

// fetchResult is one attempt's outcome inside a hedged fetch.
type fetchResult struct {
	body   []byte
	status int
	err    error
	hedged bool
}

// Fetch asks owner for the cached bytes under key in the given layer, with a
// hedged second request after HedgeDelay (first response wins; the loser is
// canceled through the shared context). ok = false means the caller must
// evaluate locally — the owner was cold (404), unreachable, or slow past
// Timeout; Fetch never returns partial bytes. The key is copied before any
// goroutine can outlive the call, so callers may pass pooled scratch.
func (p *Peers) Fetch(owner string, layer byte, key []byte) (body []byte, ok bool) {
	c := p.counters[owner]
	if c == nil {
		return nil, false // not a member; cannot happen with ring-derived owners
	}
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()

	// The request body is layer + key; copy once and share it between the
	// primary and the hedge (bytes.Reader is per-attempt).
	framed := make([]byte, 0, len(key)+1)
	framed = append(framed, layer)
	framed = append(framed, key...)

	results := make(chan fetchResult, 2)
	attempt := func(hedged bool) {
		body, status, err := p.do(ctx, owner, PeerGetPath, framed)
		results <- fetchResult{body: body, status: status, err: err, hedged: hedged}
	}
	go attempt(false)

	outstanding := 1
	var timerC <-chan time.Time
	if p.cfg.HedgeDelay > 0 {
		timer := time.NewTimer(p.cfg.HedgeDelay)
		defer timer.Stop()
		timerC = timer.C
	}
	for {
		select {
		case r := <-results:
			outstanding--
			if r.err == nil {
				// First completed response wins, whatever it says; cancel the
				// loser (ctx) via the deferred cancel on return.
				if r.hedged {
					c.hedgeWins.Add(1)
				}
				switch r.status {
				case http.StatusOK:
					c.hits.Add(1)
					return r.body, true
				case http.StatusNotFound:
					c.misses.Add(1)
					c.fallbacks.Add(1)
					return nil, false
				}
				// Unexpected status from a live peer: treat as an error but
				// keep waiting if another attempt is still in flight.
				r.err = fmt.Errorf("peer %s: status %d", owner, r.status)
			}
			if outstanding == 0 {
				_ = r.err
				c.errors.Add(1)
				c.fallbacks.Add(1)
				return nil, false
			}
		case <-timerC:
			timerC = nil
			c.hedges.Add(1)
			outstanding++
			go attempt(true)
		}
	}
}

// Push offers a locally computed body to the key's owner so the fleet warms
// once even when the first toucher was not the owner. Synchronous but
// bounded by Timeout, and best-effort: an error is counted, never surfaced —
// the caller already has the body it needs. Key and body are copied into the
// request before return.
func (p *Peers) Push(owner string, layer byte, key, body []byte) {
	c := p.counters[owner]
	if c == nil {
		return
	}
	c.pushes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), p.cfg.Timeout)
	defer cancel()
	_, status, err := p.do(ctx, owner, PeerPutPath, PutFrame(layer, key, body))
	if err != nil || status != http.StatusNoContent {
		c.pushErrors.Add(1)
	}
}

// do issues one POST of body to owner+path and reads the (bounded) response.
func (p *Peers) do(ctx context.Context, owner, path string, reqBody []byte) (body []byte, status int, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+owner+path, bytes.NewReader(reqBody))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody+1))
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if len(out) > maxPeerBody {
		return nil, resp.StatusCode, fmt.Errorf("peer %s: response exceeds %d bytes", owner, maxPeerBody)
	}
	return out, resp.StatusCode, nil
}

// Stats snapshots every peer's client-side counters, self excluded (a
// replica never fetches from itself), sorted by address.
func (p *Peers) Stats() []PeerStat {
	out := make([]PeerStat, 0, p.ring.Size()-1)
	for _, m := range p.ring.Members() {
		if m == p.ring.Self() {
			continue
		}
		c := p.counters[m]
		out = append(out, PeerStat{
			Addr:       m,
			Hits:       c.hits.Load(),
			Misses:     c.misses.Load(),
			Hedges:     c.hedges.Load(),
			HedgeWins:  c.hedgeWins.Load(),
			Fallbacks:  c.fallbacks.Load(),
			Errors:     c.errors.Load(),
			Pushes:     c.pushes.Load(),
			PushErrors: c.pushErrors.Load(),
		})
	}
	return out
}

// HedgeDelay and Timeout expose the resolved tuning (statz, tests).
func (p *Peers) HedgeDelay() time.Duration { return p.cfg.HedgeDelay }
func (p *Peers) Timeout() time.Duration    { return p.cfg.Timeout }
