package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/parallel"
	"hetero/internal/profile"
	"hetero/internal/spill"
)

// The one /v1/batch renderer. writeBatch writes the response for a decoded
// batch in request order — the `{"count":N,"results":[` envelope, one
// appendMeasureResponse fragment per profile, the closing frame — and
// evaluates it a window of consecutive profiles at a time. The results
// return in dispatch order over one channel, as in the paper's FIFO
// protocols; the window is the period/latency trade-off of pipeline mapping
// (Benoit, Rehn-Sonigo & Robert): a larger window offers more fragments to
// evaluate at once, a smaller one holds fewer bytes and sends the first one
// sooner. The sink fixes the window:
//
//   - A buffer takes the whole batch as one window: every distinct profile
//     is scheduled at once and the body is assembled for the memory front.
//     Peak memory is O(sum of fragments).
//   - A stream takes one fragment per window, flushed as it is written:
//     peak memory is O(the largest fragment), however many profiles the
//     batch carries. Inside a large fragment the chunked kernel, the
//     chunk-parallel decode and the chunked echo still use every core.
//
// Within a window the distinct profiles that first appear there are
// resolved from the canonical cache, and the misses are evaluated on the
// plan incr.ScheduleBatch picks. A fragment whose profile recurs later is
// held until its last use is written, so a fully distinct sweep holds
// nothing between windows. incr.MeasureProfile is worker-count invariant,
// so every window and every schedule writes the same bytes — the golden
// tests hold both sinks to spliced per-profile /v1/measure bodies.
//
// A stream that fails after its first byte cannot become an HTTP error
// status; the JSON is terminated with a structured trailer instead (see
// writeStreamTrailer).

// DefaultStreamBatchThreshold is the work-units estimate (incr.WorkUnits:
// one unit per ρ-value) at which a /v1/batch response streams instead of
// buffering, when the Server does not override it. One unit costs ~19
// bytes of rendered response at full float precision, so the default —
// one million units — streams responses past roughly 20 MB while smaller
// (cacheable) responses keep the buffered raw-body-front treatment.
const DefaultStreamBatchThreshold = 1 << 20

// streamBatchThreshold resolves the Server's streaming threshold:
// 0 means the package default, negative disables streaming entirely.
func (s *Server) streamBatchThreshold() int {
	switch {
	case s.StreamBatchThreshold > 0:
		return s.StreamBatchThreshold
	case s.StreamBatchThreshold < 0:
		return math.MaxInt
	}
	return DefaultStreamBatchThreshold
}

// BatchBodyStream runs the POST /v1/batch hot path for a raw request body
// with the stream sink, writing the response to w instead of assembling
// it. A non-200 status means the request was rejected before any byte was
// written (msg describes why, nothing reaches w). Status 200 with a nil
// error means the complete response — bit-identical to BatchBody's — was
// written; a non-nil error means the stream terminated early with the
// structured JSON trailer (context cancellation) or an unfinished body
// (write failure). It exists so cmd/benchbatch and the equivalence/fuzz
// tests can drive the streaming engine free of net/http.
func (s *Server) BatchBodyStream(ctx context.Context, w io.Writer, body []byte) (status int, msg string, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	status, resp, msg, err := s.serveBatch(ctx, body, w, func() {}, 0)
	if resp != nil {
		_, err = w.Write(resp)
	}
	return status, msg, err
}

// flusher returns w's Flush, or a no-op when w cannot flush.
func flusher(w http.ResponseWriter) func() {
	if f, ok := w.(http.Flusher); ok {
		return f.Flush
	}
	return func() {}
}

// spillCountSniff is how much of a spilled batch response is read to find
// its profile count for the statz counters: `{"count":N,` fits.
const spillCountSniff = 64

// copySpillStream writes a verified spill entry to w after counting it in
// the batch statz, from the count at the head of the stored response.
// When w is the http.ResponseWriter the response is framed by
// Content-Length, the stored body's length, so net/http hands the copy to
// sendfile(2) (Entry.WriteTo); a fresh stream stays chunked. A mid-copy
// read error (the segment was pre-verified, so only hardware faults
// remain) abandons the response short of its length, like a snapped
// client connection.
func (s *Server) copySpillStream(w io.Writer, ent *spill.Entry) error {
	var head [spillCountSniff]byte
	n, _ := ent.ReadBodyAt(head[:], 0)
	if c, ok := batchCountFromBody(head[:n]); ok {
		s.noteBatch(c)
	} else {
		s.batchRequests.Add(1)
		s.batchProfilesUnknown.Add(1)
	}
	if rw, ok := w.(http.ResponseWriter); ok {
		rw.Header().Set("Content-Length", strconv.FormatInt(ent.BodyLen(), 10))
	}
	_, err := ent.WriteTo(w)
	return err
}

var (
	commaByte  = []byte{','}
	closeFrame = []byte("]}\n")
)

// writeBatch is the one /v1/batch renderer: it writes the response for
// profiles to w in request order, evaluating window profiles at a time
// (see the file comment), and flushes after every window. Cancellation is
// checked before each window's evaluation, so a client that disconnects
// stops the work at the next window and the stream ends with the trailer.
// A sink that can Grow (a bytes.Buffer) is grown to each window's exact
// size before the window is written.
func (s *Server) writeBatch(ctx context.Context, w io.Writer, flush func(), window int, m model.Params, profiles []profile.Profile) error {
	uniq, canon, dups := dedupeProfiles(profiles)
	s.batchDeduped.Add(uint64(dups))
	lastUse := make([]int, len(uniq))
	for i, u := range canon {
		lastUse[u] = i
	}
	held := make([][]byte, len(uniq)) // resolved fragments still due
	frags := make([]fragment, 0, min(window, len(uniq)))
	scratch := make([]renderBuf, cap(frags)) // reused window to window
	env := make([]byte, 0, 32)
	env = append(env, `{"count":`...)
	env = strconv.AppendInt(env, int64(len(profiles)), 10)
	env = append(env, `,"results":[`...)
	if _, err := w.Write(env); err != nil {
		return err
	}
	for lo := 0; lo < len(profiles); lo += window {
		if err := ctx.Err(); err != nil {
			return s.writeStreamTrailer(w, flush, lo, err)
		}
		hi := min(lo+window, len(profiles))
		frags = frags[:0]
		for i := lo; i < hi; i++ {
			if u := canon[i]; uniq[u] == i {
				frags = append(frags, fragment{u: u, p: profiles[i]})
			}
		}
		s.resolveFragments(m, frags, scratch)
		size := len(closeFrame)
		for _, f := range frags {
			held[f.u] = f.body
		}
		for i := lo; i < hi; i++ {
			size += len(held[canon[i]])
		}
		if g, ok := w.(interface{ Grow(int) }); ok {
			g.Grow(size)
		}
		for i := lo; i < hi; i++ {
			u := canon[i]
			if i > 0 {
				if _, err := w.Write(commaByte); err != nil {
					return err
				}
			}
			// Each fragment is a full measure body; the trailing newline
			// only belongs to the end of the response.
			if _, err := w.Write(held[u][:len(held[u])-1]); err != nil {
				return err
			}
			if lastUse[u] == i {
				held[u] = nil
			}
		}
		// The next window reuses the render buffers: a fragment still due
		// keeps a copy.
		for _, f := range frags {
			if f.scratch && held[f.u] != nil {
				held[f.u] = bytes.Clone(f.body)
			}
		}
		flush()
	}
	if _, err := w.Write(closeFrame); err != nil {
		return err
	}
	flush()
	return nil
}

// fragment is one distinct profile of a batch on its way to the wire.
type fragment struct {
	u       int // index among the batch's distinct profiles
	p       profile.Profile
	key     []byte // canonical key; nil when the fragment bypasses the cache
	h       uint64 // hashKey(key)
	body    []byte // the rendered measure body, newline-terminated
	scratch bool   // body lives in a render buffer the next window reuses
}

// renderBuf is one window slot's key and body buffers, reused window to
// window.
type renderBuf struct{ key, body []byte }

// resolveFragments resolves one window's fragments: memory hits from the
// canonical cache first, then the misses on the plan incr.ScheduleBatch
// picks — large profiles one at a time with the pool turned inward (the
// chunked kernel), the rest fanned out largest-first, one worker each.
// Fragment k keys and renders into scratch[k]; the cache gets a copy of
// the body only when it admits the entry.
func (s *Server) resolveFragments(m model.Params, frags []fragment, scratch []renderBuf) {
	misses, last := 0, 0
	for k := range frags {
		if !s.probeFragment(m, &frags[k], &scratch[k].key) {
			misses, last = misses+1, k
		}
	}
	if misses == 0 {
		return
	}
	if misses == 1 {
		// A lone miss is its own plan — ScheduleBatch sends one profile
		// through the chunked kernel at or above the cutover and runs it on
		// one worker below — and a stream window has one miss at most, so
		// it skips building the plan.
		workers := 1
		if len(frags[last].p) >= incr.ScheduleLargeCutover {
			workers = 0
		}
		s.renderFragment(m, &frags[last], workers, &scratch[last].body)
		return
	}
	miss := make([]int, 0, misses)
	ps := make([]profile.Profile, 0, misses)
	for k := range frags {
		if frags[k].body == nil {
			miss = append(miss, k)
			ps = append(ps, frags[k].p)
		}
	}
	sched := incr.ScheduleBatch(ps, 0)
	for _, j := range sched.Large {
		k := miss[j]
		s.renderFragment(m, &frags[k], 0, &scratch[k].body)
	}
	weights := make([]int, len(sched.Small))
	for x, j := range sched.Small {
		weights[x] = len(ps[j])
	}
	parallel.ForEachLargestFirst(0, weights, func(x int) {
		k := miss[sched.Small[x]]
		s.renderFragment(m, &frags[k], 1, &scratch[k].body)
	})
}

// probeFragment resolves f from the canonical measure cache — the entries
// /v1/measure serves and fills — and reports whether it did. Batch
// fragments are memory-only: they never read the spill tier or peers. The
// key is built in *keyBuf, which the next window reuses.
func (s *Server) probeFragment(m model.Params, f *fragment, keyBuf *[]byte) bool {
	if f.key = s.fragmentKey(*keyBuf, m, f.p); f.key == nil {
		return false
	}
	*keyBuf = f.key
	f.h = hashKey(f.key)
	body, _, ok := get(s.cache, f.h, f.key)
	if ok {
		s.batchCanonHits.Add(1)
		f.body = body
	}
	return ok
}

// renderFragment evaluates f's profile with workers and renders its body
// into *buf. When f is keyed and its shard admits fragmentsPerShard entries
// of its size, an exact-size copy of the body is published through the
// cache's fill (which copies the key once, on insert) unless an entry or
// flight for the key got there first; either way f's body is then
// cache-owned. The copy keeps the render buffer's spare capacity, sized for
// full-precision ρ, out of the cache, whose byte budget counts only
// len(body). A larger entry is never offered, so the cache rejects nothing.
func (s *Server) renderFragment(m model.Params, f *fragment, workers int, buf *[]byte) {
	*buf = appendFragment(*buf, m, f.p, workers)
	f.body, f.scratch = *buf, true
	if f.key == nil || !s.cache.admits(f.h, fragmentsPerShard*entryCost(f.key, f.body)) {
		return
	}
	f.body, _, _, _ = fill(s.cache, f.h, f.key, func() ([]byte, int64, bool, error) {
		return append(make([]byte, 0, len(*buf)), *buf...), 0, false, nil
	})
	f.scratch = false
}

// appendFragment evaluates p and renders its measure body into dst's
// storage, growing it to the body's usual size first.
func appendFragment(dst []byte, m model.Params, p profile.Profile, workers int) []byte {
	fm := incr.MeasureProfile(m, p, workers)
	if est := 20 * (len(p) + 6); cap(dst) < est {
		dst = make([]byte, 0, est)
	}
	return appendMeasureResponse(dst[:0], p, fm)
}

// writeStreamTrailer terminates a partially streamed response as valid
// JSON: the results array is closed and a structured error object is
// appended, so a client sees
//
//	{"count":N,"results":[...],"error":{"message":M,"results_written":K}}
//
// with K < N — unambiguous truncation rather than a snapped connection.
// The returned error is the cause, so callers can report it.
func (s *Server) writeStreamTrailer(w io.Writer, flush func(), written int, cause error) error {
	msg, err := json.Marshal(cause.Error())
	if err != nil {
		msg = []byte(`"error"`)
	}
	t := make([]byte, 0, 48+len(msg))
	t = append(t, `],"error":{"message":`...)
	t = append(t, msg...)
	t = append(t, `,"results_written":`...)
	t = strconv.AppendInt(t, int64(written), 10)
	t = append(t, '}', '}', '\n')
	if _, werr := w.Write(t); werr != nil {
		return werr
	}
	flush()
	return cause
}
