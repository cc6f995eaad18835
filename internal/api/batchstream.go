package api

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/profile"
	"hetero/internal/spill"
)

// The streaming render path for POST /v1/batch. The buffered path
// (batchpath.go) assembles the whole response — up to MaxBatchProfiles
// large-n fragments — in one []byte before writing, so its peak memory is
// O(sum of fragment sizes): exactly where the paper's workload model (batch
// evaluation over many heterogeneity profiles) pushes hardest. This file
// renders the same bytes incrementally: the `{"count":N,"results":[`
// envelope goes out first, then each per-profile fragment is rendered into
// a small reusable buffer, written, and flushed, so peak memory is O(the
// largest single fragment) no matter how many profiles the batch carries.
//
// The streamed bytes are bit-identical to the buffered rendering on
// success — both splice the same appendMeasureResponse fragments into the
// same frame, and incr.MeasureProfile is worker-count invariant — so the
// buffered golden test (batch ≡ spliced per-profile measure) doubles as the
// streaming oracle. What streaming gives up is cacheability: bytes that
// were never assembled cannot be admitted to the raw body-front, so
// responses *worth caching* (small enough to buffer) keep the buffered
// path, and the two are arbitrated by incr.ScheduleBatch's work-units
// heuristic against StreamBatchThreshold.
//
// Errors after the first flushed byte cannot become an HTTP error status;
// the JSON is instead terminated with a structured trailer object (see
// writeStreamTrailer) that tells the client the results array is truncated
// and why.

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

// shouldStreamBatch decides stream-vs-buffer for one decoded batch from the
// same work-units estimate incr.ScheduleBatch plans evaluation with.
func (s *Server) shouldStreamBatch(profiles []profile.Profile) bool {
	return incr.WorkUnits(profiles) >= s.streamBatchThreshold()
}

// serveBatchLarge handles POST /v1/batch bodies large enough that the
// response may stream (handleBatch routes smaller bodies — which can never
// reach the work-units threshold — through the buffered BatchBody). The
// raw body-front is still consulted first: a hit serves cached (buffered)
// bytes without decoding; on a miss the body is decoded once and the
// work-units estimate picks the render path.
//
// A front hit probes with the body bytes and copies nothing. A miss copies
// the body once, into a string key that the spill stream, the spill tee and
// the front's fill all share: that is the path's one O(body) allocation.
func (s *Server) serveBatchLarge(w http.ResponseWriter, r *http.Request, body []byte) {
	front := len(body) >= batchRawMinBody && s.batchRawCache.capacity > 0
	var key string
	h := hashKey(body)
	if front {
		if resp, meta, ok := get(s.batchRawCache, h, body); ok {
			s.noteBatchSource(resp, meta, fromMemory)
			writeRawJSON(w, http.StatusOK, resp)
			return
		}
		key = string(body)
		// Spill tier: a response for these exact body bytes — evicted from
		// the memory front or teed off an earlier stream — serves straight
		// from the segment reader, fragment-by-fragment, before any decode.
		// Peak memory stays O(chunk); the entry is NOT promoted to memory
		// (promotion would re-materialize an O(response) body). The
		// record's CRC and key were fully verified by OpenVerified before
		// the first byte goes out, so corruption can never reach a client —
		// it reads as a miss and the request falls through to evaluation.
		if ent, ok := s.spillOpenStream(spillLayerBatch, key); ok {
			defer ent.Close()
			s.batchStreamed.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_ = s.copySpillStream(w, flusher(w), ent)
			return
		}
	}
	// Every request decodes for itself: it needs the profiles anyway to
	// learn whether the response streams.
	m, profiles, status, msg := s.decodeBatchRequest(body)
	if status != 0 {
		writeError(w, status, msg)
		return
	}
	s.noteBatch(len(profiles))
	if s.shouldStreamBatch(profiles) {
		s.streamBatch(r.Context(), w, m, profiles, key)
		return
	}
	if !front {
		writeRawJSON(w, http.StatusOK, s.renderBatchBuffered(m, profiles))
		return
	}
	// The spill tier was read above as a stream, so the buffered fill skips
	// it; a herd of identical misses still renders once.
	resp, _, src, err := readThrough(s, s.batchRawCache, h, key, 0, 0, func() ([]byte, int64, error) {
		return s.renderBatchBuffered(m, profiles), int64(len(profiles)), nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if src == fromMemory || src == fromCoalesced {
		s.batchRawHits.Add(1)
	}
	writeRawJSON(w, http.StatusOK, resp)
}

// streamBatch writes one decoded batch response incrementally to an HTTP
// response, flushing after every fragment so the peak buffered state —
// ours and net/http's — stays O(one fragment). A non-empty key (the request
// body) also copies the streamed bytes into a spill appender
// (its private segment file), committed only when the stream completes
// cleanly — an error trailer or snapped connection aborts the tee so no
// truncated response can ever be served later.
func (s *Server) streamBatch(ctx context.Context, w http.ResponseWriter, m model.Params, profiles []profile.Profile, key string) {
	if err := ctx.Err(); err != nil {
		// Nothing written yet: a plain error status is still possible.
		writeError(w, http.StatusServiceUnavailable, "request cancelled before streaming began")
		return
	}
	s.batchStreamed.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	dst := io.Writer(w)
	var ap *spill.Appender
	if key != "" {
		if ap = s.spillBegin(spillLayerBatch, key); ap != nil {
			// Appender writes never fail the client stream: errors are
			// remembered inside and surface as a failed Commit.
			dst = io.MultiWriter(w, ap)
		}
	}
	// A write error means the client is gone; there is no one to deliver a
	// trailer to, so the error is dropped after the stream is abandoned.
	err := s.writeBatchStream(ctx, dst, flusher(w), m, profiles)
	if ap != nil {
		if err == nil {
			ap.Commit()
		} else {
			ap.Abort()
		}
	}
}

// flusher returns w's Flush, or a no-op when w cannot flush.
func flusher(w http.ResponseWriter) func() {
	if f, ok := w.(http.Flusher); ok {
		return f.Flush
	}
	return func() {}
}

// spillStreamChunk is the read-copy granularity for serving a spilled
// batch response; it bounds the serve path's peak memory per request.
const spillStreamChunk = 64 << 10

// copySpillStream copies a verified spill entry to w in fixed-size
// chunks, sniffing the profile count off the first chunk for the batch
// statz counters. A mid-copy read error (the segment was pre-verified,
// so only hardware faults remain) abandons the stream like a snapped
// client connection.
func (s *Server) copySpillStream(w io.Writer, flush func(), ent *spill.Entry) error {
	buf := make([]byte, spillStreamChunk)
	var off int64
	for off < ent.BodyLen() {
		n, err := ent.ReadBodyAt(buf, off)
		if n > 0 {
			if off == 0 {
				if c, ok := batchCountFromBody(buf[:n]); ok {
					s.noteBatch(c)
				} else {
					s.batchRequests.Add(1)
					s.batchProfilesUnknown.Add(1)
				}
			}
			if _, werr := w.Write(buf[:n]); werr != nil {
				return werr
			}
			flush()
			off += int64(n)
		}
		if err != nil && off < ent.BodyLen() {
			return err
		}
	}
	return nil
}

// BatchBodyStream runs the POST /v1/batch hot path for a raw request body
// with the streaming renderer, writing the response to w instead of
// assembling it. A non-200 status means the request was rejected before
// any byte was written (msg describes why, nothing reaches w). Status 200
// with a nil error means the complete response — bit-identical to
// BatchBody's — was written; a non-nil error means the stream terminated
// early with the structured JSON trailer (context cancellation) or an
// unfinished body (write failure). It exists so cmd/benchbatch and the
// equivalence/fuzz tests can drive the streaming engine free of net/http.
func (s *Server) BatchBodyStream(ctx context.Context, w io.Writer, body []byte) (status int, msg string, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Spill tier (only when enabled — with spill off this path is
	// byte-for-byte the historical one): serve a stored response for
	// these exact body bytes fragment-by-fragment from the segment
	// reader, or tee the freshly rendered stream into the spill store.
	key := ""
	if s.spill != nil && len(body) >= batchRawMinBody {
		key = string(body)
		if ent, ok := s.spillOpenStream(spillLayerBatch, key); ok {
			s.batchStreamed.Add(1)
			err := s.copySpillStream(w, func() {}, ent)
			ent.Close()
			return http.StatusOK, "", err
		}
	}
	m, profiles, status, msg := s.decodeBatchRequest(body)
	if status != 0 {
		return status, msg, nil
	}
	s.noteBatch(len(profiles))
	s.batchStreamed.Add(1)
	dst := w
	var ap *spill.Appender
	if key != "" {
		if ap = s.spillBegin(spillLayerBatch, key); ap != nil {
			dst = io.MultiWriter(w, ap)
		}
	}
	err = s.writeBatchStream(ctx, dst, func() {}, m, profiles)
	if ap != nil {
		if err == nil {
			ap.Commit()
		} else {
			ap.Abort()
		}
	}
	return http.StatusOK, "", err
}

// writeBatchStream is the incremental renderer: envelope, then one
// fragment at a time from a reusable buffer, then the closing frame. The
// produced bytes match renderBatchBuffered exactly on success.
//
// Dedupe still evaluates each distinct profile once: a fragment whose
// profile recurs later in the batch is retained (a stable copy when it was
// rendered into the scratch buffer) until its last use is written, then
// released — so retention is bounded by the duplicated uniques actually in
// flight, and a fully distinct sweep retains nothing.
//
// Cancellation is checked before each fragment's evaluation, so a client
// disconnect aborts the per-profile work promptly instead of evaluating
// the remaining profiles into a dead socket.
func (s *Server) writeBatchStream(ctx context.Context, w io.Writer, flush func(), m model.Params, profiles []profile.Profile) error {
	uniq, canon, dups := dedupeProfiles(profiles)
	s.batchDeduped.Add(uint64(dups))
	lastUse := make([]int, len(uniq))
	for i, u := range canon {
		lastUse[u] = i
	}
	held := make([][]byte, len(uniq))

	scratch := make([]byte, 0, 4096)
	env := make([]byte, 0, 32)
	env = append(env, `{"count":`...)
	env = strconv.AppendInt(env, int64(len(profiles)), 10)
	env = append(env, `,"results":[`...)
	if _, err := w.Write(env); err != nil {
		return err
	}
	for i := range profiles {
		if err := ctx.Err(); err != nil {
			return s.writeStreamTrailer(w, flush, i, err)
		}
		u := canon[i]
		frag := held[u]
		if frag == nil {
			var stable bool
			frag, stable = s.renderStreamFragment(&scratch, m, profiles[uniq[u]])
			if lastUse[u] > i {
				if !stable {
					cp := make([]byte, len(frag))
					copy(cp, frag)
					frag = cp
				}
				held[u] = frag
			}
		}
		if i > 0 {
			if _, err := w.Write(commaByte); err != nil {
				return err
			}
		}
		// Each fragment is a full measure body; the trailing newline only
		// belongs to the end of the response.
		if _, err := w.Write(frag[:len(frag)-1]); err != nil {
			return err
		}
		if lastUse[u] == i {
			held[u] = nil
		}
		flush()
	}
	if _, err := w.Write(closeFrame); err != nil {
		return err
	}
	flush()
	return nil
}

var (
	commaByte  = []byte{','}
	closeFrame = []byte("]}\n")
)

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

// renderStreamFragment renders the measure body for one profile
// (newline-terminated, like every fragment). Cache-eligible profiles go
// through cachedFragment exactly as the buffered path does — the returned
// body is then cache-owned and stable. Otherwise the fragment is rendered
// into the caller's reusable scratch buffer (stable = false: the bytes are
// only valid until the next render, so callers retaining them must copy).
// The result is worker-count invariant, which is what keeps streamed bytes
// bit-identical to buffered ones.
func (s *Server) renderStreamFragment(scratch *[]byte, m model.Params, p profile.Profile) (frag []byte, stable bool) {
	if key := s.fragmentKey(m, p); key != nil {
		return s.cachedFragment(key, func() []byte { return renderFragment(m, p, fragmentWorkers(p)) })
	}
	fm := incr.MeasureProfile(m, p, fragmentWorkers(p))
	*scratch = appendMeasureResponse((*scratch)[:0], p, fm)
	return *scratch, false
}
