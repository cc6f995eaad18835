package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync/atomic"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/parallel"
	"hetero/internal/profile"
	"hetero/internal/spill"
)

// The POST /v1/batch hot path. The paper makes cluster power a function of
// the profile alone, so the production traffic shape is "score a large
// population of profiles against one parameter set" — repeated sweeps where
// whole request bodies, individual profiles within a request, and profiles
// across requests all recur. One function, serveBatch, owns the path's tier
// order for all three entry points (the HTTP handler, BatchBody and
// BatchBodyStream, which only choose a sink): the memory body front, spill
// layer b, decode, and render through the one in-order writer
// (batchstream.go). Three reuse mechanisms sit on it:
//
//  1. A raw body-front cache: the exact request body is the key, so a
//     repeated sweep (identical bytes) is served without JSON decoding or
//     evaluation, singleflight-coalesced like the /v1/measure raw layer,
//     and backed by spill layer b when the spill tier is on.
//  2. Within-request dedupe: bit-identical profiles in one batch are
//     grouped by a float-bits hash and evaluated once.
//  3. The canonical measure cache: unique profiles of at least
//     batchCacheMinProfile ρ-values consult and populate the same
//     canonical-key cache /v1/measure uses, so a batch warm-up serves later
//     GET /v1/measure traffic and vice versa.
//
// Responses are assembled from the per-profile rendered fragments
// (appendMeasureResponse bytes, the same bodies the measure cache stores),
// byte-identical to json.Encoder on BatchResponse — the golden equivalence
// tests pin both identities.
//
// A body is decoded by recognizeBatch when it has the envelope clients send
// — {"profiles":[[ρ,...],...]} with at most one "params" object — in one
// scan that checks every token's JSON number grammar, parsing large profiles
// in chunks on the pool. Every other body, and every body it doubts, goes to
// decodeBatchReference (json.Unmarshal syntax-checks it first), the decoder
// of record: all error statuses and messages are its own.

// DefaultMaxBody caps every POST request body when the Server does not
// override it: 16 MiB, sized so a full MaxBatchProfiles batch of moderate
// profiles fits while a hostile stream cannot balloon decode memory. One
// cap covers all POST endpoints (/v1/batch, /v1/simulate/faulty,
// /v1/schedule, /v1/design) so raising it for batch traffic never leaves a
// stale per-endpoint cap behind.
const DefaultMaxBody = 16 << 20

// batchRawMinBody is the body length at which the raw body-front cache
// engages — same rationale and value as the measure raw layer's query gate:
// below it, decoding costs little and caching exact spellings would only
// dilute the LRU.
const batchRawMinBody = rawFastPathMinQuery

// batchCacheMinProfile is the smallest profile (in ρ-values) the batch path
// will read or write through the canonical measure cache. Below it the
// canonical key build and shard lock cost more than re-evaluating, and tiny
// batch entries would thrash the LRU that /v1/measure hits depend on.
const batchCacheMinProfile = 128

// fragmentsPerShard is how many entries of a batch fragment's size must fit
// one canonical-cache shard for the fragment to be cached. An entry over
// half a shard's byte budget leaves room for no other, so a sweep of such
// fragments would evict a shard's /v1/measure entries for one fragment
// after another, each replaced by the next fresh sweep.
const fragmentsPerShard = 2

// maxBody resolves the Server's unified POST body cap: MaxBody, or the
// package default when unset.
func (s *Server) maxBody() int {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return DefaultMaxBody
}

// BatchBody runs the POST /v1/batch hot path for a raw request body
// without the HTTP layer, with the buffer sink: it returns the HTTP status
// and, for status 200, the fully buffered response body
// (newline-terminated, matching json.Encoder). It exists so cmd/benchbatch
// and the equivalence tests can measure the batch engine proper, free of
// net/http overhead.
func (s *Server) BatchBody(body []byte) (status int, resp []byte, msg string) {
	status, resp, msg, _ = s.serveBatch(context.Background(), body, nil, nil, math.MaxInt)
	return status, resp, msg
}

// serveBatch owns the /v1/batch tier order for every entry point; the
// entry points only choose the sink. A body of at least threshold bytes
// may stream to w: it does when its decoded work units reach threshold too.
// Every other body is buffered. The answer is one of three:
//
//   - status ≠ 200: a rejection, with nothing written;
//   - status 200 and resp non-nil: a buffered response, not yet written;
//   - status 200 and resp nil: a response already streamed to w, err its
//     end (nil when complete).
//
// The tiers, in order, for bodies of at least batchRawMinBody (smaller
// ones decode and render directly):
//
//  1. The memory body front: the exact body bytes are the key, so a
//     repeated sweep costs one hash. The profile count rides on the
//     entry's meta, so a hit never re-parses bytes. A hit probes with the
//     body and copies nothing.
//  2. Spill layer b, when the tier is on. A body that may stream reads it
//     as a CRC-verified stream written to w from disk (copySpillStream)
//     and never promoted (promotion would re-materialize an O(response)
//     body); a buffered one reads it as a point read the memory front
//     promotes (a body that may stream but decodes to a buffered response
//     reads both: the stream before the decode, the point read after it).
//  3. Decode. A buffered body decodes inside the front's singleflight
//     fill, so a herd of it decodes once and a malformed one reaches every
//     waiter uncached; a body that may stream decodes first, to learn
//     whether it does.
//  4. Render, through writeBatch. A streamed response is teed into spill
//     b and committed only when complete. A buffered one reaches spill b
//     through readThrough: by the front's sinks when the front keeps it,
//     else written at once.
//
// The body itself is the key, and the stream path copies none of it: the
// stream probe reads it in place, and the tee copies it into the record
// head on disk. Neither keeps it, so a caller may reuse its body buffer
// once serveBatch returns. The buffered path copies it once, on a miss,
// in readThrough: the memory front keeps its key. With the front and the
// spill tier both off there is no key and no copy.
func (s *Server) serveBatch(ctx context.Context, body []byte, w io.Writer, flush func(), threshold int) (status int, resp []byte, msg string, err error) {
	var h uint64
	keyed := false
	if len(body) >= batchRawMinBody {
		h = hashKey(body)
		if resp, meta, ok := get(s.batchRawCache, h, body); ok {
			s.batchRawHits.Add(1)
			s.noteBatchCached(resp, meta)
			return 200, resp, "", nil
		}
		keyed = s.batchRawCache.capacity > 0 || s.spill != nil
	}
	var (
		m        model.Params
		profiles []profile.Profile
		decoded  bool
	)
	if len(body) >= threshold {
		if keyed {
			if ent, ok := s.spillOpenStream(layerBatch, body); ok {
				defer ent.Close()
				s.batchStreamed.Add(1)
				return 200, nil, "", s.copySpillStream(w, ent)
			}
		}
		if m, profiles, status, msg = s.decodeBatchRequest(body); status != 0 {
			return status, nil, msg, nil
		}
		s.noteBatch(len(profiles))
		decoded = true
		if incr.WorkUnits(profiles) >= threshold {
			if ctx.Err() != nil {
				return http.StatusServiceUnavailable, nil, "request cancelled before streaming began", nil
			}
			s.batchStreamed.Add(1)
			// The spill tee: appender writes never fail the client's (an
			// appender error surfaces as a failed commit), and a response
			// that did not complete is aborted, never served later.
			dst := w
			var ap *spill.Appender
			if keyed {
				if ap = s.spillBegin(layerBatch, body); ap != nil {
					dst = io.MultiWriter(w, ap)
				}
			}
			err = s.writeBatch(ctx, dst, flush, 1, m, profiles)
			if ap != nil {
				if err == nil {
					ap.Commit()
				} else {
					ap.Abort()
				}
			}
			return 200, nil, "", err
		}
	}
	render := func() ([]byte, int64, error) {
		if !decoded {
			if m, profiles, status, msg = s.decodeBatchRequest(body); status != 0 {
				return nil, 0, &statusError{status: status, msg: msg}
			}
			s.noteBatch(len(profiles))
		}
		return s.renderBatchBuffered(m, profiles), int64(len(profiles)), nil
	}
	var meta int64
	src := fromCompute
	if !keyed {
		resp, meta, err = render()
	} else {
		resp, meta, src, err = readThrough(s, s.batchRawCache, h, body, layerBatch, false, render)
	}
	if err != nil {
		status, msg := errStatus(err)
		return status, nil, msg, nil
	}
	if src == fromMemory || src == fromCoalesced {
		s.batchRawHits.Add(1)
	}
	if src != fromCompute && !decoded {
		s.noteBatchCached(resp, meta)
	}
	return 200, resp, "", nil
}

// renderBatchBuffered renders a decoded batch with the buffer sink: the
// whole batch is one window, assembled in one buffer of its exact size.
func (s *Server) renderBatchBuffered(m model.Params, profiles []profile.Profile) []byte {
	var buf bytes.Buffer
	s.writeBatch(context.Background(), &buf, func() {}, len(profiles), m, profiles)
	return buf.Bytes()
}

// noteBatch bumps the /v1/statz batch counters for one served request of n
// profiles.
func (s *Server) noteBatch(n int) {
	s.batchRequests.Add(1)
	s.batchProfiles.Add(uint64(n))
}

// noteBatchCached counts one request served from the raw body-front. The
// profile count comes from the entry's admission-time meta; entries
// predating the meta (or hand-inserted) fall back to sniffing the body, and
// when even that fails the request is counted under the explicit
// profiles_unknown statz counter instead of silently contributing zero.
func (s *Server) noteBatchCached(resp []byte, meta int64) {
	if meta > 0 {
		s.noteBatch(int(meta))
		return
	}
	if n, ok := batchCountFromBody(resp); ok {
		s.noteBatch(n)
		return
	}
	s.batchRequests.Add(1)
	s.batchProfilesUnknown.Add(1)
}

// batchCountFromBody recovers the profile count from a rendered batch
// response, which starts `{"count":N,...` when buffered. ok = false means
// the body does not carry a leading count (a streamed response terminated
// by an error trailer, or foreign bytes) — callers must treat the count as
// unknown rather than zero.
func batchCountFromBody(b []byte) (int, bool) {
	const pre = `{"count":`
	if len(b) < len(pre)+1 || string(b[:len(pre)]) != pre {
		return 0, false
	}
	n, digits := 0, 0
	for _, c := range b[len(pre):] {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
		digits++
	}
	if digits == 0 {
		return 0, false
	}
	return n, true
}

// decodeBatchRequest parses and validates one POST /v1/batch body. A zero
// status means success; otherwise status/msg describe the rejection.
// Validation happens exactly once per request, before any cache admission
// or byte is written.
//
// recognizeBatch decodes the common envelope; anything it doubts is decoded
// again by decodeBatchReference, so both decoders accept the same bodies
// with the same profiles and every rejection is the reference's. Neither
// holds a second copy of the profiles: the recognizer parses into the
// exact-size profiles, the reference through one profile of scratch.
func (s *Server) decodeBatchRequest(body []byte) (m model.Params, profiles []profile.Profile, status int, msg string) {
	m = s.Defaults
	params, profiles, ok := recognizeBatch(body)
	if !ok {
		if params, profiles, status, msg = decodeBatchReference(body); status != 0 {
			return m, nil, status, msg
		}
	}
	if params != nil {
		m = *params
	}
	if err := m.Validate(); err != nil {
		return m, nil, 400, err.Error()
	}
	return m, profiles, 0, ""
}

// decodeBatchReference is the decoder of record for a batch body:
// json.Unmarshal syntax-checks the whole body, then profilesField parses
// the profiles array in place. json.Unmarshal into [][]float64 would hold a
// second full copy of every ρ (plus append-growth garbage) live at once.
// Oversized batches are rejected as soon as the count crosses
// MaxBatchProfiles, before the remaining profiles are decoded at all.
func decodeBatchReference(body []byte) (params *model.Params, profiles []profile.Profile, status int, msg string) {
	var req struct {
		Profiles profilesField `json:"profiles"`
		Params   *model.Params `json:"params"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		if req.Profiles.status != 0 {
			return nil, nil, req.Profiles.status, req.Profiles.msg
		}
		return nil, nil, 400, "invalid JSON: " + err.Error()
	}
	if len(req.Profiles.profiles) == 0 {
		return nil, nil, 400, "profiles must be non-empty"
	}
	return req.Params, req.Profiles.profiles, 0, ""
}

// DecodeBatch runs the POST /v1/batch decode and validation alone and
// returns the decoded profiles, or the rejection's status and message. It
// exists so benchmarks can time the decode stage apart from evaluation and
// render.
func (s *Server) DecodeBatch(body []byte) (profiles []profile.Profile, status int, msg string) {
	_, profiles, status, msg = s.decodeBatchRequest(body)
	return profiles, status, msg
}

// profilesField decodes the "profiles" key of a batch request for
// decodeBatchReference. Its UnmarshalJSON receives the array's bytes as a
// subslice of the request body (encoding/json does not copy the value for a
// custom unmarshaler) and parses them directly — faster than
// reflection-driven [][]float64 decoding and without its full second copy
// of every ρ. A rejection is carried in status/msg (413 over-limit, 400
// shape/validation) alongside the returned error, so decodeBatchReference
// can answer with the precise status.
type profilesField struct {
	profiles []profile.Profile
	status   int
	msg      string
}

// errBatchReject aborts json.Unmarshal once profilesField has recorded a
// rejection; the recorded status/msg carry the real diagnosis.
var errBatchReject = errors.New("batch request rejected")

func (pf *profilesField) fail(status int, msg string) error {
	pf.status, pf.msg = status, msg
	return errBatchReject
}

// UnmarshalJSON parses `[[ρ,...],...]` in place. It runs only under
// decodeBatchReference's json.Unmarshal, which syntax-checks the whole body
// before any decoding (checkValid), so data is well-formed JSON and the
// parser only decides shape: every element must be an array of numbers
// that profile.New accepts.
func (pf *profilesField) UnmarshalJSON(data []byte) error {
	pf.profiles = nil // duplicate "profiles" keys restart, like encoding/json
	i := skipJSONSpace(data, 0)
	if i < len(data) && data[i] == 'n' { // null: same as absent
		return nil
	}
	if i >= len(data) || data[i] != '[' {
		return pf.fail(400, "profiles must be an array of arrays")
	}
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return nil
	}
	var scratch []float64
	for i < len(data) {
		if len(pf.profiles) >= MaxBatchProfiles {
			return pf.fail(413, fmt.Sprintf("batch exceeds the limit of %d profiles; shard across requests", MaxBatchProfiles))
		}
		if data[i] != '[' {
			return pf.fail(400, fmt.Sprintf("profiles[%d] must be an array of numbers", len(pf.profiles)))
		}
		i = skipJSONSpace(data, i+1)
		scratch = scratch[:0]
		for i < len(data) && data[i] != ']' {
			start := i
			for i < len(data) && data[i] != ',' && data[i] != ']' && !isJSONSpace(data[i]) {
				i++
			}
			f, err := strconv.ParseFloat(string(data[start:i]), 64)
			if err != nil {
				return pf.fail(400, fmt.Sprintf("profiles[%d]: ρ values must be numbers", len(pf.profiles)))
			}
			scratch = append(scratch, f)
			i = skipJSONSpace(data, i)
			if i < len(data) && data[i] == ',' {
				i = skipJSONSpace(data, i+1)
			}
		}
		i++ // past the inner ']'
		p, err := profile.New(scratch...)
		if err != nil {
			return pf.fail(400, fmt.Sprintf("profiles[%d]: %v", len(pf.profiles), err))
		}
		pf.profiles = append(pf.profiles, p)
		i = skipJSONSpace(data, i)
		if i < len(data) && data[i] == ',' {
			i = skipJSONSpace(data, i+1)
			continue
		}
		break // the outer ']'
	}
	return nil
}

func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func skipJSONSpace(data []byte, i int) int {
	for i < len(data) && isJSONSpace(data[i]) {
		i++
	}
	return i
}

// decodeChunkMinBytes is the inner-array length, in bytes, from which
// recognizeBatch splits a profile's ρ tokens into chunks parsed on the
// pool. Shorter arrays parse inline: a fork-join would cost more than it
// spreads.
const decodeChunkMinBytes = 128 << 10

// decodeChunkBytes is the target length of one such chunk; each ends at a
// comma, so it holds whole tokens.
const decodeChunkBytes = 64 << 10

// rhoChunk is a run of comma-separated ρ tokens and the exact-size slot of
// its profile that they parse into.
type rhoChunk struct {
	src []byte
	dst []float64
}

// recognizeBatch decodes a batch body of the envelope clients send,
// {"profiles":[[ρ,...],...]} with at most one "params" object before or
// after the profiles, in one scan. ok = false means doubt, not rejection:
// any other key or spelling of one, a duplicate key, a token outside the
// JSON number grammar, a ρ outside (0, 1], an empty array, more than
// MaxBatchProfiles profiles, or params that json.Unmarshal refuses. The
// caller then decodes the body with decodeBatchReference, so everything
// recognizeBatch accepts decodes there to the same profiles and params.
//
// Each inner array's ρ count is its commas plus one, so a profile is
// allocated at its exact size before it is parsed. An array of at least
// decodeChunkMinBytes splits at commas into chunks; each chunk's comma
// count places its slot in the one profile, and the chunks of every such
// array parse concurrently on the pool once the envelope has checked out.
func recognizeBatch(body []byte) (params *model.Params, profiles []profile.Profile, ok bool) {
	var (
		chunks    []rhoChunk
		paramsVal []byte
		sawProf   bool
	)
	i := skipJSONSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return nil, nil, false
	}
	for {
		i = skipJSONSpace(body, i+1)
		rest := body[i:]
		isProf := !sawProf && bytes.HasPrefix(rest, []byte(`"profiles"`))
		switch {
		case isProf:
			i += len(`"profiles"`)
		case paramsVal == nil && bytes.HasPrefix(rest, []byte(`"params"`)):
			i += len(`"params"`)
		default:
			return nil, nil, false
		}
		i = skipJSONSpace(body, i)
		if i >= len(body) || body[i] != ':' {
			return nil, nil, false
		}
		i = skipJSONSpace(body, i+1)
		if isProf {
			sawProf = true
			if i, profiles, chunks, ok = recognizeProfiles(body, i); !ok {
				return nil, nil, false
			}
		} else {
			end, ok := objectEnd(body, i)
			if !ok {
				return nil, nil, false
			}
			paramsVal, i = body[i:end], end
		}
		i = skipJSONSpace(body, i)
		if i < len(body) && body[i] == ',' {
			continue
		}
		if i >= len(body) || body[i] != '}' {
			return nil, nil, false
		}
		break
	}
	if !sawProf || skipJSONSpace(body, i+1) != len(body) {
		return nil, nil, false
	}
	var bad atomic.Bool
	parallel.ForEach(0, len(chunks), func(j int) {
		if !bad.Load() && !parseRhos(chunks[j].src, chunks[j].dst) {
			bad.Store(true)
		}
	})
	if bad.Load() {
		return nil, nil, false
	}
	if paramsVal != nil {
		params = new(model.Params)
		if json.Unmarshal(paramsVal, params) != nil {
			return nil, nil, false
		}
	}
	return params, profiles, true
}

// recognizeProfiles scans the non-empty `[[ρ,...],...]` value at body[i:]
// and returns the index past it. Short profiles are parsed here; long ones
// are allocated and returned as chunks for the caller to parse.
func recognizeProfiles(body []byte, i int) (next int, profiles []profile.Profile, chunks []rhoChunk, ok bool) {
	if i >= len(body) || body[i] != '[' {
		return 0, nil, nil, false
	}
	i = skipJSONSpace(body, i+1)
	for {
		if len(profiles) == MaxBatchProfiles || i >= len(body) || body[i] != '[' {
			return 0, nil, nil, false
		}
		end := bytes.IndexByte(body[i+1:], ']')
		if end < 0 {
			return 0, nil, nil, false
		}
		arr := body[i+1 : i+1+end]
		var p profile.Profile
		if len(arr) < decodeChunkMinBytes {
			p = make(profile.Profile, bytes.Count(arr, commaByte)+1)
			if !parseRhos(arr, p) {
				return 0, nil, nil, false
			}
		} else {
			p, chunks = splitRhoChunks(arr, chunks)
		}
		profiles = append(profiles, p)
		i = skipJSONSpace(body, i+2+end)
		if i < len(body) && body[i] == ',' {
			i = skipJSONSpace(body, i+1)
			continue
		}
		if i >= len(body) || body[i] != ']' {
			return 0, nil, nil, false
		}
		return i + 1, profiles, chunks, true
	}
}

// splitRhoChunks cuts arr at the first comma past every decodeChunkBytes,
// allocates the profile at the pieces' total token count, and appends one
// rhoChunk per piece, in order, to chunks.
func splitRhoChunks(arr []byte, chunks []rhoChunk) (profile.Profile, []rhoChunk) {
	var counts []int
	for start, cut := 0, 0; cut < len(arr); start = cut + 1 {
		cut = len(arr)
		if start+decodeChunkBytes < len(arr) {
			if c := bytes.IndexByte(arr[start+decodeChunkBytes:], ','); c >= 0 {
				cut = start + decodeChunkBytes + c
			}
		}
		chunks = append(chunks, rhoChunk{src: arr[start:cut]})
		counts = append(counts, bytes.Count(arr[start:cut], commaByte)+1)
	}
	n := 0
	for _, k := range counts {
		n += k
	}
	p := make(profile.Profile, n)
	lo := 0
	for j, k := range counts {
		chunks[len(chunks)-len(counts)+j].dst = p[lo : lo+k]
		lo += k
	}
	return p, chunks
}

// objectEnd returns the index just past the JSON object that starts at
// body[i], matching braces and brackets outside strings. It finds the
// extent only: json.Unmarshal checks the object's syntax.
func objectEnd(body []byte, i int) (int, bool) {
	if i >= len(body) || body[i] != '{' {
		return 0, false
	}
	depth := 0
	for ; i < len(body); i++ {
		switch body[i] {
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return i + 1, true
			}
		case '"':
			for i++; i < len(body) && body[i] != '"'; i++ {
				if body[i] == '\\' {
					i++
				}
			}
		}
	}
	return 0, false
}

// parseRhos parses the comma-separated ρ tokens of src, JSON whitespace
// allowed around each, into dst, which has one slot per comma plus one. It
// reports false on a token outside the JSON number grammar or a value that
// profile.New refuses (anything outside (0, 1]).
func parseRhos(src []byte, dst []float64) bool {
	i := 0
	for k := range dst {
		i = skipJSONSpace(src, i)
		f, n, ok := parseJSONNumber(src[i:])
		if !ok || !(f > 0 && f <= 1) {
			return false
		}
		dst[k] = f
		i = skipJSONSpace(src, i+n)
		if k < len(dst)-1 {
			if i >= len(src) || src[i] != ',' {
				return false
			}
			i++
		}
	}
	return i == len(src)
}

// exactPow10 holds the powers of ten that float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseJSONNumber parses the JSON number (RFC 8259 grammar) at the start
// of b and returns its value and length in bytes. ok is false when b does
// not start with one, or when strconv.ParseFloat refuses it (out of range).
//
// A number whose digits form an integer m < 2^53 and whose decimal point
// and exponent scale it by 10^-k, 0 ≤ k ≤ 22, is m / 10^k: both operands
// are exact, so the one IEEE division is the correctly rounded value that
// ParseFloat returns too (its own exact fast path). Every other number
// goes to ParseFloat.
func parseJSONNumber(b []byte) (f float64, n int, ok bool) {
	i := 0
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, scale := 0, 0
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
	default:
		return 0, 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		start := i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			digits++
		}
		if i == start {
			return 0, 0, false
		}
		scale = i - start
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		expNeg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start, exp := i, 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			if exp < 1<<20 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == start {
			return 0, 0, false
		}
		if expNeg {
			scale += exp
		} else {
			scale -= exp
		}
	}
	if digits <= 19 && mant < 1<<53 && scale >= 0 && scale < len(exactPow10) {
		f = float64(mant) / exactPow10[scale]
		if neg {
			f = -f
		}
		return f, i, true
	}
	f, err := strconv.ParseFloat(string(b[:i]), 64)
	return f, i, err == nil
}

// fragmentKey appends the canonical key of a batch fragment to dst[:0], or
// returns nil when the fragment bypasses the canonical cache: the cache is
// off, p is smaller than batchCacheMinProfile, or fragmentsPerShard of its
// entries could not fit the largest shard's byte budget. The fit test is a
// lower bound on the entry's cost: the key's fixed length plus 2 bytes per
// ρ of body (a digit and a separator).
func (s *Server) fragmentKey(dst []byte, m model.Params, p profile.Profile) []byte {
	if s.cache.capacity <= 0 || len(p) < batchCacheMinProfile {
		return nil
	}
	if budget := s.cache.maxEntryCost(); budget > 0 && fragmentsPerShard*int64(canonicalKeyLen(len(p))+2*len(p)) > budget {
		return nil
	}
	return appendCanonicalKey(slices.Grow(dst[:0], canonicalKeyLen(len(p))), m, p)
}

// dedupeProfiles groups bit-identical profiles: uniq lists one
// representative index per distinct profile (in first-appearance order),
// canon[i] is the position in uniq of profile i's representative, and dups
// counts the entries that collapsed onto an earlier one. Identity is exact
// float64 equality — profiles are validated finite and positive, so == has
// no NaN corner — and candidates are pre-grouped by a hash of the raw float
// bits, with an equality check guarding against hash collisions.
func dedupeProfiles(profiles []profile.Profile) (uniq []int, canon []int, dups int) {
	canon = make([]int, len(profiles))
	reps := make(map[uint64][]int, len(profiles))
	for i, p := range profiles {
		h := hashProfileBits(p)
		found := -1
		for _, u := range reps[h] {
			if equalProfile(profiles[uniq[u]], p) {
				found = u
				break
			}
		}
		if found < 0 {
			found = len(uniq)
			uniq = append(uniq, i)
			reps[h] = append(reps[h], found)
		} else {
			dups++
		}
		canon[i] = found
	}
	return uniq, canon, dups
}

// hashProfileBits hashes a profile's length and the IEEE-754 bits of every
// ρ, a word at a time (FNV-1a's xor-multiply step over 64-bit words): no
// canonical-key build, no allocation. It is the prefilter of every grouping
// by profile content — within-request dedupe here, the coalescer's flush
// groups — which equalProfile confirms. Mixing the length keeps a profile
// and its prefixes apart.
func hashProfileBits(p []float64) uint64 {
	h := (fnvOffset64 ^ uint64(len(p))) * fnvPrime64
	for _, rho := range p {
		h = (h ^ math.Float64bits(rho)) * fnvPrime64
	}
	return h
}

// equalProfile reports bit-pattern equality of two profiles. Bits rather
// than ==, so grouping can never conflate distinct patterns: validated ρ are
// finite and positive, where the two agree, but the comparison stays exact
// whatever arrives.
func equalProfile(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
