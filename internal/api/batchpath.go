package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/parallel"
	"hetero/internal/profile"
)

// The POST /v1/batch hot path. The paper makes cluster power a function of
// the profile alone, so the production traffic shape is "score a large
// population of profiles against one parameter set" — repeated sweeps where
// whole request bodies, individual profiles within a request, and profiles
// across requests all recur. This file layers three reuse mechanisms over
// the size-adaptive evaluation kernel (incr.ScheduleBatch):
//
//  1. A raw body-front cache: the exact request body is the key, so a
//     repeated sweep (identical bytes) is served without JSON decoding or
//     evaluation, singleflight-coalesced like the /v1/measure raw layer.
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

// maxBody resolves the Server's unified POST body cap: MaxBody, or the
// package default when unset.
func (s *Server) maxBody() int {
	if s.MaxBody > 0 {
		return s.MaxBody
	}
	return DefaultMaxBody
}

// BatchBody runs the POST /v1/batch hot path for a raw request body without
// the HTTP layer: raw body-front cache, JSON decode, dedupe, size-adaptive
// evaluation, byte-exact assembly. It returns the HTTP status and, for
// status 200, the fully buffered response body (newline-terminated,
// matching json.Encoder). It exists so cmd/benchbatch and the equivalence
// tests can measure the batch engine proper, free of net/http overhead; the
// HTTP handler streams oversized responses instead (see batchstream.go) and
// only takes this buffered path below the streaming threshold.
func (s *Server) BatchBody(body []byte) (status int, resp []byte, msg string) {
	if len(body) < batchRawMinBody || s.batchRawCache.capacity <= 0 {
		m, profiles, status, msg := s.decodeBatchRequest(body)
		if status != 0 {
			return status, nil, msg
		}
		s.noteBatch(len(profiles))
		return 200, s.renderBatchBuffered(m, profiles), ""
	}
	// Raw body-front: for large bodies the exact bytes are a cache key
	// checked before any decoding, so a repeated sweep costs one hash
	// instead of a decode + evaluation; a response on disk for these bytes
	// (evicted, stream-teed, or persisted at admission in write-through
	// mode) is promoted back into memory. The profile count rides on the
	// entry's meta, so a hit never re-parses bytes. A malformed body errors
	// inside the fill, so a herd of it decodes once and nothing is cached.
	resp, meta, src, err := readThrough(s, s.batchRawCache, hashKey(body), body, spillLayerBatch, 0, func() ([]byte, int64, error) {
		m, profiles, status, msg := s.decodeBatchRequest(body)
		if status != 0 {
			return nil, 0, &statusError{status: status, msg: msg}
		}
		s.noteBatch(len(profiles))
		return s.renderBatchBuffered(m, profiles), int64(len(profiles)), nil
	})
	if err != nil {
		status, msg := errStatus(err)
		return status, nil, msg
	}
	s.noteBatchSource(resp, meta, src)
	return 200, resp, ""
}

// noteBatchSource counts a body-front response that the request's own
// compute did not produce: memory hits and coalesced waits as raw hits, and
// those plus spill hits toward the request and profile counters.
func (s *Server) noteBatchSource(resp []byte, meta int64, src source) {
	if src == fromMemory || src == fromCoalesced {
		s.batchRawHits.Add(1)
	}
	if src != fromCompute {
		s.noteBatchCached(resp, meta)
	}
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
// status means success; otherwise status/msg describe the rejection. It is
// shared by the buffered and streaming paths, so validation happens exactly
// once per request, before any cache admission or byte is written.
//
// The profiles array is decoded by profilesField's hand parser over the
// value's bytes in place, with one reusable ρ scratch buffer, so decode-side
// peak memory is the validated profiles plus O(largest single profile) —
// json.Unmarshal into [][]float64 would hold a second full copy (plus
// append-growth garbage) live at once, which on a MaxBatchProfiles batch
// dwarfs everything the streaming render path saves. Oversized batches are
// rejected as soon as the count crosses MaxBatchProfiles, before the
// remaining profiles are decoded at all.
func (s *Server) decodeBatchRequest(body []byte) (m model.Params, profiles []profile.Profile, status int, msg string) {
	m = s.Defaults
	var req struct {
		Profiles profilesField `json:"profiles"`
		Params   *model.Params `json:"params"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		if req.Profiles.status != 0 {
			return m, nil, req.Profiles.status, req.Profiles.msg
		}
		return m, nil, 400, "invalid JSON: " + err.Error()
	}
	if len(req.Profiles.profiles) == 0 {
		return m, nil, 400, "profiles must be non-empty"
	}
	if req.Params != nil {
		m = *req.Params
	}
	if err := m.Validate(); err != nil {
		return m, nil, 400, err.Error()
	}
	return m, req.Profiles.profiles, 0, ""
}

// profilesField decodes the "profiles" key of a batch request. Its
// UnmarshalJSON receives the array's bytes as a subslice of the request body
// (encoding/json does not copy the value for a custom unmarshaler) and
// parses them directly — faster than reflection-driven [][]float64 decoding
// and without its full second copy of every ρ. A rejection is carried in
// status/msg (413 over-limit, 400 shape/validation) alongside the returned
// error, so decodeBatchRequest can answer with the precise status.
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

// UnmarshalJSON parses `[[ρ,...],...]` in place. json.Unmarshal has already
// syntax-checked the whole body (checkValid runs before any decoding), so
// data is well-formed JSON and the parser only decides shape: every element
// must be an array of numbers that profile.New accepts.
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

// renderBatchBuffered dedupes, evaluates and assembles one decoded batch
// request into a single body — the cacheable rendering. Peak memory is
// O(sum of fragment sizes); responses estimated above the streaming
// threshold take writeBatchStream instead (HTTP path only).
func (s *Server) renderBatchBuffered(m model.Params, profiles []profile.Profile) []byte {
	// Dedupe bit-identical profiles within the request: repeated sweeps
	// often carry the same candidate many times, and every duplicate shares
	// its representative's rendered fragment.
	uniq, canon, dups := dedupeProfiles(profiles)
	s.batchDeduped.Add(uint64(dups))

	frags := s.renderUnique(m, profiles, uniq)

	// Assemble `{"count":N,"results":[f1,f2,...]}` + '\n' from the fragments
	// (each a full measure body whose trailing newline is stripped) —
	// byte-identical to json.Encoder on BatchResponse.
	est := 32
	for _, f := range frags {
		est += len(f) + 1
	}
	out := make([]byte, 0, est)
	out = append(out, `{"count":`...)
	out = strconv.AppendInt(out, int64(len(profiles)), 10)
	out = append(out, `,"results":[`...)
	for i := range profiles {
		if i > 0 {
			out = append(out, ',')
		}
		f := frags[canon[i]]
		out = append(out, f[:len(f)-1]...)
	}
	out = append(out, ']', '}', '\n')
	return out
}

// renderUnique produces the rendered measure fragment for every unique
// profile (indices into profiles), consulting the canonical cache for
// profiles large enough to be worth it and scheduling the remaining
// evaluations size-adaptively: large profiles run the chunked
// within-profile kernel sequentially across the pool, the rest fan out
// largest-first. Fragment values are independent of the schedule —
// incr.MeasureProfile is worker-count-invariant — so /v1/batch stays
// bit-identical to /v1/measure in every regime.
func (s *Server) renderUnique(m model.Params, profiles []profile.Profile, uniq []int) [][]byte {
	frags := make([][]byte, len(uniq))

	// Cache consult pass: resolve what memory already holds, so the
	// scheduling decision below sees only the profiles that truly need
	// evaluation.
	type job struct {
		u   int    // index into uniq/frags
		key []byte // canonical key; nil = bypass the cache
	}
	var jobs []job
	for u, i := range uniq {
		key := s.fragmentKey(m, profiles[i])
		if key != nil {
			if body, ok := s.cachedFragment(key, nil); ok {
				frags[u] = body
				continue
			}
		}
		jobs = append(jobs, job{u: u, key: key})
	}

	jobProfiles := make([]profile.Profile, len(jobs))
	for j, jb := range jobs {
		jobProfiles[j] = profiles[uniq[jb.u]]
	}
	render := func(jb job) []byte {
		p := profiles[uniq[jb.u]]
		if jb.key == nil {
			return renderFragment(m, p, 1)
		}
		body, _ := s.cachedFragment(jb.key, func() []byte { return renderFragment(m, p, fragmentWorkers(p)) })
		return body
	}

	sched := incr.ScheduleBatch(jobProfiles, 0)
	for _, j := range sched.Large {
		frags[jobs[j].u] = render(jobs[j])
	}
	weights := make([]int, len(sched.Small))
	for k, j := range sched.Small {
		weights[k] = len(jobProfiles[j])
	}
	parallel.ForEachLargestFirst(0, weights, func(k int) {
		j := sched.Small[k]
		frags[jobs[j].u] = render(jobs[j])
	})
	return frags
}

// fragmentKey returns the canonical key of a batch fragment, or nil when
// the fragment bypasses the canonical cache: the cache is off, or p is
// smaller than batchCacheMinProfile.
func (s *Server) fragmentKey(m model.Params, p profile.Profile) []byte {
	if s.cache.capacity <= 0 || len(p) < batchCacheMinProfile {
		return nil
	}
	return appendCanonicalKey(make([]byte, 0, 26*(len(p)+3)), m, p)
}

// cachedFragment reads a batch fragment through the canonical measure
// cache — the same entries /v1/measure serves and fills, coalescing with
// any concurrent measure request for the cluster. Batch fragments are
// memory-only: they never read the spill tier or peers. A hit counts
// toward the batch cache_hits statz; a miss runs eval under singleflight,
// or reports false when eval is nil. key is copied only when a miss
// inserts it.
func (s *Server) cachedFragment(key []byte, eval func() []byte) ([]byte, bool) {
	h := hashKey(key)
	if body, _, ok := get(s.cache, h, key); ok {
		s.batchCanonHits.Add(1)
		return body, true
	}
	if eval == nil {
		return nil, false
	}
	body, _, _, _ := fill(s.cache, h, key, func() ([]byte, int64, error) { return eval(), 0, nil })
	return body, true
}

// fragmentWorkers is the worker count a fragment evaluates with: large
// profiles turn the pool inward through the chunked within-profile kernel,
// the rest run sequentially. The result is worker-count invariant either
// way.
func fragmentWorkers(p profile.Profile) int {
	if len(p) >= incr.ScheduleLargeCutover {
		return 0
	}
	return 1
}

// renderFragment evaluates p and renders its measure body into a fresh
// buffer.
func renderFragment(m model.Params, p profile.Profile, workers int) []byte {
	fm := incr.MeasureProfile(m, p, workers)
	return appendMeasureResponse(make([]byte, 0, 20*(len(p)+6)), p, fm)
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

// hashProfileBits is FNV-1a over the length and the IEEE-754 bits of every
// ρ — no canonical-key build, no allocation.
func hashProfileBits(p profile.Profile) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(p)))
	for _, rho := range p {
		mix(math.Float64bits(rho))
	}
	return h
}

func equalProfile(a, b profile.Profile) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
