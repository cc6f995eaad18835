package api

import (
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"hetero/internal/incr"
	"hetero/internal/model"
	"hetero/internal/parallel"
	"hetero/internal/profile"
)

// The /v1/measure hot path. GET /v1/measure is the service's dominant
// traffic shape, and — FIFO optimality depending only on the profile — the
// steady state is overwhelmingly cache hits. This file makes that steady
// state allocation-free: a repeated spelling is answered by probing the
// raw-query front with the query string itself; a new spelling is parsed
// by slicing the raw string (no url.Values map), its canonical key is built
// into a pooled byte buffer, and the canonical cache is probed with the
// compiler's string(bytes) map-lookup optimization. The alloc gates in
// measurepath_test.go pin the cached path to 0 allocs/op and bound the
// miss path.
//
// A miss renders its body by hand, byte-identical to encoding/json. The
// render is mostly the profile echo, and the echo is mostly floats, so
// appendJSONFloat prints a ρ that is a short decimal (k/10³, k/10⁶: what
// clients send) straight from its digits, by the inverse of the decoder's
// exact division, and leaves every other value to strconv. The same
// renderer serves /v1/batch fragments and the admission batcher's echo.
//
// Pool ownership rule: a measureScratch belongs to exactly one request from
// Get to Put; nothing it holds may outlive the request. Bodies handed to
// the caller are either cache-owned (stable) or freshly copied, never
// aliases of scratch memory.

// measureScratch carries the per-request buffers of the measure hot path.
type measureScratch struct {
	rhos []float64 // decoded profile
	key  []byte    // canonical cache key
	enc  []byte    // JSON encoding buffer (miss path)
}

var measureScratchPool = sync.Pool{
	New: func() interface{} {
		return &measureScratch{
			rhos: make([]float64, 0, 64),
			key:  make([]byte, 0, 512),
			enc:  make([]byte, 0, 1024),
		}
	},
}

// MeasureQuery runs the /v1/measure hot path for a raw query string without
// the HTTP layer: parse, canonicalize, cache lookup, and on a miss the
// (possibly chunked-parallel) evaluation plus JSON encoding. It returns the
// HTTP status and, for status 200, the response body. It exists so the
// benchmark harness (cmd/benchserve) and the allocation gates can measure
// the serving path proper, free of net/http and ResponseWriter overhead.
// The returned body is cache-owned or freshly allocated — never scratch —
// so it remains valid after the call.
func (s *Server) MeasureQuery(rawQuery string) (status int, body []byte) {
	sc := measureScratchPool.Get().(*measureScratch)
	status, body, _ = s.measure(sc, rawQuery)
	measureScratchPool.Put(sc)
	return status, body
}

// rawFastPathMinQuery is the query length at which the raw-query front
// takes on the tiers behind it. Every query is probed at the front by its
// exact RawQuery string (see measure), but only at or above this length
// does a front miss read layer 'r' from spill and from a peer, or hand the
// raw query to the admission batcher. Below it, parsing costs microseconds
// and the canonical layer's own tiers serve the miss; a spelling under the
// gate is a memory-only entry.
const rawFastPathMinQuery = 4096

// rawFrontEngages reports whether a miss of rawQuery at the raw-query front
// goes to the front's own tiers (layer 'r' in spill and peers, submitRaw)
// rather than straight to the canonical layer. The fleet tier keys off this
// too: a request does its peer fetch/push at exactly one layer.
func (s *Server) rawFrontEngages(rawQuery string) bool {
	return len(rawQuery) >= rawFastPathMinQuery && s.rawCache.capacity > 0
}

// measure is the hot path shared by handleMeasure and MeasureQuery. On
// error it returns (status, nil, message); on success (200, body, "").
//
// Every query goes through the raw-query front cache first — exact
// RawQuery string → body, nginx-style — so a repeated spelling of any size
// skips the parse: one hashKey and one map probe. Different spellings of
// the same cluster still unify at the canonical layer below, whose cached
// body the front stores as is (no copy). Large spellings also read spill
// and peers at the front (rawFrontEngages); small ones are memory-only
// there and leave the spill and peer tiers to the canonical layer. The
// raw layer never caches errors, and its mapping is deterministic (the
// response depends only on the query), so a raw entry outliving its
// canonical twin still serves correct bytes.
func (s *Server) measure(sc *measureScratch, rawQuery string) (int, []byte, string) {
	if s.rawCache.capacity <= 0 {
		return s.measureCanonical(sc, rawQuery)
	}
	large := s.rawFrontEngages(rawQuery)
	var layer byte
	if large {
		layer = layerRaw
	}
	body, _, _, err := readThrough(s, s.rawCache, hashKey(rawQuery), rawQuery, layer, large, func() ([]byte, int64, error) {
		// With coalescing on, hand a large raw query to the admission
		// batcher before any parsing: the flush shares the decode, moments
		// and render across the herd. We are this spelling's flight leader,
		// so the raw front still caches whatever comes back. A rejected
		// submit (queue full, draining) falls through to the inline path.
		// Small queries submit after the parse, at the canonical layer.
		if b := s.batcher; b != nil && large {
			if res, ok := b.submitRaw(rawQuery); ok {
				if res.status != 200 {
					return nil, 0, &statusError{status: res.status, msg: res.msg}
				}
				return res.body, 0, nil
			}
		}
		status, body, msg := s.measureCanonical(sc, rawQuery)
		if status != 200 {
			return nil, 0, &statusError{status: status, msg: msg}
		}
		return body, 0, nil
	})
	if err != nil {
		status, msg := errStatus(err)
		return status, nil, msg
	}
	return 200, body, ""
}

// measureCanonical is the canonical-key layer: parse, canonicalize, sharded
// lookup, then the rest of the read order on a miss.
func (s *Server) measureCanonical(sc *measureScratch, rawQuery string) (int, []byte, string) {
	m, status, msg := s.parseMeasureQuery(sc, rawQuery)
	if status != 0 {
		return status, nil, msg
	}
	sc.key = appendCanonicalKey(sc.key[:0], m, sc.rhos)
	// Each request consults at most ONE peer layer: a large query already
	// did its peer work at the raw front,
	// and repeating it here would double the (key-sized) upload and the tail
	// for a fetch that can only hit when the same cluster was warmed under a
	// different spelling.
	peer := !s.rawFrontEngages(rawQuery)
	// A miss evaluates and encodes under singleflight, so a burst of
	// identical misses costs one evaluation. With coalescing on, the
	// evaluation is handed to the admission batcher instead — we are this
	// key's flight leader, so the body the flush computes is published here
	// exactly as an inline evaluation would be; a rejected submit falls
	// through to the inline path.
	body, _, _, err := readThrough(s, s.cache, hashKey(sc.key), sc.key, layerCanonical, peer, func() ([]byte, int64, error) {
		if b := s.batcher; b != nil {
			if out, ok := b.submitParsed(m, sc.rhos); ok {
				return out, 0, nil
			}
		}
		s.measureEvals.Add(1)
		fm := incr.MeasureProfile(m, profile.Profile(sc.rhos), 0)
		sc.enc = appendMeasureResponse(sc.enc[:0], sc.rhos, fm)
		out := make([]byte, len(sc.enc))
		copy(out, sc.enc)
		return out, 0, nil
	})
	if err != nil {
		return 500, nil, err.Error()
	}
	return 200, body, ""
}

// measureQueryParts holds the four decoded parameter values of a measure
// query, still as strings. splitMeasureQuery fills it; parseMeasureParams
// and parseProfileValue finish the job. The split exists so the admission
// batcher's flush can decode the (typically huge) profile value once per
// distinct spelling while still parsing the (tiny) model parameters per
// item.
type measureQueryParts struct {
	profileVal, tauVal, piVal, deltaVal string
}

// splitMeasureQuery decodes the measure parameters from the raw query by
// slicing, replicating net/url.ParseQuery semantics: '&'-separated pairs,
// first occurrence wins, pairs containing ';' are dropped, keys and values
// are percent-decoded ('+' means space). The common unescaped spelling never
// allocates; escaped pairs take a url.QueryUnescape fallback.
func splitMeasureQuery(rawQuery string) measureQueryParts {
	var q measureQueryParts
	var sawProfile, sawTau, sawPi, sawDelta bool
	rest := rawQuery
	for rest != "" {
		var pair string
		pair, rest, _ = strings.Cut(rest, "&")
		if pair == "" || strings.IndexByte(pair, ';') >= 0 {
			continue // ParseQuery drops empty and semicolon-containing pairs
		}
		key, val, _ := strings.Cut(pair, "=")
		key, ok := unescapeComponent(key)
		if !ok {
			continue // ParseQuery drops pairs whose key fails to unescape
		}
		switch key {
		case "profile", "tau", "pi", "delta":
		default:
			continue
		}
		val, ok = unescapeComponent(val)
		if !ok {
			continue
		}
		switch key {
		case "profile":
			if !sawProfile {
				q.profileVal, sawProfile = val, true
			}
		case "tau":
			if !sawTau {
				q.tauVal, sawTau = val, true
			}
		case "pi":
			if !sawPi {
				q.piVal, sawPi = val, true
			}
		case "delta":
			if !sawDelta {
				q.deltaVal, sawDelta = val, true
			}
		}
	}
	return q
}

// parseMeasureParams decodes tau/pi/delta on top of the defaults and
// validates the resulting parameter set. Errors are reported in the same
// order as the pre-sharding handler: params first, then the profile (which
// parseProfileValue handles).
func parseMeasureParams(defaults model.Params, q measureQueryParts) (model.Params, int, string) {
	m := defaults
	for _, f := range [3]struct {
		name string
		val  string
		dst  *float64
	}{{"tau", q.tauVal, &m.Tau}, {"pi", q.piVal, &m.Pi}, {"delta", q.deltaVal, &m.Delta}} {
		if f.val == "" {
			continue
		}
		parsed, err := strconv.ParseFloat(f.val, 64)
		if err != nil {
			return m, 400, "bad " + f.name + ": " + err.Error()
		}
		*f.dst = parsed
	}
	if err := m.Validate(); err != nil {
		return m, 400, err.Error()
	}
	return m, 0, ""
}

// parseProfileValue decodes one profile parameter value into dst (reusing
// its backing array), applying the same admission checks as profile.New.
func parseProfileValue(profileVal string, dst []float64) ([]float64, int, string) {
	if profileVal == "" {
		return dst, 400, "missing profile"
	}
	dst = dst[:0]
	rest := profileVal
	for {
		part, tail, found := strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return dst, 400, fmt.Sprintf("bad ρ-value %q", part)
		}
		if msg := checkRhoValue(len(dst), v); msg != "" {
			return dst, 400, msg
		}
		dst = append(dst, v)
		if !found {
			break
		}
		rest = tail
	}
	return dst, 0, ""
}

// parseMeasureQuery decodes profile/tau/pi/delta from the raw query:
// splitMeasureQuery's pair scan, then parameters, then the profile — the
// composition the admission batcher unbundles to share the profile decode
// across a flush.
func (s *Server) parseMeasureQuery(sc *measureScratch, rawQuery string) (model.Params, int, string) {
	q := splitMeasureQuery(rawQuery)
	m, status, msg := parseMeasureParams(s.Defaults, q)
	if status != 0 {
		return m, status, msg
	}
	sc.rhos, status, msg = parseProfileValue(q.profileVal, sc.rhos)
	if status != 0 {
		return m, status, msg
	}
	return m, 0, ""
}

// checkRhoValue applies profile.New's admission checks to one decoded ρ
// without building a Profile, returning the same message text.
func checkRhoValue(i int, r float64) string {
	switch {
	case math.IsNaN(r) || math.IsInf(r, 0):
		return fmt.Sprintf("profile: ρ[%d] = %v is not finite", i, r)
	case r <= 0:
		return fmt.Sprintf("profile: ρ[%d] = %v must be positive", i, r)
	case r > 1:
		return fmt.Sprintf("profile: ρ[%d] = %v exceeds 1; normalize so the slowest computer has ρ = 1", i, r)
	}
	return ""
}

// unescapeComponent percent-decodes one query component. The fast path —
// no '%' or '+' — returns the input unchanged without allocating; anything
// else takes the url.QueryUnescape fallback. ok = false means the component
// is malformed and its pair must be dropped, as ParseQuery does.
func unescapeComponent(s string) (string, bool) {
	if strings.IndexByte(s, '%') < 0 && strings.IndexByte(s, '+') < 0 {
		return s, true
	}
	out, err := url.QueryUnescape(s)
	if err != nil {
		return "", false
	}
	return out, true
}

// appendProfileEcho renders the profile-echo prefix of the /v1/measure body
// — everything up to and including the closing bracket of the profile array.
// It is the profile-dependent (and typically dominant) part of the response;
// the admission batcher renders it once per distinct profile in a flush and
// memcpys it into each item's body. A profile longer than echoChunk renders
// in contiguous chunks on the pool, spliced in order: the same bytes.
func appendProfileEcho(dst []byte, rhos []float64) []byte {
	dst = append(dst, `{"profile":[`...)
	if len(rhos) > echoChunk {
		dst = appendRhoListChunked(dst, rhos)
	} else {
		dst = appendRhoList(dst, rhos)
	}
	return append(dst, ']')
}

// AppendProfileEcho is appendProfileEcho for benchmarks that time the echo
// render stage on its own.
func AppendProfileEcho(dst []byte, rhos []float64) []byte {
	return appendProfileEcho(dst, rhos)
}

// echoChunk is the ρ count of one chunk of a chunked profile echo: about
// 0.3 ms of formatting for short-decimal ρ, 1.5 ms at full precision. A
// profile up to it renders serially on the caller's goroutine, where a
// fork-join would cost more than it spreads. On a fresh 2^20-ρ body of 2^17-ρ
// profiles (BenchmarkBatchFresh, 2 vCPUs), 64 Ki won the echo in 15 and the
// stream in 14 of 20 alternating pairs against 32 Ki, and 128 Ki (no split)
// lost every pair.
const echoChunk = 32 << 10

// echoChunkPool recycles the per-chunk render buffers of
// appendRhoListChunked.
var echoChunkPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// appendRhoList appends rhos comma-separated, each as appendJSONFloat.
func appendRhoList(dst []byte, rhos []float64) []byte {
	for i, rho := range rhos {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONFloat(dst, rho)
	}
	return dst
}

// appendRhoListChunked is appendRhoList with the formatting of each
// echoChunk-long run of rhos done on the pool, into a pooled buffer, and
// the buffers appended to dst in order.
func appendRhoListChunked(dst []byte, rhos []float64) []byte {
	parts := parallel.MapChunks(0, len(rhos), echoChunk, func(lo, hi int) *[]byte {
		buf := echoChunkPool.Get().(*[]byte)
		*buf = appendRhoList((*buf)[:0], rhos[lo:hi])
		return buf
	})
	for k, buf := range parts {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, *buf...)
		echoChunkPool.Put(buf)
	}
	return dst
}

// appendMeasureTail renders the measure fields that follow the profile echo,
// closing the object and appending the trailing newline json.Encoder emits.
func appendMeasureTail(dst []byte, fm incr.FullMeasure) []byte {
	dst = append(dst, `,"x":`...)
	dst = appendJSONFloat(dst, fm.X)
	dst = append(dst, `,"hecr":`...)
	dst = appendJSONFloat(dst, fm.HECR)
	dst = append(dst, `,"work_rate":`...)
	dst = appendJSONFloat(dst, fm.WorkRate)
	dst = append(dst, `,"mean":`...)
	dst = appendJSONFloat(dst, fm.Mean)
	dst = append(dst, `,"variance":`...)
	dst = appendJSONFloat(dst, fm.Variance)
	dst = append(dst, `,"geo_mean":`...)
	dst = appendJSONFloat(dst, fm.GeoMean)
	dst = append(dst, '}', '\n')
	return dst
}

// appendMeasureResponse renders the /v1/measure JSON body into dst,
// byte-identical to json.Marshal of MeasureResponse (field order follows
// the struct; floats use appendJSONFloat) plus the trailing newline that
// json.Encoder emits.
func appendMeasureResponse(dst []byte, rhos []float64, fm incr.FullMeasure) []byte {
	dst = appendProfileEcho(dst, rhos)
	return appendMeasureTail(dst, fm)
}

// appendJSONFloat appends f exactly as encoding/json's floatEncoder renders
// a float64: shortest round-trip form, 'e' format outside [1e-6, 1e21) with
// the two-digit exponent collapsed ("e-06" → "e-6").
//
// A value in [1e-6, 1) that is the double nearest some decimal m·10⁻¹⁵ — the
// short decimals clients send as ρ — is printed from m, without strconv's
// shortest-digit search. float64(m)/1e15 has exact operands, so it is the
// correctly rounded value of that decimal, as ParseFloat would return it;
// no other decimal of at most 15 significant digits rounds to the same
// double (DBL_DIG = 15), so m with its trailing zeros stripped is the unique
// shortest round-trip spelling. Every other value falls through to strconv.
func appendJSONFloat(dst []byte, f float64) []byte {
	if f >= 1e-6 && f < 1 {
		if m := uint64(f*1e15 + 0.5); float64(m)/1e15 == f {
			return appendFemtoDecimal(dst, m)
		}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// digitPairs spells 00 through 99, two bytes each.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// appendFemtoDecimal appends m·10⁻¹⁵ for 0 < m < 10¹⁵ as "0." and the
// 15-digit zero-padded m without its trailing zeros. It writes into dst's
// spare capacity and keeps the digits it needs; the low eight digits, zero
// for every decimal of at most seven places, are written only when needed.
func appendFemtoDecimal(dst []byte, m uint64) []byte {
	n := len(dst)
	if cap(dst)-n < 17 {
		dst = append(dst, make([]byte, 17)...)
	}
	b := dst[n : n+17]
	hi, lo := uint32(m/1e8), uint32(m%1e8)
	b[0], b[1], b[2] = '0', '.', byte('0'+hi/1e6)
	hi %= 1e6
	putDigitPair(b[3:5], hi/1e4)
	putDigitQuad(b[5:9], hi%1e4)
	end := 9
	if lo != 0 {
		putDigitQuad(b[9:13], lo/1e4)
		putDigitQuad(b[13:17], lo%1e4)
		end = 17
	}
	for b[end-1] == '0' {
		end--
	}
	return dst[:n+end]
}

// putDigitPair writes v < 100 as two digits into b[:2].
func putDigitPair(b []byte, v uint32) {
	b[0], b[1] = digitPairs[2*v], digitPairs[2*v+1]
}

// putDigitQuad writes v < 10⁴ as four digits into b[:4].
func putDigitQuad(b []byte, v uint32) {
	putDigitPair(b[:2], v/100)
	putDigitPair(b[2:4], v%100)
}
