package api

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"hetero/internal/core"
	"hetero/internal/profile"
	"hetero/internal/stats"
)

// randomRhos draws one normalized n-computer profile at full float64
// precision (spellings round-trip exactly through both the batch JSON and
// the measure query string).
func randomRhos(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	return []float64(profile.RandomNormalized(rng, n))
}

// measureQueryFor renders the /v1/measure query for one profile with
// round-trippable spellings.
func measureQueryFor(rhos []float64) string {
	var b strings.Builder
	b.Grow(9 + 26*len(rhos))
	b.WriteString("profile=")
	for i, rho := range rhos {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(rho, 'g', -1, 64))
	}
	return b.String()
}

// expectedBatchBody assembles the batch response a server would have to
// produce if /v1/batch is exactly "per-profile /v1/measure": each result is
// the measure body for that profile, spliced into the count+results frame.
// The measure side runs on its own fresh server so the two paths compute
// independently.
func expectedBatchBody(t *testing.T, rhoSets [][]float64) []byte {
	t.Helper()
	s := NewServer()
	var out []byte
	out = append(out, `{"count":`...)
	out = strconv.AppendInt(out, int64(len(rhoSets)), 10)
	out = append(out, `,"results":[`...)
	for i, rhos := range rhoSets {
		status, body := s.MeasureQuery(measureQueryFor(rhos))
		if status != 200 {
			t.Fatalf("measure for profile %d: status %d", i, status)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, body[:len(body)-1]...)
	}
	return append(out, ']', '}', '\n')
}

func marshalBatch(t *testing.T, rhoSets [][]float64) []byte {
	t.Helper()
	body, err := json.Marshal(BatchRequest{Profiles: rhoSets})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestBatchBitIdenticalToMeasure is the golden equivalence contract of the
// batch engine: across every scheduling regime — across-profile fan-out,
// the within-profile chunked kernel (n ≥ core.ParallelCutover), dedupe
// collapse, canonical-cache consult, and the raw body-front repeat — the
// /v1/batch response must be byte-identical to splicing the per-profile
// /v1/measure bodies, computed on an independent server.
func TestBatchBitIdenticalToMeasure(t *testing.T) {
	small1 := randomRhos(5, 1)
	small2 := randomRhos(9, 2)
	cacheable := randomRhos(batchCacheMinProfile+10, 3) // consults the canonical cache
	large := randomRhos(core.ParallelCutover, 4)        // chunked two-pass kernel
	regimes := []struct {
		name string
		sets [][]float64
	}{
		{"many_small_fanout", [][]float64{small1, small2, randomRhos(3, 5)}},
		{"chunked_large", [][]float64{large}},
		{"mixed_sizes", [][]float64{small1, large, cacheable, small2}},
		{"dedup_collapse", [][]float64{small1, cacheable, small1, small1, cacheable}},
	}
	for _, regime := range regimes {
		t.Run(regime.name, func(t *testing.T) {
			s := NewServer()
			body := marshalBatch(t, regime.sets)
			status, resp, msg := s.BatchBody(body)
			if status != 200 {
				t.Fatalf("batch status %d: %s", status, msg)
			}
			want := expectedBatchBody(t, regime.sets)
			if !bytes.Equal(resp, want) {
				t.Fatalf("batch diverges from per-profile measure\nbatch   %.200q\nmeasure %.200q", resp, want)
			}
			// The repeat must serve the same bytes whether it resolves at the
			// raw body-front (large bodies) or recomputes (small ones).
			status2, resp2, _ := s.BatchBody(body)
			if status2 != 200 || !bytes.Equal(resp, resp2) {
				t.Fatalf("repeated body served different bytes (status %d)", status2)
			}
		})
	}
}

// TestBatchMatchesEncodingJSON pins the frame assembly itself: the
// hand-assembled batch body must equal json.Encoder on the BatchResponse
// struct the old engine marshaled, field for field and byte for byte.
func TestBatchMatchesEncodingJSON(t *testing.T) {
	sets := [][]float64{randomRhos(4, 7), randomRhos(6, 8)}
	s := NewServer()
	status, resp, msg := s.BatchBody(marshalBatch(t, sets))
	if status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	var decoded BatchResponse
	if err := json.Unmarshal(resp, &decoded); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, buf.Bytes()) {
		t.Fatalf("assembled body is not canonical encoding/json output:\nassembled %.200q\nencoded   %.200q", resp, buf.Bytes())
	}
	if decoded.Count != 2 || len(decoded.Results) != 2 {
		t.Fatalf("count %d / %d results", decoded.Count, len(decoded.Results))
	}
}

// TestBatchDedupeCounters drives a duplicate-heavy batch and checks the
// bookkeeping: duplicates counted, the canonical layer consulted for the
// cache-eligible profile across requests, the raw front for repeated
// bodies.
func TestBatchDedupeCounters(t *testing.T) {
	s := NewServer()
	cacheable := randomRhos(batchCacheMinProfile, 11)
	small := randomRhos(4, 12)
	body := marshalBatch(t, [][]float64{cacheable, small, cacheable, small, cacheable})
	if status, _, msg := s.BatchBody(body); status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	if got := s.batchDeduped.Load(); got != 3 {
		t.Fatalf("deduped = %d, want 3 (two extra cacheable + one extra small)", got)
	}
	// A different body sharing the cacheable profile: its fragment must come
	// from the canonical cache.
	body2 := marshalBatch(t, [][]float64{cacheable, randomRhos(5, 13)})
	if status, _, msg := s.BatchBody(body2); status != 200 {
		t.Fatalf("status %d: %s", status, msg)
	}
	if got := s.batchCanonHits.Load(); got == 0 {
		t.Fatal("cacheable profile not served from the canonical cache on the second request")
	}
	if len(body) >= batchRawMinBody {
		before := s.batchRawHits.Load()
		if status, _, _ := s.BatchBody(body); status != 200 {
			t.Fatal("repeat failed")
		}
		if s.batchRawHits.Load() != before+1 {
			t.Fatal("repeated large body did not hit the raw body-front cache")
		}
	}
	// Statz must surface all three counters.
	if stz := statzOf(t, s); stz.Batch.Deduped == 0 || stz.Batch.CacheHits == 0 {
		t.Fatalf("statz batch counters not folded: %+v", stz.Batch)
	}
}

func statzOf(t *testing.T, s *Server) StatzResponse {
	t.Helper()
	srv := newTestServerFrom(t, s)
	var stz StatzResponse
	if code := getJSON(t, srv+"/v1/statz", &stz); code != 200 {
		t.Fatalf("statz status %d", code)
	}
	return stz
}

// TestBatchBodyCap: the request-body byte cap must reject oversized bodies
// with a structured 413 before any JSON decoding, like the /v1/simulate/faulty
// cap, and leave ordinary bodies unaffected.
func TestBatchBodyCap(t *testing.T) {
	s := NewServer()
	s.MaxBody = 512
	srv := newTestServerFrom(t, s)
	huge := strings.NewReader(`{"profiles":[[` + strings.Repeat("1,", 400) + `1]]}`)
	resp, err := http.Post(srv+"/v1/batch", "application/json", huge)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e["error"] == "" {
		t.Fatalf("413 body not a structured error: %v %v", e, err)
	}
	if code := postJSON(t, srv+"/v1/batch", BatchRequest{Profiles: [][]float64{{1, 0.5}}}, nil); code != 200 {
		t.Fatalf("small body rejected: status %d", code)
	}
}

// TestBatchErrorsNotCached: a malformed large body must fail identically on
// every attempt (nothing cached by the raw front), and a valid large body
// afterwards must succeed.
func TestBatchErrorsNotCached(t *testing.T) {
	s := NewServer()
	bad := []byte(`{"profiles":[[` + strings.Repeat("1,", batchRawMinBody/2) + `7]]}`) // ρ=7 > 1
	if len(bad) < batchRawMinBody {
		t.Fatal("bad body too short to engage the raw front")
	}
	for i := 0; i < 2; i++ {
		status, _, msg := s.BatchBody(bad)
		if status != 400 || !strings.Contains(msg, "exceeds 1") {
			t.Fatalf("attempt %d: status %d msg %q", i, status, msg)
		}
	}
	if s.batchRawCache.counters().size != 0 {
		t.Fatal("error response was cached in the raw body-front")
	}
}

// TestDedupeProfiles covers the grouping helper directly, including the
// hash-collision guard (equality check, not hash equality, decides).
func TestDedupeProfiles(t *testing.T) {
	a := profile.MustNew(1, 0.5)
	b := profile.MustNew(1, 0.25)
	uniq, canon, dups := dedupeProfiles([]profile.Profile{a, b, a, a})
	if len(uniq) != 2 || uniq[0] != 0 || uniq[1] != 1 {
		t.Fatalf("uniq = %v", uniq)
	}
	if dups != 2 {
		t.Fatalf("dups = %d, want 2", dups)
	}
	want := []int{0, 1, 0, 0}
	for i, c := range canon {
		if c != want[i] {
			t.Fatalf("canon = %v, want %v", canon, want)
		}
	}
	if hashProfileBits(a) == hashProfileBits(b) {
		t.Fatal("distinct profiles collide (suspicious hash)")
	}
	// Prefix profiles must not collide via length confusion.
	if hashProfileBits(profile.MustNew(1)) == hashProfileBits(profile.MustNew(1, 1)) {
		t.Fatal("length not mixed into the profile hash")
	}
	// Profiles one ULP apart in their last ρ are distinct profiles.
	c := profile.MustNew(1, 0.5, 0.25)
	d := profile.MustNew(1, 0.5, math.Nextafter(0.25, 1))
	if uniq, canon, dups := dedupeProfiles([]profile.Profile{c, d, c}); len(uniq) != 2 || dups != 1 || canon[1] != 1 || canon[2] != 0 {
		t.Fatalf("one-ULP profiles: uniq %v, canon %v, dups %d; want 2 distinct", uniq, canon, dups)
	}
	if hashProfileBits(c) == hashProfileBits(d) {
		t.Fatal("a one-ULP difference does not reach the profile hash")
	}
}

// TestBatchDecodeHandParser pins the in-place profiles parser against
// encoding/json semantics: float spellings decode identically (both sides
// bottom out in strconv.ParseFloat), whitespace is insignificant, unknown
// keys are skipped, a duplicate "profiles" key restarts rather than
// appends, and every malformed shape is rejected with the right status.
func TestBatchDecodeHandParser(t *testing.T) {
	s := NewServer()
	// Exponent/sign spellings plus aggressive whitespace must serve the
	// exact bytes of the plainly-spelled equivalent batch.
	spelled := []byte("{ \"unknown\" : {\"nested\": [1, \"x\"]},\n\t\"profiles\" : [ [ 1e0 , 5E-1 ] ,\r\n [0.25, 2.5e-1, 5e-1] ] }")
	status, resp, msg := s.BatchBody(spelled)
	if status != 200 {
		t.Fatalf("spelled batch: status %d: %s", status, msg)
	}
	want := expectedBatchBody(t, [][]float64{{1, 0.5}, {0.25, 0.25, 0.5}})
	if !bytes.Equal(resp, want) {
		t.Fatalf("spelled batch diverges:\ngot  %.200q\nwant %.200q", resp, want)
	}
	// A duplicate "profiles" key takes the last value, like encoding/json.
	status, resp, msg = s.BatchBody([]byte(`{"profiles":[[1]],"profiles":[[0.5,0.5]]}`))
	if status != 200 {
		t.Fatalf("duplicate key: status %d: %s", status, msg)
	}
	if want := expectedBatchBody(t, [][]float64{{0.5, 0.5}}); !bytes.Equal(resp, want) {
		t.Fatalf("duplicate key did not take the last value: %.200q", resp)
	}
	bad := []struct {
		name, body, wantMsg string
		status              int
	}{
		{"profiles_null", `{"profiles":null}`, "profiles must be non-empty", 400},
		{"profiles_empty", `{"profiles":[ ]}`, "profiles must be non-empty", 400},
		{"profiles_object", `{"profiles":{"a":1}}`, "profiles must be an array of arrays", 400},
		{"element_scalar", `{"profiles":[1]}`, "profiles[0] must be an array of numbers", 400},
		{"element_null", `{"profiles":[[1],null]}`, "profiles[1] must be an array of numbers", 400},
		{"rho_string", `{"profiles":[["a"]]}`, "profiles[0]: ρ values must be numbers", 400},
		{"rho_bool", `{"profiles":[[1],[true]]}`, "profiles[1]: ρ values must be numbers", 400},
		{"rho_nested", `{"profiles":[[[1]]]}`, "profiles[0]: ρ values must be numbers", 400},
		{"rho_invalid", `{"profiles":[[-1]]}`, "profiles[0]: ", 400},
		{"trailing_garbage", "{\"profiles\":[[1]]} x", "invalid JSON", 400},
		{"not_an_object", `[[1]]`, "invalid JSON", 400},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			status, _, msg := s.BatchBody([]byte(tc.body))
			if status != tc.status {
				t.Fatalf("status %d (%s), want %d", status, msg, tc.status)
			}
			if !strings.Contains(msg, tc.wantMsg) {
				t.Fatalf("msg %q does not contain %q", msg, tc.wantMsg)
			}
		})
	}
}

// TestBatchBodyFrontHitZeroAlloc: a repeated large body is answered by
// probing the body front with the body bytes themselves — no copy of the
// body, no allocation at all.
func TestBatchBodyFrontHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s := NewServer()
	body := marshalBatch(t, [][]float64{randomRhos(300, 11), randomRhos(40, 12)})
	if len(body) < 4<<10 {
		t.Fatalf("body %d bytes, want at least 4 KiB", len(body))
	}
	if status, _, msg := s.BatchBody(body); status != 200 {
		t.Fatalf("warmup: %d %s", status, msg)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if status, _, _ := s.BatchBody(body); status != 200 {
			t.Fatal("front hit failed")
		}
	})
	if allocs != 0 {
		t.Errorf("body-front hit: %v allocs/op, want 0", allocs)
	}
}

// TestCachedFragmentHitAllocs: a batch fragment served from the canonical
// cache allocates nothing — the key is built in the window's reused key
// buffer and probed as bytes, not copied into a string.
func TestCachedFragmentHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s := NewServer()
	m := s.Defaults
	p := profile.Profile(randomRhos(2*batchCacheMinProfile, 13))
	var scratch renderBuf
	want, stable := s.renderStreamFragment(&scratch, m, p)
	if !stable {
		t.Fatal("fragment bypassed the canonical cache")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if frag, _ := s.renderStreamFragment(&scratch, m, p); !bytes.Equal(frag, want) {
			t.Fatal("cached fragment differs")
		}
	})
	if allocs != 0 {
		t.Errorf("cached-fragment hit: %v allocs/op, want 0", allocs)
	}
}

// decodeParity checks one body against the decoder of record: when
// recognizeBatch accepts it, decodeBatchReference must accept it too with
// bit-identical profiles and equal params; either way decodeBatchRequest's
// status and message must be the reference's. It reports whether the
// recognizer accepted the body.
func decodeParity(t testing.TB, s *Server, body []byte) bool {
	t.Helper()
	params, profiles, ok := recognizeBatch(body)
	refParams, refProfiles, wantStatus, wantMsg := decodeBatchReference(body)
	if ok {
		if wantStatus != 0 {
			t.Fatalf("recognizer accepted a body the reference rejects (%d %s): %.200q", wantStatus, wantMsg, body)
		}
		if (params == nil) != (refParams == nil) || params != nil && *params != *refParams {
			t.Fatalf("params %+v, reference %+v: %.200q", params, refParams, body)
		}
		if len(profiles) != len(refProfiles) {
			t.Fatalf("%d profiles, reference %d: %.200q", len(profiles), len(refProfiles), body)
		}
		for i := range profiles {
			if len(profiles[i]) != len(refProfiles[i]) {
				t.Fatalf("profiles[%d] has %d ρ, reference %d", i, len(profiles[i]), len(refProfiles[i]))
			}
			for j := range profiles[i] {
				if math.Float64bits(profiles[i][j]) != math.Float64bits(refProfiles[i][j]) {
					t.Fatalf("profiles[%d][%d] = %v, reference %v", i, j, profiles[i][j], refProfiles[i][j])
				}
			}
		}
	}
	if wantStatus == 0 {
		m := s.Defaults
		if refParams != nil {
			m = *refParams
		}
		if err := m.Validate(); err != nil {
			wantStatus, wantMsg = 400, err.Error()
		}
	}
	_, _, status, msg := s.decodeBatchRequest(body)
	if status != wantStatus || msg != wantMsg {
		t.Fatalf("decode gives %d %q, reference %d %q: %.200q", status, msg, wantStatus, wantMsg, body)
	}
	return ok
}

// TestRecognizeBatch pins which bodies the one-pass recognizer decodes
// itself — the envelope clients send, in any JSON spelling — and which it
// leaves to the reference decoder, and checks parity on all of them.
func TestRecognizeBatch(t *testing.T) {
	s := NewServer()
	accepted := []string{
		`{"profiles":[[1,0.5],[0.25]]}`,
		" \t{ \"profiles\" :\n[ [ 1e0 , 5E-1 ] ,\r\n [0.25, 2.5e-1, 5e-1 ] ] }\n",
		`{"profiles":[[1.0,0.50,0.250,1E+0,100e-2,0.0000001,1e-7,4.9e-324]]}`,
		`{"profiles":[[0.12345678901234567890123,0.99999999999999999999,1.00000000000000000001]]}`,
		`{"params":{"tau":0.01,"pi":1e-5,"delta":1},"profiles":[[1,0.5]]}`,
		`{"profiles":[[1,0.5]],"params":{"tau":0.01,"pi":1e-5,"delta":1}}`,
		`{"profiles":[[1]],"params":{"tau":0.01,"pi":1e-5,"delta":1,"a":[1,"]}"],"b":{"c":"\"}"}}}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1,"delta":7}}`, // recognized; Validate rejects
		string(marshalBatch(t, [][]float64{randomRhos(300, 3), randomRhos(7, 4)})),
	}
	for _, b := range accepted {
		if !decodeParity(t, s, []byte(b)) {
			t.Errorf("recognizer left a client envelope to the reference: %.120q", b)
		}
	}
	doubted := []string{
		`{"Profiles":[[1]]}`,
		`{"profiles":[[1]],"profiles":[[0.5]]}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1,"delta":1},"params":null}`,
		`{"profiles":[[1]],"params":null}`,
		`{"profiles":[[1]],"params":{"tau":"x","pi":1,"delta":1}}`,
		`{"profiles":[[1]],"params":{"tau":1}}`,
		`{"profiles":[[1]],"params":{"tau":1,"pi":1,"delta":1]}`,
		`{"profiles":[[1]],"extra":1}`,
		`{"profil\u0065s":[[1]]}`,
		`{"profiles":null}`,
		`{"profiles":[]}`,
		`{"profiles":[[]]}`,
		`{"profiles":[[1],]}`,
		`{"profiles":[[1,]]}`,
		`{"profiles":[[,1]]}`,
		`{"profiles":[[1 2]]}`,
		`{"profiles":[[[1]]]}`,
		`{"profiles":[[1,[0.5]]]}`,
		`{"profiles":[["1"]]}`,
		`{"profiles":[[1,"]"]]}`,
		`{"profiles":[[1,","]]}`,
		`{"profiles":[[-0]]}`,
		`{"profiles":[[0]]}`,
		`{"profiles":[[1.5]]}`,
		`{"profiles":[[1e999]]}`,
		`{"profiles":[[1e-999]]}`,
		`{"profiles":[[1.]]}`,
		`{"profiles":[[.5]]}`,
		`{"profiles":[[01]]}`,
		`{"profiles":[[+1]]}`,
		`{"profiles":[[0x1p-1]]}`,
		`{"profiles":[[1e]]}`,
		`{"profiles":[[NaN]]}`,
		`{"profiles":[[1]]} x`,
		`{"profiles":[[1]]}}`,
		`{"profiles":[[1]]`,
		`{"profiles":[[1]`,
		`[[1]]`,
		``,
		`{}`,
	}
	for _, b := range doubted {
		if decodeParity(t, s, []byte(b)) {
			t.Errorf("recognizer accepted %q", b)
		}
	}
	over := make([][]float64, MaxBatchProfiles+1)
	for i := range over {
		over[i] = []float64{1}
	}
	if decodeParity(t, s, marshalBatch(t, over)) {
		t.Error("recognizer accepted MaxBatchProfiles+1 profiles")
	}
	if !decodeParity(t, s, marshalBatch(t, over[:MaxBatchProfiles])) {
		t.Error("recognizer left MaxBatchProfiles profiles to the reference")
	}
}

// rhoTokens returns n ρ tokens mixing the spellings a client may send:
// three-decimal, full-precision 'f', 'e' with small exponents, and (one in
// 64: ParseFloat takes its slow path on them) subnormals.
func rhoTokens(n int, seed uint64) []string {
	rng := stats.NewRNG(seed)
	toks := make([]string, n)
	for i := range toks {
		switch {
		case i%64 == 63:
			toks[i] = strconv.FormatFloat(math.Float64frombits(1+rng.Uint64()%(1<<52-1)), 'g', -1, 64)
		case i%3 == 0:
			toks[i] = strconv.FormatFloat(float64(1+rng.Intn(1000))/1000, 'f', -1, 64)
		case i%3 == 1:
			toks[i] = strconv.FormatFloat(rng.Float64Open(), 'f', -1, 64)
		default:
			toks[i] = strconv.FormatFloat(rng.Float64Open()*1e-7, 'e', -1, 64)
		}
	}
	return toks
}

// TestRecognizeBatchChunkBoundaries holds the chunk-parallel parse to the
// reference decoder around its cutovers: inner arrays of exactly one byte
// below, at and one byte above decodeChunkMinBytes, and of one byte either
// side of a multiple of decodeChunkBytes, with whitespace around the commas.
func TestRecognizeBatchChunkBoundaries(t *testing.T) {
	s := NewServer()
	seps := []string{",", " , ", ",\n\t"}
	for k, target := range []int{
		decodeChunkMinBytes - 1, decodeChunkMinBytes, decodeChunkMinBytes + 1,
		3*decodeChunkBytes - 1, 3*decodeChunkBytes + 1, 5*decodeChunkBytes + 7,
	} {
		sep := seps[k%len(seps)]
		toks := rhoTokens(target/16, uint64(target))
		arr := []byte(toks[0])
		for _, tok := range toks[1:] {
			if len(arr)+len(sep)+len(tok) > target {
				break
			}
			arr = append(append(arr, sep...), tok...)
		}
		for len(arr)+len(sep)+1 <= target {
			arr = append(append(arr, sep...), '1')
		}
		arr = append(bytes.Repeat([]byte{' '}, target-len(arr)), arr...)
		body := []byte(`{"profiles":[[0.5],[` + string(arr) + `],[1]]}`)
		if !decodeParity(t, s, body) {
			t.Fatalf("array of %d bytes (sep %q) left to the reference", len(arr), sep)
		}
	}
}

// TestBatchDeepBadRho: a bad token deep in the last parse chunk of a
// 2^18-ρ profile gets the exact 400 text the reference decoder has always
// given, whatever the defect.
func TestBatchDeepBadRho(t *testing.T) {
	s := NewServer()
	toks := make([]string, 1<<18)
	for i := range toks {
		toks[i] = "0.5"
	}
	for _, tc := range []struct{ bad, msg string }{
		{"1.5", "profiles[1]: profile: ρ[262141] = 1.5 exceeds 1; normalize so the slowest computer has ρ = 1"},
		{"1e999", "profiles[1]: ρ values must be numbers"},
		{"-0", "profiles[1]: profile: ρ[262141] = -0 must be positive"},
		{"0", "profiles[1]: profile: ρ[262141] = 0 must be positive"},
		{"01", "invalid JSON: invalid character '1' after array element"},
		{".5", "invalid JSON: invalid character '.' looking for beginning of value"},
		{"1.", "invalid JSON: invalid character ',' after decimal point in numeric literal"},
		{`"x"`, "profiles[1]: ρ values must be numbers"},
		{"0.5,", "invalid JSON: invalid character ',' looking for beginning of value"},
	} {
		toks[len(toks)-3] = tc.bad
		body := []byte(`{"profiles":[[1,0.25],[` + strings.Join(toks, ",") + `]]}`)
		status, _, msg := s.BatchBody(body)
		if status != 400 || msg != tc.msg {
			t.Errorf("bad ρ %q: %d %q, want 400 %q", tc.bad, status, msg, tc.msg)
		}
	}
}

// TestParseJSONNumber holds the token parser to the JSON number grammar
// (json.Valid decides) and, on every valid token, to strconv.ParseFloat's
// value bit for bit.
func TestParseJSONNumber(t *testing.T) {
	rng := stats.NewRNG(5)
	toks := []string{"0", "-0", "1", "0.5", "1.0", "1e0", "1E+0", "5e-1", "100e-2",
		"0.1", "0.3", "1e22", "1e23", "9007199254740991", "9007199254740993",
		"0.12345678901234567890", "1234567890123456789", "12345678901234567890",
		"4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308", "1e999",
		"1e-400", "1e-22", "1e-23", "0.0000000000000000000001", "-1.5",
		"", "-", "01", "1.", ".5", "+1", "1e", "1e+", "0x10", "1_0", "Inf", "NaN", "1.5.5", "--1"}
	toks = append(toks, rhoTokens(4000, 6)...)
	for i := 0; i < 4000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if !math.IsNaN(f) && !math.IsInf(f, 0) {
			toks = append(toks, strconv.FormatFloat(f, 'g', -1, 64), strconv.FormatFloat(f, 'e', 3+rng.Intn(20), 64))
		}
		toks = append(toks, strconv.FormatFloat(float64(rng.Intn(1<<20))/float64(int(1)<<rng.Intn(30)), 'f', -1, 64))
	}
	for _, tok := range toks {
		for _, next := range []string{"", ",", " ", "]"} {
			f, n, ok := parseJSONNumber([]byte(tok + next))
			want, err := strconv.ParseFloat(tok, 64)
			valid := json.Valid([]byte(tok))
			switch {
			case !valid || err != nil:
				if ok && n == len(tok) {
					t.Errorf("%q accepted as %v, want rejected", tok, f)
				}
			case !ok || n != len(tok):
				t.Errorf("%q: ok %v, length %d, want %d", tok, ok, n, len(tok))
			case math.Float64bits(f) != math.Float64bits(want):
				t.Errorf("%q = %v, ParseFloat %v", tok, f, want)
			}
		}
	}
}

// TestBatchSkipsUnfittableKey streams fresh 2^20-ρ batches through a
// server with a 192-entry, 16 MiB cache (16 shards of 1 MiB), where no
// fragment's canonical entry may be cached: none fits a shard
// fragmentsPerShard times. Eight 2^17-ρ and sixteen 2^16-ρ profiles are
// not keyed at all: the key and a 2-byte-per-ρ body bound are already too
// large. Thirty-two 2^15-ρ full-precision profiles are keyed, but each
// body takes the entry over the bound, so it stays in the window's render
// buffer. Either way the cache rejects and holds nothing, and a batch
// allocates within 10% of the same batch on a server with the cache off.
// A fragment that does fit is keyed and cached at its exact size.
func TestBatchSkipsUnfittableKey(t *testing.T) {
	s := NewServerWithCache(CacheConfig{Entries: 192, MaxBytes: 16 << 20, Coalesce: true})
	off := NewServerWithCache(CacheConfig{Entries: 0, Coalesce: true})
	batch := func(count, n int) []byte {
		sets := make([][]float64, count)
		for i := range sets {
			sets[i] = randomRhos(n, uint64(40+i))
		}
		return marshalBatch(t, sets)
	}
	// alloc streams body through srv and returns the fewest bytes one run
	// allocated, over two runs.
	alloc := func(srv *Server, body []byte) uint64 {
		least := uint64(math.MaxUint64)
		for run := 0; run < 2; run++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if status, msg, err := srv.BatchBodyStream(context.Background(), io.Discard, body); status != 200 || err != nil {
				t.Fatalf("stream: %d %s %v", status, msg, err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	for _, shape := range []struct{ count, n int }{{8, 1 << 17}, {16, 1 << 16}, {32, 1 << 15}} {
		keyed := s.fragmentKey(nil, s.Defaults, profile.Profile(randomRhos(shape.n, 1))) != nil
		if want := shape.n == 1<<15; keyed != want {
			t.Fatalf("%d-ρ fragment keyed %v, want %v", shape.n, keyed, want)
		}
		body := batch(shape.count, shape.n)
		cached := alloc(s, body)
		if c := s.cache.counters(); c.rejected != 0 || c.size != 0 {
			t.Fatalf("%d × %d ρ: cache rejected %d entries (size %d), want 0: unfittable entries were offered",
				shape.count, shape.n, c.rejected, c.size)
		}
		if raceEnabled { // -race perturbs allocation counts
			continue
		}
		uncached := alloc(off, body)
		t.Logf("%d × %d ρ: %d bytes allocated, cache-off %d", shape.count, shape.n, cached, uncached)
		if float64(cached) > 1.1*float64(uncached) {
			t.Fatalf("%d × %d ρ: %d bytes allocated, cache-off %d: over 10%% more", shape.count, shape.n, cached, uncached)
		}
	}
	p := profile.Profile(randomRhos(1<<13, 9))
	key := s.fragmentKey(nil, s.Defaults, p)
	if key == nil {
		t.Fatal("a fragment that fits a shard was not keyed")
	}
	if _, _, err := s.BatchBodyStream(context.Background(), io.Discard, marshalBatch(t, [][]float64{p})); err != nil {
		t.Fatal(err)
	}
	if body, _, ok := get(s.cache, hashKey(key), key); !ok || cap(body) != len(body) {
		t.Fatalf("fitting fragment cached %v, capacity %d for %d bytes", ok, cap(body), len(body))
	}
}
