package api

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"hetero/internal/profile"
	"hetero/internal/stats"
)

// TestMeasurePathMatchesEncodingJSON pins the hand encoder to the exact
// bytes json.Marshal produced before the zero-allocation rewrite: same
// field order, same float spellings, same trailing newline.
func TestMeasurePathMatchesEncodingJSON(t *testing.T) {
	s := NewServerCacheSize(0) // disabled cache: every call renders fresh
	rng := stats.NewRNG(99)
	queries := []string{
		"profile=1,0.5,0.25",
		"profile=1",
		"profile=1,0.5&tau=0.01",
		"profile=0.003,0.9995,1&tau=0.2&pi=1e-5&delta=0.25",
	}
	for i := 0; i < 40; i++ {
		n := 1 + int(rng.Uint64()%12)
		p := profile.RandomNormalized(rng, n)
		parts := make([]string, len(p))
		for j, rho := range p {
			parts[j] = strconv.FormatFloat(rho, 'g', -1, 64)
		}
		queries = append(queries, "profile="+strings.Join(parts, ","))
	}
	for _, q := range queries {
		status, body := s.MeasureQuery(q)
		if status != 200 {
			t.Fatalf("query %q: status %d", q, status)
		}
		// Re-derive the reference bytes through the pre-rewrite path.
		m := s.Defaults
		var out MeasureResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("query %q: body %q does not decode: %v", q, body, err)
		}
		values, _ := splitQueryForTest(q)
		if v, ok := values["tau"]; ok {
			m.Tau, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := values["pi"]; ok {
			m.Pi, _ = strconv.ParseFloat(v, 64)
		}
		if v, ok := values["delta"]; ok {
			m.Delta, _ = strconv.ParseFloat(v, 64)
		}
		p, err := profileFromString(values["profile"])
		if err != nil {
			t.Fatalf("query %q: reference profile parse: %v", q, err)
		}
		want, err := json.Marshal(measureResponse(m, p))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if string(body) != string(want) {
			t.Fatalf("query %q:\n got %q\nwant %q", q, body, want)
		}
	}
}

func splitQueryForTest(q string) (map[string]string, error) {
	out := map[string]string{}
	for _, pair := range strings.Split(q, "&") {
		k, v, _ := strings.Cut(pair, "=")
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out, nil
}

// TestAppendJSONFloatMatchesMarshal fuzzes the float encoder against
// encoding/json across magnitudes, including the e-06 → e-6 cleanup branch.
func TestAppendJSONFloatMatchesMarshal(t *testing.T) {
	rng := stats.NewRNG(7)
	cases := []float64{0, 1, -1, 0.5, 1e-6, 9.999e-7, 1e21, 9.99e20, 1e-9,
		-2.5e-8, 3.141592653589793, 1e300, 5e-324, math.MaxFloat64}
	for i := 0; i < 2000; i++ {
		mag := math.Pow(10, float64(int(rng.Uint64()%60))-30)
		cases = append(cases, (rng.Float64()*2-1)*mag)
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, f); string(got) != string(want) {
			t.Fatalf("appendJSONFloat(%g) = %q, want %q", f, got, want)
		}
	}
}

// checkJSONFloat fails t unless appendJSONFloat renders f as json.Marshal
// does, appending to a non-empty dst.
func checkJSONFloat(t *testing.T, f float64) {
	t.Helper()
	want, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendJSONFloat([]byte{'['}, f); string(got[1:]) != string(want) {
		t.Fatalf("appendJSONFloat(%v) = %q, want %q (bits %#x)", f, got[1:], want, math.Float64bits(f))
	}
}

// TestAppendJSONFloatShortDecimals holds the exact-decimal path to
// json.Marshal on every k/10^d for d ≤ 6 (each is some k'/10⁶) and on the
// neighbouring double either side, which the path must hand to strconv or
// render as its own shortest decimal.
func TestAppendJSONFloatShortDecimals(t *testing.T) {
	for k := 0; k <= 1_000_000; k++ {
		f := float64(k) / 1e6
		checkJSONFloat(t, f)
		checkJSONFloat(t, math.Nextafter(f, 0))
		checkJSONFloat(t, math.Nextafter(f, 2))
	}
}

// TestAppendJSONFloatBoundaries pins the edges of the exact-decimal path's
// range [1e-6, 1) and the values beside them.
func TestAppendJSONFloatBoundaries(t *testing.T) {
	cases := []float64{
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e-7, 1.5e-6, 0.000001234567, 0.1 + 0.2, 0.3, 0.1, 0.125, 0.5,
		math.Nextafter(1, 0), 1 - 0x1p-53, 1, math.Nextafter(1, 2), 1.5,
		0.999999999999999, 0.9999999999999999, 0.123456789012345, 0.1234567890123456,
		0, math.Copysign(0, -1), 5e-324, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		-1e-6, -0.5, -math.Nextafter(1, 0), 1e15, 1e21,
	}
	for _, f := range cases {
		checkJSONFloat(t, f)
	}
}

// TestMeasureQueryParsingMatchesLegacy drives both the sliced parser (via
// MeasureQuery) and the legacy url.Values path (via profileFromString +
// paramsFromQuery semantics) over awkward queries and demands identical
// outcomes: same status, and for 200s the same body bytes.
func TestMeasureQueryParsingMatchesLegacy(t *testing.T) {
	s := NewServerCacheSize(0)
	cases := []struct {
		query  string
		status int
	}{
		{"profile=1,0.5,0.25", 200},
		{"profile=1%2C0.5", 200},            // escaped comma
		{"profile=1,+0.5", 200},             // '+' decodes to a trimmable space
		{"profile=1&profile=0.5", 200},      // first occurrence wins
		{"tau=0.01&profile=1,0.5", 200},     // order independence
		{"profile=1,0.5&unknown=x", 200},    // unknown params ignored
		{"profile=1,0.5&tau=", 200},         // empty param value skipped
		{"", 400},                           // missing everything
		{"profile=", 400},                   // empty profile
		{"profile=1,abc", 400},              // bad ρ
		{"profile=1,", 400},                 // trailing comma
		{"profile=1,-0.5", 400},             // negative ρ
		{"profile=1,2", 400},                // ρ above 1
		{"profile=1&tau=-1", 400},           // invalid params
		{"profile=1&tau=abc", 400},          // unparsable param
		{"profile=1;tau=2", 400},            // semicolon pair dropped → no profile
		{"profile=1%GG", 400},               // broken escape → pair dropped
		{"profile=1&tau=0.5&tau=junk", 200}, // later duplicates ignored
	}
	for _, tc := range cases {
		status, body := s.MeasureQuery(tc.query)
		if status != tc.status {
			t.Fatalf("query %q: status %d, want %d", tc.query, status, tc.status)
		}
		if status == 200 && !strings.Contains(string(body), `"x"`) {
			t.Fatalf("query %q: body %q", tc.query, body)
		}
	}
}

// TestMeasureCachedPathZeroAlloc is the steady-state gate: with the cache
// warm, the measure hot path — a spelling-front probe for every query, a
// respelled one included — performs zero allocations per request.
func TestMeasureCachedPathZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	s := NewServer()
	queries := []string{
		"profile=1,0.5,0.25",
		"profile=1,0.5,0.25&tau=0.01",
		"profile=0.9,0.8,0.7,0.6,0.5,0.4,0.3,0.2,0.1,1",
		"profile=1,5e-1,2.5e-1", // respelling of the first query
	}
	for _, q := range queries {
		if status, _ := s.MeasureQuery(q); status != 200 { // warm the cache
			t.Fatalf("warmup status for %q", q)
		}
	}
	rawBefore, canonBefore := s.rawCache.counters().hits, s.cache.counters().hits
	for _, q := range queries {
		allocs := testing.AllocsPerRun(200, func() {
			status, _ := s.MeasureQuery(q)
			if status != 200 {
				t.Fatal("cached query failed")
			}
		})
		if allocs != 0 {
			t.Errorf("cached measure path for %q: %v allocs/op, want 0", q, allocs)
		}
	}
	// Every repeat, the respelling included, resolved at the spelling
	// front: one map probe, no parse, no canonical lookup.
	raw, canon := s.rawCache.counters().hits-rawBefore, s.cache.counters().hits-canonBefore
	if raw < uint64(200*len(queries)) || canon != 0 {
		t.Errorf("repeats: %d spelling-front hits, %d canonical hits; want ≥ %d and 0", raw, canon, 200*len(queries))
	}
}

// TestMeasureMissPathBoundedAllocs bounds the miss path: evaluation, JSON
// encoding into pooled scratch, one owned copy for the cache, and the
// singleflight/LRU bookkeeping. The budget is deliberately loose — the gate
// exists to catch accidental O(n) or per-request regressions, not to pin
// the exact count.
func TestMeasureMissPathBoundedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	const missBudget = 24
	s := NewServerCacheSize(1 << 20) // no eviction during the run
	queries := make([]string, 0, 4096)
	for i := 0; i < cap(queries); i++ {
		queries = append(queries, fmt.Sprintf("profile=1,0.5,0.%04d", i+1))
	}
	idx := 0
	allocs := testing.AllocsPerRun(2000, func() {
		status, _ := s.MeasureQuery(queries[idx])
		if status != 200 {
			t.Fatal("miss query failed")
		}
		idx++
	})
	if allocs > missBudget {
		t.Errorf("miss path: %v allocs/op, budget %d", allocs, missBudget)
	}
}

// largeTestQuery builds a /v1/measure query long enough to engage the
// raw-query front layer (≥ rawFastPathMinQuery bytes).
func largeTestQuery(n int, seed uint64) string {
	rng := stats.NewRNG(seed)
	p := profile.RandomNormalized(rng, n)
	var b strings.Builder
	b.WriteString("profile=")
	for i, rho := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(rho, 'g', -1, 64))
	}
	return b.String()
}

// TestRawLayerLargeQueryHitZeroAlloc extends the steady-state gate to the
// raw-query front layer: a repeated large query resolves by probing the raw
// map with the RawQuery string itself — no parse, no key build, and no
// allocation.
func TestRawLayerLargeQueryHitZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed under -race")
	}
	q := largeTestQuery(1024, 5)
	if len(q) < rawFastPathMinQuery {
		t.Fatalf("test query too short to engage the raw layer: %d bytes", len(q))
	}
	s := NewServer()
	if status, _ := s.MeasureQuery(q); status != 200 {
		t.Fatal("warmup failed")
	}
	allocs := testing.AllocsPerRun(100, func() {
		status, _ := s.MeasureQuery(q)
		if status != 200 {
			t.Fatal("cached large query failed")
		}
	})
	if allocs != 0 {
		t.Errorf("raw-layer hit path: %v allocs/op, want 0", allocs)
	}
	// The repeats must have resolved at the raw layer, not re-parsed into
	// canonical hits.
	if s.rawCache.counters().hits == 0 {
		t.Error("no raw-layer hits recorded; large query did not take the fast path")
	}
}

// TestRawLayerSpellingsUnifyAtCanonicalLayer: two spellings of one cluster
// are distinct raw keys but one canonical key — the second spelling must
// raw-miss, canonical-hit, and serve byte-identical JSON.
func TestRawLayerSpellingsUnifyAtCanonicalLayer(t *testing.T) {
	q1 := largeTestQuery(1024, 6)
	// Respell without changing any float64: "0.5" → "5e-1" on the first rho
	// would need knowledge of the value; instead append a no-op duplicate
	// parameter, which changes the raw bytes but not the parse.
	q2 := q1 + "&profile=ignored-duplicate"
	s := NewServer()
	st1, b1 := s.MeasureQuery(q1)
	st2, b2 := s.MeasureQuery(q2)
	if st1 != 200 || st2 != 200 {
		t.Fatalf("statuses %d, %d", st1, st2)
	}
	if string(b1) != string(b2) {
		t.Fatal("two spellings of one cluster served different bytes")
	}
	if misses := s.cache.counters().misses; misses != 1 {
		t.Fatalf("canonical misses = %d, want 1 (second spelling must unify)", misses)
	}
}

// TestRawLayerDoesNotCacheErrors: a malformed large query is answered 400
// through the raw layer's singleflight and must not leave a cached entry.
func TestRawLayerDoesNotCacheErrors(t *testing.T) {
	q := largeTestQuery(1024, 7) + ",not-a-number"
	if len(q) < rawFastPathMinQuery {
		t.Fatal("query too short for the raw layer")
	}
	s := NewServer()
	for i := 0; i < 3; i++ {
		if status, _ := s.MeasureQuery(q); status != 400 {
			t.Fatalf("attempt %d: status %d, want 400", i, status)
		}
	}
	if size := s.rawCache.counters().size; size != 0 {
		t.Fatalf("raw layer cached %d entries for an erroring query", size)
	}
}

// TestProfileEchoChunked: the chunked profile echo is byte-identical to the
// serial one around its cutover and at every chunk seam, for ρ rendered in
// 'f' form, in 'e' form (below 1e-6) and subnormal.
func TestProfileEchoChunked(t *testing.T) {
	rng := stats.NewRNG(21)
	serial := func(rhos []float64) []byte {
		return append(appendRhoList([]byte(`{"profile":[`), rhos), ']')
	}
	for _, n := range []int{echoChunk - 1, echoChunk, echoChunk + 1,
		2*echoChunk - 1, 2*echoChunk + 1, 3*echoChunk - 1, 3*echoChunk + 1} {
		rhos := make([]float64, n)
		for i := range rhos {
			switch i % 3 {
			case 0:
				rhos[i] = rng.Float64Open()
			case 1:
				rhos[i] = 1e-7 * rng.Float64Open()
			default:
				rhos[i] = math.Float64frombits(1 + rng.Uint64()%(1<<52-1))
			}
		}
		want := serial(rhos)
		if got := appendProfileEcho([]byte("prefix"), rhos); string(got) != "prefix"+string(want) {
			t.Fatalf("n=%d: chunked echo diverges from the serial one", n)
		}
	}
}
