package api

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hetero/internal/fault"
	"hetero/internal/model"
)

// FuzzCanonicalKey drives the cache-key canonicalization with arbitrary
// query-style inputs and checks the two properties the /v1/measure cache
// depends on:
//
//  1. losslessness — ParseCanonicalKey(CanonicalKey(m, p)) reproduces every
//     float64 exactly, so distinct clusters can never collide on one key;
//  2. determinism/spelling-independence — re-rendering the parsed values
//     yields the identical key, so "0.5", "5e-1" and "0.50" share an entry.
func FuzzCanonicalKey(f *testing.F) {
	f.Add("1,0.5,0.25", 1e-6, 10e-6, 1.0)
	f.Add("1", 1e-5, 10e-5, 1.0)
	f.Add("0.5,5e-1,0.50", 0.2, 10e-6, 1.0)
	f.Add("0.0000001,1", 1e-6, 0.0, 0.25)
	f.Add("1,0.5000000000000011", 1e-6, 10e-6, 1.0) // ρ's low byte is 0x0a
	f.Fuzz(func(t *testing.T, profileStr string, tau, pi, delta float64) {
		p, err := profileFromString(profileStr)
		if err != nil {
			t.Skip()
		}
		m := model.Params{Tau: tau, Pi: pi, Delta: delta}
		if m.Validate() != nil {
			t.Skip()
		}
		key := CanonicalKey(m, p)
		if len(key) != 24+8*len(p) {
			t.Fatalf("key of a %d-ρ profile is %d bytes, want %d", len(p), len(key), 24+8*len(p))
		}
		m2, p2, err := ParseCanonicalKey(key)
		if err != nil {
			t.Fatalf("key %q does not parse back: %v", key, err)
		}
		if m2 != m {
			t.Fatalf("params round-trip: %+v → %q → %+v", m, key, m2)
		}
		if len(p2) != len(p) {
			t.Fatalf("profile length round-trip: %d → %d (key %q)", len(p), len(p2), key)
		}
		for i := range p {
			if p2[i] != p[i] {
				t.Fatalf("ρ[%d] round-trip: %v → %v (key %q)", i, p[i], p2[i], key)
			}
		}
		if key2 := CanonicalKey(m2, p2); key2 != key {
			t.Fatalf("key not deterministic: %q vs %q", key, key2)
		}
	})
}

// FuzzFaultPlanParse drives the POST /v1/simulate/faulty decoder with
// arbitrary bodies. The decoder is the trust boundary for the fault
// subsystem, so the invariants are absolute:
//
//  1. it never panics, whatever the bytes;
//  2. anything it accepts is fully simulatable — the plan re-validates, the
//     lifespan is positive and finite, and no NaN/±Inf reached the profile
//     or the fault times (JSON cannot spell them and the validators refuse
//     the loopholes, e.g. overlapping windows or inverted intervals).
func FuzzFaultPlanParse(f *testing.F) {
	f.Add([]byte(`{"profile":[1,0.5],"lifespan":3600}`))
	f.Add([]byte(`{"profile":[1,0.5],"lifespan":3600,"replan":true,"faults":[{"kind":"crash","computer":1,"at":100}]}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"faults":[{"kind":"outage","computer":0,"at":1,"until":5},{"kind":"outage","computer":0,"at":3,"until":7}]}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"faults":[{"kind":"blackout","at":2}]}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"faults":[{"kind":"slowdown","computer":0,"at":-3,"factor":2}]}`))
	f.Add([]byte(`{"profile":[NaN],"lifespan":1e999}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"params":{"tau":1e-6,"pi":1e-5,"delta":1}}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		defaults := model.Table1()
		m, p, lifespan, plan, _, err := decodeFaultyRequest(defaults, body)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted params fail validation: %v (body %q)", verr, body)
		}
		if len(p) == 0 {
			t.Fatalf("accepted an empty profile (body %q)", body)
		}
		for i, rho := range p {
			if math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0 || rho > 1 {
				t.Fatalf("accepted ρ[%d] = %v (body %q)", i, rho, body)
			}
		}
		if !(lifespan > 0) || math.IsInf(lifespan, 0) {
			t.Fatalf("accepted lifespan %v (body %q)", lifespan, body)
		}
		if verr := plan.Validate(len(p)); verr != nil {
			t.Fatalf("accepted plan fails re-validation: %v (body %q)", verr, body)
		}
		for _, fa := range plan.Faults {
			if math.IsNaN(fa.At) || math.IsInf(fa.At, 0) || fa.At < 0 {
				t.Fatalf("accepted fault time %v (body %q)", fa.At, body)
			}
		}
	})
}

// FuzzElasticPlanParse drives the POST /v1/simulate/elastic decoder with
// arbitrary bodies — the join-aware sibling of FuzzFaultPlanParse, plus
// the policy surface. The invariants:
//
//  1. it never panics, whatever the bytes;
//  2. anything accepted is fully simulatable — the plan re-validates with
//     joins interleaved among outages and blackouts, join ρ-values are in
//     (0,1], the policy is coherent (never replan AND redundancy, margin
//     only with an enabled scheme), and the jitter options re-validate.
func FuzzElasticPlanParse(f *testing.F) {
	f.Add([]byte(`{"profile":[1,0.5],"lifespan":3600}`))
	f.Add([]byte(`{"profile":[1,0.5],"lifespan":3600,"replan":true,"faults":[{"kind":"join","computer":2,"at":100,"rho":0.5}]}`))
	f.Add([]byte(`{"profile":[0.5,0.5],"lifespan":3600,"redundancy":"2@0.15","rho_jitter":0.15,"seed":7}`))
	f.Add([]byte(`{"profile":[0.5,0.5,0.5],"lifespan":3600,"redundancy":"coded:2of3"}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"faults":[{"kind":"join","computer":1,"at":2,"rho":0.5},{"kind":"blackout","at":3,"until":4},{"kind":"outage","computer":1,"at":5,"until":7}]}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"replan":true,"redundancy":"3"}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"redundancy":"off@0.1"}`))
	f.Add([]byte(`{"profile":[1],"lifespan":10,"faults":[{"kind":"join","computer":0,"at":1,"rho":0.5}]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, body []byte) {
		defaults := model.Table1()
		m, p, lifespan, plan, pol, opt, err := decodeElasticRequest(defaults, body)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted params fail validation: %v (body %q)", verr, body)
		}
		if len(p) == 0 {
			t.Fatalf("accepted an empty profile (body %q)", body)
		}
		for i, rho := range p {
			if math.IsNaN(rho) || math.IsInf(rho, 0) || rho <= 0 || rho > 1 {
				t.Fatalf("accepted ρ[%d] = %v (body %q)", i, rho, body)
			}
		}
		if !(lifespan > 0) || math.IsInf(lifespan, 0) {
			t.Fatalf("accepted lifespan %v (body %q)", lifespan, body)
		}
		if verr := plan.Validate(len(p)); verr != nil {
			t.Fatalf("accepted plan fails re-validation: %v (body %q)", verr, body)
		}
		for _, fa := range plan.Faults {
			if math.IsNaN(fa.At) || math.IsInf(fa.At, 0) || fa.At < 0 {
				t.Fatalf("accepted fault time %v (body %q)", fa.At, body)
			}
			if fa.Kind == fault.Join && (math.IsNaN(fa.Rho) || fa.Rho <= 0 || fa.Rho > 1) {
				t.Fatalf("accepted join ρ %v (body %q)", fa.Rho, body)
			}
		}
		if verr := pol.Validate(); verr != nil {
			t.Fatalf("accepted policy fails re-validation: %v (body %q)", verr, body)
		}
		if pol.Replan && pol.Redundancy.Enabled() {
			t.Fatalf("accepted contradictory policy (body %q)", body)
		}
		if verr := opt.Validate(); verr != nil {
			t.Fatalf("accepted options fail re-validation: %v (body %q)", verr, body)
		}
	})
}

// FuzzParseCanonicalKey drives the strict parser with arbitrary strings —
// the direction FuzzCanonicalKey cannot cover. The contract:
//
//  1. it never panics, whatever the input;
//  2. malformed keys (a length other than 24 + 8n with n ≥ 1, parameters
//     that fail validation, non-finite or out-of-range ρ) always error;
//  3. anything accepted is a fixed point: re-rendering the parsed values
//     reproduces the input byte-for-byte, and re-parsing agrees exactly.
func FuzzParseCanonicalKey(f *testing.F) {
	// Well-formed keys.
	f.Add(CanonicalKey(model.Table1(), []float64{1, 0.5, 0.25}))
	f.Add(CanonicalKey(model.Figs34(), []float64{1}))
	f.Add(CanonicalKey(model.Table1(), []float64{1, math.Float64frombits(0x3FE000000000000A)}))
	// Malformed: no profile, a ragged length, out-of-range values.
	t1 := model.Table1()
	f.Add(floatBytes(t1.Tau, t1.Pi, t1.Delta))
	f.Add(floatBytes(t1.Tau, t1.Pi, t1.Delta, 1) + "\x00")
	f.Add(floatBytes(t1.Tau, t1.Pi, t1.Delta, 1)[:31])
	f.Add("")
	f.Add(floatBytes(math.NaN(), t1.Pi, t1.Delta, 1))
	f.Add(floatBytes(math.Inf(1), t1.Pi, t1.Delta, 1))
	f.Add(floatBytes(-1, t1.Pi, t1.Delta, 1))
	f.Add(floatBytes(t1.Tau, math.NaN(), t1.Delta, 1))
	f.Add(floatBytes(t1.Tau, math.Inf(1), t1.Delta, 1))
	f.Add(floatBytes(t1.Tau, t1.Pi, t1.Delta, 1, 2))
	f.Add(floatBytes(t1.Tau, t1.Pi, t1.Delta, 1, 0))
	f.Add(floatBytes(t1.Tau, t1.Pi, t1.Delta, math.Copysign(0, -1)))
	f.Add("0x1p-20|0x1.4p-17|0x1p+00|0x1p+00") // the old hex spelling
	f.Fuzz(func(t *testing.T, key string) {
		m, p, err := ParseCanonicalKey(key)
		if err != nil {
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("accepted params fail validation: %v (key %q)", verr, key)
		}
		if len(p) == 0 {
			t.Fatalf("accepted an empty profile (key %q)", key)
		}
		again := CanonicalKey(m, p)
		if again != key {
			t.Fatalf("accepted key is not canonical: %q re-renders as %q", key, again)
		}
		m2, p2, err := ParseCanonicalKey(again)
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", again, err)
		}
		if m2 != m || len(p2) != len(p) {
			t.Fatalf("re-parse of %q disagrees: %+v vs %+v", again, m2, m)
		}
		for i := range p {
			if p2[i] != p[i] {
				t.Fatalf("re-parse ρ[%d]: %v vs %v", i, p2[i], p[i])
			}
		}
	})
}

// floatBytes spells vals as a canonical key does: 8 little-endian bytes of
// each one's bits.
func floatBytes(vals ...float64) string {
	var b []byte
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return string(b)
}

// FuzzAppendJSONFloat holds the float renderer to encoding/json on
// arbitrary float64 bit patterns; NaN and ±Inf, which json.Marshal
// rejects, are skipped.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0.437, 0.000001, 1, 0.1 + 0.2, math.Nextafter(1, 0), 5e-324, -0.25, 1e21} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return
		}
		checkJSONFloat(t, v)
	})
}

// FuzzBatchDecode holds the one-pass batch recognizer to the decoder of
// record on arbitrary bodies: whenever recognizeBatch accepts a body, the
// reference decoder accepts it too with the same profiles and params, and
// BatchBody serves the bytes the reference decode renders to; whenever it
// doubts one, the status and message are the reference's.
func FuzzBatchDecode(f *testing.F) {
	for _, seed := range []string{
		`{"profiles":[[1,0.5],[0.25]]}`,
		" {\n\t\"profiles\" : [ [ 1 , 0.5 ]\r, [0.25] ] } ",
		`{"profiles":[[1e0,5E-1,2.5e-01,100e-2,1E+0,0.0000001,1e-7,4.9e-324]]}`,
		`{"profiles":[[-0]]}`,
		`{"profiles":[[0]]}`,
		`{"profiles":[[1e999]]}`,
		`{"profiles":[[1.]]}`,
		`{"profiles":[[.5]]}`,
		`{"profiles":[[01]]}`,
		`{"Profiles":[[1]]}`,
		`{"profiles":[[1]],"profiles":[[0.5]]}`,
		`{"params":{"tau":0.01,"pi":1e-5,"delta":1},"profiles":[[1,0.5]]}`,
		`{"profiles":[[1,0.5]],"params":{"tau":0.01,"pi":1e-5,"delta":1}}`,
		`{"profiles":[[1]],"params":null}`,
		`{"profiles":null}`,
		`{"profiles":[[[1]]]}`,
		`{"profiles":[[1,"]"]],"params":{"tau":1,"pi":1,"delta":1,"x":"],"}}`,
		`{"profiles":[[1,","]]}`,
		`{"profiles":[[1]]} x`,
		`{"profiles":[[1]]}]`,
	} {
		f.Add([]byte(seed))
	}
	over := []byte(`{"profiles":[[1]`)
	for i := 0; i < MaxBatchProfiles; i++ {
		over = append(over, ",[1]"...)
	}
	f.Add(append(over, "]}"...))
	s := NewServerCacheSize(0)
	f.Fuzz(func(t *testing.T, body []byte) {
		if !decodeParity(t, s, body) {
			return
		}
		params, profiles, _, _ := decodeBatchReference(body)
		m := s.Defaults
		if params != nil {
			m = *params
		}
		if m.Validate() != nil {
			return
		}
		status, got, msg := s.BatchBody(body)
		if want := s.renderBatchBuffered(m, profiles); status != 200 || !bytes.Equal(got, want) {
			t.Fatalf("BatchBody %d %s: %.200q, reference renders %.200q", status, msg, got, want)
		}
	})
}
