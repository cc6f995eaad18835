package model

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestTable1Derived(t *testing.T) {
	p := Table1()
	if err := p.Validate(); err != nil {
		t.Fatalf("Table1 invalid: %v", err)
	}
	// Table 2 of the paper: A = 11 µs per work unit.
	if got, want := p.A(), 11e-6; math.Abs(got-want) > 1e-18 {
		t.Fatalf("A = %v, want %v", got, want)
	}
	// B = 1 + (1+δ)π = 1 + 20 µs with coarse (1 s/task) normalization.
	if got, want := p.B(), 1+20e-6; math.Abs(got-want) > 1e-15 {
		t.Fatalf("B = %v, want %v", got, want)
	}
	if got, want := p.TauDelta(), 1e-6; got != want {
		t.Fatalf("τδ = %v, want %v", got, want)
	}
}

func TestTable1FineDerived(t *testing.T) {
	p := Table1Fine()
	if err := p.Validate(); err != nil {
		t.Fatalf("Table1Fine invalid: %v", err)
	}
	if got, want := p.A(), 11e-5; math.Abs(got-want) > 1e-17 {
		t.Fatalf("A = %v, want %v", got, want)
	}
}

func TestTheorem4ThresholdTable1(t *testing.T) {
	// §3.2.2: "with the values from Table 2, Aτδ/B² ≈ 1.1 × 10⁻⁵"... the
	// paper's text has a slip (A·τδ = 11e-6·1e-6 ≈ 1.1e-11); we assert the
	// formula, K = AτδB⁻².
	p := Table1()
	want := p.A() * p.TauDelta() / (p.B() * p.B())
	if got := p.Theorem4Threshold(); got != want {
		t.Fatalf("K = %v, want %v", got, want)
	}
	if p.Theorem4Threshold() > 2e-11 {
		t.Fatalf("K = %v implausibly large for Table 1 values", p.Theorem4Threshold())
	}
}

func TestFigs34ThresholdRegime(t *testing.T) {
	// The Fig. 3/4 narrative requires ψ·1·(1/16) < K < ψ·1·(1/8) for ψ = 1/2:
	// speeding the fastest computer keeps winning down to ρ = 1/8 (round 4,
	// ψρᵢρⱼ = 1/16 > K) and stops winning at ρ = 1/16 (round 5,
	// ψρᵢρⱼ = 1/32 < K).
	p := Figs34()
	if err := p.Validate(); err != nil {
		t.Fatalf("Figs34 invalid: %v", err)
	}
	k := p.Theorem4Threshold()
	if !(k > 0.5/16 && k < 0.5/8) {
		t.Fatalf("K = %v outside (ψ/16, ψ/8) = (%v, %v); Figures 3-4 would not reproduce", k, 0.5/16, 0.5/8)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		frag string
	}{
		{"zero tau", Params{Tau: 0, Pi: 1e-5, Delta: 1}, "τ"},
		{"negative tau", Params{Tau: -1, Pi: 1e-5, Delta: 1}, "τ"},
		{"negative pi", Params{Tau: 1e-6, Pi: -1, Delta: 1}, "π"},
		{"zero delta", Params{Tau: 1e-6, Pi: 1e-5, Delta: 0}, "δ"},
		{"delta above one", Params{Tau: 1e-6, Pi: 1e-5, Delta: 1.5}, "δ"},
		{"nan tau", Params{Tau: math.NaN(), Pi: 1e-5, Delta: 1}, "τ"},
		{"nan pi", Params{Tau: 1e-6, Pi: math.NaN(), Delta: 1}, "π"},
		{"infinite pi", Params{Tau: 1e-6, Pi: math.Inf(1), Delta: 1}, "π"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if err == nil {
				t.Fatalf("Validate(%+v) accepted invalid params", tc.p)
			}
			if !strings.Contains(err.Error(), tc.frag) {
				t.Fatalf("error %q does not mention %q", err, tc.frag)
			}
		})
	}
}

func TestSection41AssumptionHolds(t *testing.T) {
	// τδ ≤ A ≤ B must hold for every δ ∈ (0,1] whenever π ≥ 0: τδ ≤ τ ≤ π+τ
	// and A = π+τ ≤ 1+(1+δ)π = B as long as τ ≤ 1+δπ. Check a parameter
	// sweep that stays in the modelled regime (τ < 1).
	for _, tau := range []float64{1e-9, 1e-6, 1e-3, 0.2, 0.999} {
		for _, pi := range []float64{0, 1e-6, 1e-3, 0.5} {
			for _, delta := range []float64{0.01, 0.5, 1} {
				p := Params{Tau: tau, Pi: pi, Delta: delta}
				if err := p.Validate(); err != nil {
					t.Fatalf("Validate(%v) = %v; the §4.1 assumption should hold for τ<1", p, err)
				}
			}
		}
	}
}

func TestJSONRoundtrip(t *testing.T) {
	p := Table1()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{`"tau"`, `"a"`, `"b"`, `"tau_delta"`} {
		if !strings.Contains(string(data), field) {
			t.Fatalf("marshaled JSON missing %s: %s", field, data)
		}
	}
	var q Params
	if err := json.Unmarshal(data, &q); err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Fatalf("roundtrip changed params: %v != %v", q, p)
	}
}

func TestJSONUnmarshalRejectsPartial(t *testing.T) {
	var p Params
	if err := json.Unmarshal([]byte(`{"tau":1e-6}`), &p); err == nil {
		t.Fatal("partial params accepted")
	}
}

func TestString(t *testing.T) {
	s := Table1().String()
	for _, frag := range []string{"τ=1e-06", "B=1.00002"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String() = %q missing %q", s, frag)
		}
	}
}

func TestValidateModelRegimeViolations(t *testing.T) {
	// τδ > A is impossible with δ ≤ 1 (τδ ≤ τ < π+τ), so the guard that
	// remains reachable is A > B: a transit rate slower than computing
	// itself (τ > 1 + δπ at π≈0).
	p := Params{Tau: 1.5, Pi: 0, Delta: 1}
	err := p.Validate()
	if err == nil {
		t.Fatal("A > B accepted")
	}
	if !strings.Contains(err.Error(), "§4.1") {
		t.Fatalf("error %q does not cite the assumption", err)
	}
}

func TestUnmarshalRejectsMalformedJSON(t *testing.T) {
	var p Params
	if err := json.Unmarshal([]byte(`{"tau": "not a number"}`), &p); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}
