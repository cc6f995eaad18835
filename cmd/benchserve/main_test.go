package main

import (
	"encoding/json"
	"testing"

	"hetero/internal/api"
	"hetero/internal/benchcert"
)

func TestBuildReportQuick(t *testing.T) {
	cert := buildCert(true)
	regimes := cert.Report.([]RegimeResult)
	if len(regimes) != 8 {
		t.Fatalf("%d regimes, want 8", len(regimes))
	}
	for _, r := range regimes {
		if r.Requests <= 0 || r.BaselineOpsPerSec <= 0 || r.TunedOpsPerSec <= 0 {
			t.Fatalf("regime %s: empty run: %+v", r.Name, r)
		}
		if r.TunedP99Ms < r.TunedP50Ms {
			t.Fatalf("regime %s: p99 %v < p50 %v", r.Name, r.TunedP99Ms, r.TunedP50Ms)
		}
	}
	claims := map[string]benchcert.Claim{}
	for _, c := range cert.Claims {
		claims[c.Name] = c
		if c.Value <= 0 {
			t.Fatalf("claim %s: non-positive value %v", c.Name, c.Value)
		}
	}
	for name, threshold := range map[string]float64{
		"hit": 0, "miss": 0, "mixed": 3, "large_n": 0, "many_clients": 2,
		"fleet": 2, "fleet.amplification": 1.25, "fleet.baseline_evals": 0.75,
		"sweep": 2, "sweep.spill_hits": 1, "sweep.peak": 0.5,
		"restart": 0.9, "restart.spill_hits": 1,
	} {
		c, ok := claims[name]
		if !ok {
			t.Fatalf("missing claim %q", name)
		}
		if c.Threshold != threshold {
			t.Fatalf("claim %s: threshold %v, want %v", name, c.Threshold, threshold)
		}
	}
	if len(claims) != 13 {
		t.Fatalf("%d claims, want 13", len(claims))
	}
	if cert.Host.GOMAXPROCS < 8 {
		t.Fatalf("GOMAXPROCS = %d, want ≥ 8 (the certificate's environment)", cert.Host.GOMAXPROCS)
	}
	// The document must round-trip as JSON (it becomes BENCH_serve.json).
	raw, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}
	var back benchcert.Cert
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
}

func TestLargeProfileQueryIsValid(t *testing.T) {
	q := largeProfileQuery(512)
	if len(q) < 512 {
		t.Fatalf("suspiciously short query: %d bytes", len(q))
	}
	s := api.NewServer()
	if status, _ := s.MeasureQuery(q); status != 200 {
		t.Fatalf("large profile query rejected: status %d", status)
	}
}
