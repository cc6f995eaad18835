package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"hetero/internal/benchcert"
)

func TestBuildReportQuick(t *testing.T) {
	cert := buildCert(true)
	rep := cert.Report.(*Report)
	want := []string{"many_small", "few_large", "dedup_heavy", "stream_peak"}
	if len(cert.Claims) != len(want) || len(rep.Regimes) != 3 {
		t.Fatalf("%d claims and %d regimes, want claims %v", len(cert.Claims), len(rep.Regimes), want)
	}
	for i, c := range cert.Claims {
		if c.Name != want[i] {
			t.Fatalf("claim %d is %q, want %q", i, c.Name, want[i])
		}
		if len(c.Num) != 2 || c.Value <= 0 {
			t.Fatalf("claim %s: implausible quick samples %+v", c.Name, c)
		}
		if c.Stat == benchcert.MeanCI95 && (c.CILow == nil || *c.CILow > c.Value) {
			t.Fatalf("claim %s: CI low %v above its mean %v", c.Name, c.CILow, c.Value)
		}
	}
	for _, r := range rep.Regimes {
		if r.RequestsPerSample <= 0 || r.BaselineOpsPerSec <= 0 || r.TunedOpsPerSec <= 0 {
			t.Fatalf("regime %s: empty replay: %+v", r.Name, r)
		}
	}
	if peak := cert.Claims[3]; peak.Threshold != streamMemoryRatio || peak.Direction != benchcert.AtMost ||
		rep.Memory.ResponseBytes <= 0 {
		t.Fatalf("stream_peak claim malformed: %+v, memory %+v", peak, rep.Memory)
	}
	// The document must round-trip as JSON (it becomes BENCH_batch.json).
	raw, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}
	var back benchcert.Cert
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
}

// TestBaselineAndTunedAgree pins the benchmark's own validity: both engines
// must serve the same batches successfully and report the same profile
// count, so the speedup compares equal work. (Float spellings can differ at
// the last digit for chunked-kernel sizes, so body equality is only
// asserted below the cutover.)
func TestBaselineAndTunedAgree(t *testing.T) {
	body := batchBody(randomProfiles(6, 64, 42), 0)
	baseStatus, baseResp := baselineBatchServer()(body)
	tunedStatus, tunedResp := tunedBatchServer()(body)
	if baseStatus != 200 || tunedStatus != 200 {
		t.Fatalf("statuses %d / %d", baseStatus, tunedStatus)
	}
	if !bytes.Equal(baseResp, tunedResp) {
		t.Fatalf("small-profile batch responses diverge:\nbaseline %q\ntuned    %q",
			truncate(baseResp), truncate(tunedResp))
	}
}

func truncate(b []byte) []byte {
	if len(b) > 200 {
		return b[:200]
	}
	return b
}
