package main

import "testing"

func TestBuildReportQuick(t *testing.T) {
	cert, err := buildCert(true)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"speedup_search.n256", "speedup_search.n4096", "measure_serving"}
	if len(cert.Claims) != len(want) {
		t.Fatalf("%d claims, want %v", len(cert.Claims), want)
	}
	for i, c := range cert.Claims {
		if c.Name != want[i] {
			t.Fatalf("claim %d is %q, want %q", i, c.Name, want[i])
		}
		if len(c.Num) != 1 || c.Num[0] <= 0 || c.Den[0] <= 0 || c.Value <= 0 {
			t.Fatalf("claim %s: implausible quick sample %+v", c.Name, c)
		}
	}
	if cert.Claims[1].Threshold != 10 || cert.Claims[2].Threshold != 0 {
		t.Fatalf("thresholds drifted: %+v", cert.Claims)
	}
}
