package main

import (
	"testing"

	"hetero/internal/benchcert"
)

func TestBuildReportQuick(t *testing.T) {
	cert, err := buildCert(true)
	if err != nil {
		t.Fatal(err)
	}
	rep := cert.Report.(*Report)
	if rep.Replan.NsPerOp <= 0 || rep.Replan.Rounds <= 0 || rep.Replan.Faults <= 0 || rep.Replan.Decisions <= 0 {
		t.Fatalf("implausible replan row: %+v", rep.Replan)
	}
	if rep.Churn.Seeds < 5 || rep.Churn.BaseN != 8 || rep.Churn.Joins != 2 {
		t.Fatalf("implausible churn shape: %+v", rep.Churn)
	}
	claims := map[string]benchcert.Claim{}
	for _, c := range cert.Claims {
		claims[c.Name] = c
	}
	if o := claims["empty_plan_overhead"]; len(o.Num) != 1 || o.Value <= 0 || o.Threshold != 2 {
		t.Fatalf("implausible overhead claim: %+v", o)
	}
	// The churn claims are deterministic (no timing), so even a quick run
	// must certify them: one sample per seed, both thresholds met.
	churn := benchcert.Cert{Claims: []benchcert.Claim{claims["churn"], claims["churn.overhead"]}}
	if err := benchcert.Check(&churn, nil); err != nil {
		t.Fatalf("churn claims fail in a quick run: %v", err)
	}
	if len(claims["churn"].Num) != rep.Churn.Seeds {
		t.Fatalf("churn claim carries %d samples for %d seeds", len(claims["churn"].Num), rep.Churn.Seeds)
	}
	if v := claims["churn.overhead"].Value; v < 1 {
		t.Fatalf("replicated dispatch cannot duplicate less than 1x: %v", v)
	}
}
