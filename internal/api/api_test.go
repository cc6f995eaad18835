package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hetero/internal/core"
	"hetero/internal/model"
	"hetero/internal/profile"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, dst interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

func postJSON(t *testing.T, url string, body interface{}, dst interface{}) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	var out map[string]string
	if code := getJSON(t, srv.URL+"/v1/healthz", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out["status"] != "ok" {
		t.Fatalf("body %v", out)
	}
}

func TestMeasureMatchesLibrary(t *testing.T) {
	srv := testServer(t)
	var out MeasureResponse
	if code := getJSON(t, srv.URL+"/v1/measure?profile=1,0.5,0.25", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	m := model.Table1()
	p := profile.MustNew(1, 0.5, 0.25)
	if math.Abs(out.X-core.X(m, p)) > 1e-12 {
		t.Fatalf("X = %v, want %v", out.X, core.X(m, p))
	}
	if math.Abs(out.HECR-core.HECR(m, p)) > 1e-12 {
		t.Fatalf("HECR = %v", out.HECR)
	}
}

func TestMeasureCustomParams(t *testing.T) {
	srv := testServer(t)
	var out MeasureResponse
	if code := getJSON(t, srv.URL+"/v1/measure?profile=1,0.5&tau=0.01", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	m := model.Table1()
	m.Tau = 0.01
	want := core.X(m, profile.MustNew(1, 0.5))
	if math.Abs(out.X-want) > 1e-12 {
		t.Fatalf("X = %v, want %v under τ=0.01", out.X, want)
	}
}

func TestMeasureErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		path string
		code int
	}{
		{"/v1/measure", http.StatusBadRequest},
		{"/v1/measure?profile=1,-0.5", http.StatusBadRequest},
		{"/v1/measure?profile=1,abc", http.StatusBadRequest},
		{"/v1/measure?profile=1&tau=-1", http.StatusBadRequest},
		{"/v1/measure?profile=1&pi=NaN", http.StatusBadRequest},
		{"/v1/measure?profile=1&pi=Inf", http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code := getJSON(t, srv.URL+tc.path, nil); code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.path, code, tc.code)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/measure", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST measure: %d", resp.StatusCode)
	}
}

func TestCompare(t *testing.T) {
	srv := testServer(t)
	var out CompareResponse
	if code := getJSON(t, srv.URL+"/v1/compare?p1=0.99,0.02&p2=0.5,0.5", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Winner != 1 {
		t.Fatalf("winner = %d, want 1 (§4 counterexample)", out.Winner)
	}
	if !(out.P1.X > out.P2.X) {
		t.Fatalf("payload inconsistent: %+v", out)
	}
}

func TestSchedule(t *testing.T) {
	srv := testServer(t)
	var out ScheduleResponse
	code := postJSON(t, srv.URL+"/v1/schedule",
		ScheduleRequest{Profile: []float64{1, 0.5, 0.25}, Lifespan: 3600}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	m := model.Table1()
	p := profile.MustNew(1, 0.5, 0.25)
	if math.Abs(out.TotalWork-core.W(m, p, 3600)) > 1e-6 {
		t.Fatalf("total work %v", out.TotalWork)
	}
	if len(out.Computers) != 3 || out.Computers[2].ResultsAt > 3600+1e-6 {
		t.Fatalf("computers %+v", out.Computers)
	}
	// Allocations grow toward the fastest computer.
	if !(out.Allocations[2] > out.Allocations[1] && out.Allocations[1] > out.Allocations[0]) {
		t.Fatalf("allocations %v", out.Allocations)
	}
}

func TestScheduleErrors(t *testing.T) {
	srv := testServer(t)
	if code := postJSON(t, srv.URL+"/v1/schedule", ScheduleRequest{Profile: []float64{1}, Lifespan: -1}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("negative lifespan: %d", code)
	}
	if code := postJSON(t, srv.URL+"/v1/schedule", ScheduleRequest{Profile: []float64{-1}, Lifespan: 10}, nil); code != http.StatusBadRequest {
		t.Fatalf("bad profile: %d", code)
	}
	resp, err := http.Post(srv.URL+"/v1/schedule", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
	gr, err := http.Get(srv.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET schedule: %d", gr.StatusCode)
	}
}

func TestDesign(t *testing.T) {
	srv := testServer(t)
	var out DesignResponse
	req := map[string]interface{}{
		"budget": 40,
		"catalog": []map[string]interface{}{
			{"Name": "econo", "Rho": 1, "Price": 7},
			{"Name": "turbo", "Rho": 0.1, "Price": 55},
		},
	}
	if code := postJSON(t, srv.URL+"/v1/design", req, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Cost > 40 || len(out.Profile) == 0 || out.X <= 0 {
		t.Fatalf("design %+v", out)
	}
}

func TestDesignErrors(t *testing.T) {
	srv := testServer(t)
	req := map[string]interface{}{"budget": 1, "catalog": []map[string]interface{}{
		{"Name": "x", "Rho": 0.5, "Price": 100},
	}}
	if code := postJSON(t, srv.URL+"/v1/design", req, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("unaffordable: %d", code)
	}
}

func TestUnknownRoute(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := testServer(t)
	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		go func() {
			var out MeasureResponse
			url := fmt.Sprintf("%s/v1/measure?profile=1,0.%d", srv.URL, 1+i%8)
			resp, err := http.Get(url)
			if err != nil {
				done <- err
				return
			}
			defer resp.Body.Close()
			done <- json.NewDecoder(resp.Body).Decode(&out)
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

func TestSpeedup(t *testing.T) {
	srv := testServer(t)
	var out SpeedupResponse
	if code := getJSON(t, srv.URL+"/v1/speedup?profile=1,0.5,0.25&phi=0.05", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	// Theorem 3: the fastest computer (index 2) is the upgrade target.
	if out.Index != 2 || out.Mode != "additive" || out.WorkRatio <= 1 {
		t.Fatalf("payload %+v", out)
	}
	if code := getJSON(t, srv.URL+"/v1/speedup?profile=1,1&psi=0.5", &out); code != 200 {
		t.Fatalf("psi status %d", code)
	}
	if out.Mode != "multiplicative" {
		t.Fatalf("payload %+v", out)
	}
}

func TestSpeedupErrors(t *testing.T) {
	srv := testServer(t)
	cases := []struct {
		path string
		code int
	}{
		{"/v1/speedup?profile=1,0.5", http.StatusBadRequest},                  // neither
		{"/v1/speedup?profile=1,0.5&phi=0.1&psi=0.5", http.StatusBadRequest},  // both
		{"/v1/speedup?profile=1,0.5&phi=abc", http.StatusBadRequest},          // bad phi
		{"/v1/speedup?profile=1,0.5&phi=0.9", http.StatusUnprocessableEntity}, // φ ≥ fastest
		{"/v1/speedup?profile=1,0.5&psi=1.5", http.StatusUnprocessableEntity}, // ψ ≥ 1
	}
	for _, tc := range cases {
		if code := getJSON(t, srv.URL+tc.path, nil); code != tc.code {
			t.Fatalf("%s: status %d, want %d", tc.path, code, tc.code)
		}
	}
}

func TestCompareErrors(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		"/v1/compare?p2=1,0.5",          // missing p1
		"/v1/compare?p1=1,0.5",          // missing p2
		"/v1/compare?p1=abc&p2=1",       // bad p1
		"/v1/compare?p1=1&p2=-1",        // bad p2
		"/v1/compare?p1=1&p2=1&tau=bad", // bad params
	}
	for _, path := range cases {
		if code := getJSON(t, srv.URL+path, nil); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d", path, code)
		}
	}
	resp, err := http.Post(srv.URL+"/v1/compare", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST compare: %d", resp.StatusCode)
	}
}

func TestCompareTie(t *testing.T) {
	srv := testServer(t)
	var out CompareResponse
	if code := getJSON(t, srv.URL+"/v1/compare?p1=0.5,0.5&p2=0.5,0.5", &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.Winner != 0 {
		t.Fatalf("tie winner = %d", out.Winner)
	}
}

func TestDesignMethodAndJSONErrors(t *testing.T) {
	srv := testServer(t)
	gr, err := http.Get(srv.URL + "/v1/design")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET design: %d", gr.StatusCode)
	}
	resp, err := http.Post(srv.URL+"/v1/design", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: %d", resp.StatusCode)
	}
}

func TestDesignCustomParams(t *testing.T) {
	srv := testServer(t)
	var out DesignResponse
	req := map[string]interface{}{
		"budget": 20,
		"params": map[string]float64{"tau": 1e-6, "pi": 1e-5, "delta": 1},
		"catalog": []map[string]interface{}{
			{"Name": "box", "Rho": 0.5, "Price": 5},
		},
	}
	if code := postJSON(t, srv.URL+"/v1/design", req, &out); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(out.Profile) != 4 {
		t.Fatalf("profile %v, want 4 boxes", out.Profile)
	}
}

func TestSpeedupMethodAndProfileErrors(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Post(srv.URL+"/v1/speedup", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST speedup: %d", resp.StatusCode)
	}
	if code := getJSON(t, srv.URL+"/v1/speedup?phi=0.1", nil); code != http.StatusBadRequest {
		t.Fatalf("missing profile: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/speedup?profile=1&tau=bad&phi=0.1", nil); code != http.StatusBadRequest {
		t.Fatalf("bad tau: %d", code)
	}
	if code := getJSON(t, srv.URL+"/v1/speedup?profile=1,0.5&psi=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad psi: %d", code)
	}
}

func TestScheduleCustomParams(t *testing.T) {
	srv := testServer(t)
	var out ScheduleResponse
	params := model.Table1()
	params.Tau = 1e-5
	code := postJSON(t, srv.URL+"/v1/schedule",
		ScheduleRequest{Profile: []float64{1, 0.5}, Lifespan: 100, Params: &params}, &out)
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if out.TotalWork <= 0 {
		t.Fatalf("work %v", out.TotalWork)
	}
}
