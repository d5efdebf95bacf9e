package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

func newObservedServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, _, _ := core.NewObservedKernelSession(kernelsim.Options{}, obs.NewObserver())
	ts := httptest.NewServer(server.New(s))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

func TestDebugMetricsEndpoint(t *testing.T) {
	ts := newObservedServer(t)
	if resp, _ := post(t, ts, "/api/vplot", `{"figure":"7-1"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("vplot status %d", resp.StatusCode)
	}

	resp, body := get(t, ts, "/debug/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"vl_extractions_total 1",
		"vl_snapshot_page_misses_total",
		"vl_target_link_transactions_total",
		`vl_extraction_duration_ms_count{figure="fig7-1"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

func TestDebugTraceEndpoint(t *testing.T) {
	ts := newObservedServer(t)

	// Before any plot, the trace surfaces hold nothing.
	if resp, _ := get(t, ts, "/debug/trace/last"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace/last before plots: status %d", resp.StatusCode)
	}

	if resp, _ := post(t, ts, "/api/vplot", `{"figure":"7-1"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("vplot status %d", resp.StatusCode)
	}

	for _, path := range []string{"/debug/trace/last", "/debug/trace/1"} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		var out struct {
			Pane  int             `json:"pane"`
			Trace *obs.SpanExport `json:"trace"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if out.Pane != 1 || out.Trace == nil || !strings.HasPrefix(out.Trace.Name, "vplot:") {
			t.Fatalf("%s: pane=%d trace=%+v", path, out.Pane, out.Trace)
		}
	}

	if resp, _ := get(t, ts, "/debug/trace/99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace/99: status %d, want 404", resp.StatusCode)
	}
	if resp, _ := get(t, ts, "/debug/trace/bogus"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trace/bogus: status %d, want 400", resp.StatusCode)
	}
}

func TestDebugSlowLogEndpoint(t *testing.T) {
	ts := newObservedServer(t)
	post(t, ts, "/api/vplot", `{"figure":"7-1"}`)
	post(t, ts, "/api/vplot", `{"figure":"3-6"}`)

	resp, body := get(t, ts, "/debug/slowlog")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var entries []struct {
		Label string          `json:"label"`
		DurMS float64         `json:"dur_ms"`
		Seq   uint64          `json:"seq"`
		Trace *obs.SpanExport `json:"trace"`
	}
	if err := json.Unmarshal(body, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("slowlog entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		if !strings.Contains(e.Label, "pane ") || e.Trace == nil {
			t.Fatalf("entry = %+v", e)
		}
	}
}

// TestDebugEndpointsUnobserved pins the opt-in contract: a session built
// without an observer serves 404 on every debug surface.
func TestDebugEndpointsUnobserved(t *testing.T) {
	s, _ := core.NewKernelSession(kernelsim.Options{})
	ts := httptest.NewServer(server.New(s))
	t.Cleanup(ts.Close)
	for _, path := range []string{"/debug/metrics", "/debug/trace/last", "/debug/slowlog"} {
		if resp, _ := get(t, ts, path); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// The diagnosis endpoint answers from retained span trees: a plotted pane
// diagnoses by id or via "slowest", an unknown pane 404s, and the plain
// server (no observer) keeps 404ing the whole surface.
func TestDebugDiagnoseEndpoint(t *testing.T) {
	ts := newObservedServer(t)
	if resp, _ := post(t, ts, "/api/vplot", `{"figure":"7-1"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("vplot status %d", resp.StatusCode)
	}

	for _, path := range []string{"/debug/diagnose/1", "/debug/diagnose/slowest"} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d: %s", path, resp.StatusCode, body)
		}
		var out struct {
			Pane      int    `json:"pane"`
			Rendered  string `json:"rendered"`
			Diagnosis struct {
				Suspect   string  `json:"suspect"`
				TotalMS   float64 `json:"total_ms"`
				Breakdown struct {
					TotalUS int64            `json:"total_us"`
					Stages  []obs.StageShare `json:"stages"`
				} `json:"breakdown"`
			} `json:"diagnosis"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, body)
		}
		if out.Pane != 1 || out.Diagnosis.Suspect == "" || out.Diagnosis.Suspect == obs.StageOther {
			t.Fatalf("%s: pane=%d suspect=%q", path, out.Pane, out.Diagnosis.Suspect)
		}
		if !strings.Contains(out.Rendered, "dominant stage: "+out.Diagnosis.Suspect) {
			t.Fatalf("%s: rendered text disagrees with structure:\n%s", path, out.Rendered)
		}
		var sum int64
		for _, st := range out.Diagnosis.Breakdown.Stages {
			sum += st.DurUS
		}
		if total := out.Diagnosis.Breakdown.TotalUS; sum*10 < total*9 {
			t.Fatalf("%s: stages sum %dus of %dus", path, sum, total)
		}
	}

	if resp, body := get(t, ts, "/debug/diagnose/99"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown pane status %d: %s", resp.StatusCode, body)
	}
	if resp, body := get(t, ts, "/debug/diagnose/nope"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pane id status %d: %s", resp.StatusCode, body)
	}

	plain := newServer(t)
	if resp, _ := get(t, plain, "/debug/diagnose/1"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unobserved server status %d", resp.StatusCode)
	}
}

// A diagnostic question through /api/vchat routes to the diagnosis path and
// answers {"kind":"diagnosis"}; a visualization request keeps the
// historical {"viewql"} shape.
func TestVChatDiagnosisRouting(t *testing.T) {
	ts := newObservedServer(t)
	if resp, _ := post(t, ts, "/api/vplot", `{"figure":"7-1"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("vplot status %d", resp.StatusCode)
	}
	resp, out := post(t, ts, "/api/vchat", `{"pane":1,"message":"why is pane 1 slow?"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["kind"] != "diagnosis" || !strings.Contains(out["answer"].(string), "dominant stage:") {
		t.Fatalf("diagnosis routing: %v", out)
	}
	if _, hasViewQL := out["viewql"]; hasViewQL {
		t.Fatalf("diagnostic answer leaked a viewql field: %v", out)
	}
}

// The pprof surface profiles the process itself, so it must answer even on
// a session built without an observer — unlike the other /debug/ endpoints.
func TestDebugPprofEndpoint(t *testing.T) {
	s, _ := core.NewKernelSession(kernelsim.Options{})
	ts := httptest.NewServer(server.New(s))
	t.Cleanup(ts.Close)

	resp, body := get(t, ts, "/debug/pprof/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d: %s", resp.StatusCode, body)
	}
	for _, want := range []string{"goroutine", "heap"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("pprof index missing %q:\n%s", want, body)
		}
	}
	if resp, _ := get(t, ts, "/debug/pprof/heap?debug=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("heap profile status %d", resp.StatusCode)
	}
}
