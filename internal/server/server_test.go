package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/server"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	s, _ := core.NewKernelSession(kernelsim.Options{})
	ts := httptest.NewServer(server.New(s))
	t.Cleanup(ts.Close)
	return ts
}

func post(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out map[string]any
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp, out
}

func TestVPlotEndpoint(t *testing.T) {
	ts := newServer(t)
	resp, out := post(t, ts, "/api/vplot", `{"figure":"7-1"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["pane"].(float64) != 1 {
		t.Errorf("pane = %v", out["pane"])
	}

	// Pane listing and all three render formats.
	r, err := http.Get(ts.URL + "/api/panes")
	if err != nil {
		t.Fatal(err)
	}
	var panes []map[string]any
	_ = json.NewDecoder(r.Body).Decode(&panes)
	r.Body.Close()
	if len(panes) != 1 || panes[0]["kind"] != "primary" {
		t.Fatalf("panes = %v", panes)
	}
	for _, format := range []string{"json", "text", "dot"} {
		r, err := http.Get(ts.URL + "/api/pane?id=1&format=" + format)
		if err != nil || r.StatusCode != http.StatusOK {
			t.Fatalf("pane format %s: %v %v", format, err, r.Status)
		}
		r.Body.Close()
	}
}

func TestVCtrlAndVChatEndpoints(t *testing.T) {
	ts := newServer(t)
	post(t, ts, "/api/vplot", `{"figure":"3-4"}`)
	resp, out := post(t, ts, "/api/vctrl",
		`{"command":"viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vctrl: %v", out)
	}
	resp, out = post(t, ts, "/api/vchat", `{"pane":1,"message":"shrink tasks that have no address space"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("vchat: %v", out)
	}
	if !strings.Contains(out["viewql"].(string), "UPDATE") {
		t.Errorf("vchat output: %v", out["viewql"])
	}
}

func TestCustomProgramEndpoint(t *testing.T) {
	ts := newServer(t)
	prog := `
define T as Box<task_struct> [ Text pid, comm ]
x = T(${&init_task})
plot @x
`
	resp, out := post(t, ts, "/api/vplot", mustJSON(map[string]string{"name": "custom", "program": prog}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("custom vplot: %v", out)
	}
}

func TestErrorResponses(t *testing.T) {
	ts := newServer(t)
	if resp, _ := post(t, ts, "/api/vplot", `{"figure":"nope"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad figure: %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts, "/api/vctrl", `{"command":"show 1"}`); resp.StatusCode == http.StatusOK {
		t.Errorf("vctrl before vplot should fail")
	}
	r, _ := http.Get(ts.URL + "/api/pane?id=7")
	if r.StatusCode == http.StatusOK {
		t.Errorf("missing pane should 404")
	}
	r.Body.Close()
	r, _ = http.Get(ts.URL + "/")
	if r.StatusCode != http.StatusOK {
		t.Errorf("index: %d", r.StatusCode)
	}
	r.Body.Close()

	// Pane IDs parse strictly: trailing junk or a hex spelling is a bad
	// request, never a lookup of some other pane.
	post(t, ts, "/api/vplot", `{"figure":"7-1"}`)
	for _, id := range []string{"1abc", "0x1", "", " 1"} {
		r, _ = http.Get(ts.URL + "/api/pane?id=" + url.QueryEscape(id))
		if r.StatusCode != http.StatusBadRequest {
			t.Errorf("pane id %q: %d, want 400", id, r.StatusCode)
		}
		r.Body.Close()
	}
	if resp, _ := post(t, ts, "/api/vctrl", `{"command":"show 1abc"}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("vctrl show 1abc: %d, want 422", resp.StatusCode)
	}
}

func mustJSON(v any) string {
	b, _ := json.Marshal(v)
	return string(b)
}

func TestSessionExportImportEndpoints(t *testing.T) {
	ts := newServer(t)
	post(t, ts, "/api/vplot", `{"figure":"3-4"}`)
	post(t, ts, "/api/vctrl",
		`{"command":"viewql 1 a = SELECT task_struct FROM * WHERE pid == 1\nUPDATE a WITH collapsed: true"}`)
	r, err := http.Get(ts.URL + "/api/session/export")
	if err != nil || r.StatusCode != http.StatusOK {
		t.Fatalf("export: %v %v", err, r.Status)
	}
	data := new(strings.Builder)
	if _, err := io.Copy(data, r.Body); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if !strings.Contains(data.String(), "collapsed") {
		t.Fatalf("export misses attrs")
	}
	// Import into a fresh server over a fresh kernel.
	ts2 := newServer(t)
	resp, out := post(t, ts2, "/api/session/import", data.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("import: %v", out)
	}
	r2, _ := http.Get(ts2.URL + "/api/panes")
	var panes []map[string]any
	_ = json.NewDecoder(r2.Body).Decode(&panes)
	r2.Body.Close()
	if len(panes) != 1 {
		t.Fatalf("restored panes = %d", len(panes))
	}
}
