// Package server implements the visualizer front-end of the paper's §4.2 as
// an HTTP service: v-commands executed against a session arrive as POST
// requests (exactly how the paper's GDB extension talks to its TypeScript
// front-end), pane state is queryable as JSON, and a small embedded HTML
// page renders the panes for a browser. Pane/plot state can be exported and
// re-imported, covering the paper's "persisting the state of panes and
// plots for reuse across debugging sessions".
//
// The server is multi-tenant: one process hosts many sessions behind a
// core.SessionManager, each addressable under /sessions/{id}/... with the
// full single-session surface (v-commands, panes, stream, debug) re-rooted
// per session. The historical un-prefixed routes keep working as aliases
// for a default session, so a single-session deployment never notices.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"visualinux/internal/core"
	"visualinux/internal/vchat"
)

// Server exposes sessions over HTTP.
type Server struct {
	mux *http.ServeMux
	// mgr admits, evicts, and accounts the managed sessions. Always
	// non-nil: the legacy constructor builds one with default limits so
	// even a single-session server can host additional tenants.
	mgr *core.SessionManager

	// tmu guards the tenant registry. Lock order: the manager's lock may
	// be held when tmu is taken (OnEvict), never the reverse — so tenant
	// resolution must not call into the manager while holding tmu.
	tmu     sync.RWMutex
	tenants map[string]*tenant
	// deflt serves the un-prefixed legacy routes. Set at construction and
	// never reassigned; if the default session is evicted its tenant keeps
	// serving the legacy surface over the still-live session object.
	deflt *tenant

	// fleet fans ViewQL queries across the managed sessions (/fleet/query,
	// /debug/fleet, and the cross-target vchat intent). Its guard routes
	// each per-session read through the tenant's read lock.
	fleet *core.Fleet
}

// New wraps a single session as the default tenant — the historical
// single-session constructor, source-compatible with every existing caller.
// A session manager (default capacity limits) backs /sessions, so even a
// legacy-constructed server can host additional tenants.
func New(s *core.Session) *Server {
	srv := newServer(core.NewSessionManager(core.ManagerOptions{}, s.Obs))
	srv.deflt = newTenant("default", s, nil)
	return srv
}

// NewManagedDefault serves sessions from a caller-configured manager with
// an unmanaged default session on the legacy routes — vlserver's shape:
// the operator's startup session (wired to the process observer, exempt
// from eviction) plus an admission-controlled tenant fleet beside it.
func NewManagedDefault(mgr *core.SessionManager, s *core.Session) *Server {
	srv := newServer(mgr)
	srv.deflt = newTenant("default", s, nil)
	return srv
}

// NewManaged serves sessions from mgr. deflt, when non-nil, must be a
// session resident in mgr; it serves the legacy un-prefixed routes and is
// addressable under /sessions/{its-id}/ like any other tenant.
func NewManaged(mgr *core.SessionManager, deflt *core.ManagedSession) *Server {
	srv := newServer(mgr)
	if deflt != nil {
		t := newTenant(deflt.ID, deflt.Session, deflt)
		srv.deflt = t
		srv.tenants[deflt.ID] = t
	}
	return srv
}

func newServer(mgr *core.SessionManager) *Server {
	srv := &Server{
		mux:     http.NewServeMux(),
		mgr:     mgr,
		tenants: make(map[string]*tenant),
	}
	// Evictions (idle TTL, memory pressure) tear down the serving state —
	// stream clients are disconnected, caches dropped. Explicit deletes go
	// through the DELETE handler, which does its own teardown.
	mgr.OnEvict = func(id string, _ *core.ManagedSession) { srv.dropTenant(id) }
	srv.mux.HandleFunc("/", srv.handleIndex)
	// Legacy single-session routes: aliases for the default tenant.
	srv.mux.HandleFunc("/stream", srv.legacy)
	srv.mux.HandleFunc("/api/", srv.legacy)
	srv.mux.HandleFunc("/debug/", srv.legacy)
	// The session fabric.
	srv.mux.HandleFunc("/sessions", srv.handleSessions)
	srv.mux.HandleFunc("/sessions/", srv.handleSessionPath)
	// The fleet scope: one ViewQL query, every session.
	srv.fleet = &core.Fleet{Mgr: mgr, Guard: srv.fleetGuard}
	srv.mux.HandleFunc("/fleet/query", srv.handleFleetQuery)
	srv.registerDebug()
	return srv
}

// legacy serves an un-prefixed route against the default tenant.
func (s *Server) legacy(w http.ResponseWriter, r *http.Request) {
	t := s.deflt
	if t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no default session; use /sessions/{id}%s", r.URL.Path))
		return
	}
	s.dispatch(t, r.URL.Path, w, r)
}

// tenantByID resolves a tenant, counting the request against the session's
// idle TTL. The default tenant answers to "default" even when unmanaged.
func (s *Server) tenantByID(id string) *tenant {
	s.tmu.RLock()
	t := s.tenants[id]
	s.tmu.RUnlock()
	if t == nil && id == "default" {
		t = s.deflt
	}
	if t != nil {
		t.touch()
	}
	return t
}

// dropTenant removes a tenant from the registry and closes its serving
// state. Safe to call for IDs with no tenant (manager-only sessions).
func (s *Server) dropTenant(id string) {
	s.tmu.Lock()
	t := s.tenants[id]
	delete(s.tenants, id)
	s.tmu.Unlock()
	if t != nil {
		t.close()
	}
}

// dispatch routes one request for a resolved tenant. path is the
// tenant-relative route — r.URL.Path for legacy requests, the part after
// /sessions/{id} otherwise — so every handler sees the same shape either
// way.
func (s *Server) dispatch(t *tenant, path string, w http.ResponseWriter, r *http.Request) {
	if t.ms != nil && s.mgr.Tenants != nil {
		s.mgr.Tenants.Requests(t.id).Inc()
	}
	switch {
	case path == "/stream":
		s.handleStream(t, w, r)
	case path == "/api/vplot":
		s.handleVPlot(t, w, r)
	case path == "/api/vctrl":
		s.handleVCtrl(t, w, r)
	case path == "/api/vchat":
		s.handleVChat(t, w, r)
	case path == "/api/panes":
		s.handlePanes(t, w, r)
	case path == "/api/pane":
		s.handlePane(t, w, r)
	case path == "/api/figures":
		s.handleFigures(t, w, r)
	case path == "/api/session/export":
		s.handleExport(t, w, r)
	case path == "/api/session/import":
		s.handleImport(t, w, r)
	case path == "/round":
		s.handleRound(t, w, r)
	case path == "/debug/metrics":
		s.handleMetrics(t, w, r)
	case path == "/debug/metrics/history":
		s.handleMetricsHistory(t, w, r)
	case strings.HasPrefix(path, "/debug/trace/"):
		s.handleTrace(t, strings.TrimPrefix(path, "/debug/trace/"), w, r)
	case path == "/debug/slowlog":
		s.handleSlowLog(t, w, r)
	case strings.HasPrefix(path, "/debug/diagnose"):
		s.handleDiagnose(t, strings.TrimPrefix(strings.TrimPrefix(path, "/debug/diagnose"), "/"), w, r)
	case path == "/debug/stream":
		s.handleStreamDebug(t, w, r)
	default:
		http.NotFound(w, r)
	}
}

// handleExport serializes the session's pane/plot state (paper §4.2
// persistence). Read-only: concurrent with other readers.
func (s *Server) handleExport(t *tenant, w http.ResponseWriter, r *http.Request) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	data, err := t.session.Export()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(data)
}

// handleImport restores an exported session into a fresh one.
func (s *Server) handleImport(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.session.Import(body); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	// The restored tree restarts version/epoch numbering: cached
	// serializations and publish states from before the import could carry
	// ETags identical to the new panes' while holding the old bytes.
	t.clearPaneCache()
	t.publishAfterMutation()
	writeJSON(w, http.StatusOK, map[string]string{"status": "restored"})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxJSONBody caps every JSON request body. Requests carry a ViewCL
// program, a command, a question or a query — kilobytes; the cap keeps one
// oversized body from costing the whole process memory or stack.
const maxJSONBody = 1 << 20

// decodeJSON decodes the request body into v, answering 413 past
// maxJSONBody and 400 for malformed JSON. It reports whether v was filled.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJSONBody)).Decode(v)
	if err == nil {
		return true
	}
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		code = http.StatusRequestEntityTooLarge
	}
	writeErr(w, code, err)
	return false
}

// vplotReq is the body of POST /api/vplot.
type vplotReq struct {
	Name    string `json:"name"`
	Program string `json:"program"` // ViewCL source; or empty with Figure set
	Figure  string `json:"figure"`  // stdlib figure ID, e.g. "7-1"
}

func (s *Server) handleVPlot(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req vplotReq
	if !decodeJSON(w, r, &req) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	var paneID int
	if req.Figure != "" {
		p, e := t.session.VPlotFigure(req.Figure)
		if e == nil {
			paneID = p.ID
		}
		err = e
	} else {
		p, e := t.session.VPlot(req.Name, req.Program)
		if e == nil {
			paneID = p.ID
		}
		err = e
	}
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	t.publishAfterMutation()
	writeJSON(w, http.StatusOK, map[string]any{"pane": paneID})
}

// vctrlReq is the body of POST /api/vctrl.
type vctrlReq struct {
	Command string `json:"command"`
}

func (s *Server) handleVCtrl(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req vctrlReq
	if !decodeJSON(w, r, &req) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out, err := t.session.VCtrl(req.Command)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	t.publishAfterMutation()
	writeJSON(w, http.StatusOK, map[string]string{"output": out})
}

// vchatReq is the body of POST /api/vchat.
type vchatReq struct {
	Pane    int    `json:"pane"`
	Message string `json:"message"`
}

func (s *Server) handleVChat(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	var req vchatReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Pane == 0 {
		req.Pane = 1
	}
	// Fleet questions span sessions, so they must be routed before this
	// tenant's write lock is taken: the fleet guard re-acquires per-tenant
	// read locks (including this one) during the fan-out.
	if intent, _ := vchat.Classify(req.Message); intent == vchat.IntentFleet {
		ans, err := s.fleet.Chat(req.Message)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"kind":    "fleet",
			"answer":  ans.Text,
			"ranking": ans.Ranking,
		})
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	kind, out, err := t.session.VChatAnswer(req.Pane, req.Message)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, err)
		return
	}
	t.publishAfterMutation()
	// Visualization requests keep the historical {"viewql": ...} shape;
	// diagnostic questions answer {"kind":"diagnosis","answer":...}.
	if kind == core.AnswerViewQL {
		writeJSON(w, http.StatusOK, map[string]string{"viewql": out})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"kind": kind, "answer": out})
}

func (s *Server) handlePanes(t *tenant, w http.ResponseWriter, r *http.Request) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	type paneInfo struct {
		ID      int    `json:"id"`
		Kind    string `json:"kind"`
		Title   string `json:"title"`
		Boxes   int    `json:"boxes"`
		Summary string `json:"summary"`
		Version int    `json:"version"`
		Epoch   int    `json:"epoch"`
	}
	var out []paneInfo
	if t.session.Tree != nil {
		for _, p := range t.session.Tree.Panes() {
			out = append(out, paneInfo{
				ID: p.ID, Kind: p.Kind.String(), Title: p.Title,
				Boxes: len(p.Graph.Boxes), Summary: p.Graph.Summary(),
				Version: p.Version, Epoch: t.session.Tree.Epoch(),
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handlePane(t *tenant, w http.ResponseWriter, r *http.Request) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	raw := r.URL.Query().Get("id")
	id, err := strconv.Atoi(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", raw))
		return
	}
	if t.session.Tree == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no panes"))
		return
	}
	p, ok := t.session.Tree.Pane(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no pane %d", id))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	// Weak validator over pane version + tree epoch: the version moves when
	// the pane's content is replaced (incremental re-extraction), the epoch
	// when shared display attributes mutate (ViewQL/expand/vchat). A client
	// revalidating an unchanged pane costs a 304, not a re-serialization.
	etag := t.paneETag(p, format)
	w.Header().Set("ETag", etag)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	c, _, err := t.serializePane(p, format)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", c.ctype)
	_, _ = w.Write(c.body)
}

// etagMatches reports whether an If-None-Match header value matches the
// given entity tag, using RFC 9110 §13.1.2 semantics: weak comparison
// (W/ prefixes are ignored on both sides), comma-separated candidate
// lists, and the "*" wildcard — which matches any current representation
// wherever it appears, including sloppy clients that send it inside a
// list or padded with whitespace.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	want := strings.TrimPrefix(etag, "W/")
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" {
			return true
		}
		if strings.TrimPrefix(part, "W/") == want {
			return true
		}
	}
	return false
}

func (s *Server) handleFigures(t *tenant, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, core.FigureIDs())
}

const indexHTML = `<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>Visualinux</title>
<style>
body { font-family: monospace; margin: 1em; background: #10141a; color: #d8dee9; }
pre { background: #161b22; padding: 1em; overflow: auto; border-radius: 6px; }
input, button, textarea { font-family: monospace; background: #1f2630; color: #d8dee9; border: 1px solid #444; }
.pane { border: 1px solid #333; margin: .6em 0; padding: .4em; }
</style></head>
<body>
<h1>Visualinux</h1>
<p>vplot a figure: <input id="fig" value="7-1" size="8"><button onclick="plot()">vplot</button>
vchat (pane 1): <input id="chat" size="48" placeholder="shrink tasks that have no address space">
<button onclick="chat()">send</button></p>
<div id="panes"></div>
<script>
async function refresh() {
  const panes = await (await fetch('/api/panes')).json() || [];
  const div = document.getElementById('panes');
  div.innerHTML = '';
  for (const p of panes) {
    const txt = await (await fetch('/api/pane?id='+p.id+'&format=text')).text();
    const el = document.createElement('div');
    el.className = 'pane';
    el.innerHTML = '<b>pane '+p.id+' ('+p.kind+') '+p.title+'</b><pre></pre>';
    el.querySelector('pre').textContent = txt;
    div.appendChild(el);
  }
}
async function plot() {
  await fetch('/api/vplot', {method:'POST', body: JSON.stringify({figure: document.getElementById('fig').value})});
  refresh();
}
async function chat() {
  const r = await fetch('/api/vchat', {method:'POST', body: JSON.stringify({pane:1, message: document.getElementById('chat').value})});
  const j = await r.json();
  if (j.error) alert(j.error); else console.log(j.viewql);
  refresh();
}
refresh();
</script>
</body></html>`

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, indexHTML)
}
