package server

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vchat"
)

// registerDebug mounts the process-wide observability surfaces. The
// session-scoped /debug routes (metrics, traces, slow log, diagnose,
// stream health) go through dispatch — un-prefixed for the default tenant,
// /sessions/{id}/debug/... per tenant — and answer 404 when the session
// was built without an observer, so the plain (unobserved) server keeps
// exactly its old behavior. The pprof endpoints and the fleet-level
// /debug/sessions are the exception: they describe the process, not one
// session, and are always mounted at the top level — the server runs its
// own mux, so the net/http/pprof side effects on http.DefaultServeMux
// never apply and the handlers are wired explicitly.
func (s *Server) registerDebug() {
	s.mux.HandleFunc("/debug/sessions", s.handleSessionsDebug)
	s.mux.HandleFunc("/debug/fleet", s.handleFleetDebug)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// sessionHealth is one tenant's row in GET /debug/sessions.
type sessionHealth struct {
	core.SessionInfo
	Panes         int    `json:"panes"`
	StreamClients int    `json:"stream_clients"`
	StreamRound   uint64 `json:"stream_round"`
	Default       bool   `json:"default,omitempty"`
}

// handleSessionsDebug serves GET /debug/sessions: every resident session's
// manager-level accounting (memory, rounds, idle time) joined with its
// serving-level state (pane count, stream clients, fan-out round).
func (s *Server) handleSessionsDebug(w http.ResponseWriter, r *http.Request) {
	infos := s.mgr.List()
	rows := make([]sessionHealth, 0, len(infos))
	for _, info := range infos {
		row := sessionHealth{SessionInfo: info}
		s.tmu.RLock()
		t := s.tenants[info.ID]
		s.tmu.RUnlock()
		if t != nil {
			t.mu.RLock()
			if t.session.Tree != nil {
				row.Panes = len(t.session.Tree.Panes())
			}
			row.StreamRound = t.round
			t.mu.RUnlock()
			row.StreamClients = t.broker.ClientCount()
			row.Default = t == s.deflt
		}
		rows = append(rows, row)
	}
	st := kernelsim.SharedStore().Stats()
	built, forks := kernelsim.TemplateStats()
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions":        rows,
		"resident":        s.mgr.Len(),
		"total_mem_bytes": s.mgr.TotalMem(),
		"store": map[string]any{
			"unique_pages":    st.UniquePages,
			"unique_bytes":    st.UniqueBytes,
			"shared_bytes":    st.SharedBytes,
			"total_refs":      st.TotalRefs,
			"dedup_hits":      st.DedupHits,
			"cow_breaks":      st.CowBreaks,
			"templates_built": built,
			"template_forks":  forks,
		},
	})
}

// handleDiagnose answers "why is this pane slow?" over HTTP from the
// pane's retained span trees — the machine-readable twin of the vchat
// diagnosis path. GET /debug/diagnose/3 — pane 3; GET
// /debug/diagnose/slowest — whichever pane's latest round was slowest.
func (s *Server) handleDiagnose(t *tenant, rest string, w http.ResponseWriter, r *http.Request) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.session.Obs == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session has no observer"))
		return
	}
	var d *vchat.Diagnosis
	var err error
	if rest == "slowest" || rest == "" {
		d, err = t.session.DiagnoseSlowest()
	} else {
		id, convErr := strconv.Atoi(rest)
		if convErr != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", rest))
			return
		}
		d, err = t.session.Diagnose(id)
	}
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"pane":      d.Pane,
		"diagnosis": d,
		"rendered":  d.Render(),
	})
}

// handleMetricsHistory returns the bounded ring of periodic registry
// snapshots as JSON, oldest first — the push counterpart of /debug/metrics,
// so a UI can draw sparklines without running its own scraper. The ring
// fills via Observer.StartMetricsHistory (vlserver's -metrics-interval).
func (s *Server) handleMetricsHistory(t *tenant, w http.ResponseWriter, r *http.Request) {
	o := t.session.Obs
	if o == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session has no observer"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cap":    o.History.Cap(),
		"points": o.History.Points(),
	})
}

// handleMetrics writes the session's registry in Prometheus text
// exposition format: snapshot hit ratio, link transactions and bytes,
// per-stage and per-figure latency histograms.
func (s *Server) handleMetrics(t *tenant, w http.ResponseWriter, r *http.Request) {
	o := t.session.Obs
	if o == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session has no observer"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	o.Registry.WritePrometheus(w)
}

// handleTrace returns the span tree of a pane's last extraction as JSON.
// GET /debug/trace/3 — pane 3; GET /debug/trace/last — most recent.
func (s *Server) handleTrace(t *tenant, rest string, w http.ResponseWriter, r *http.Request) {
	o := t.session.Obs
	if o == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session has no observer"))
		return
	}
	if rest == "last" || rest == "" {
		rec, ok := o.Traces.Latest()
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no extractions traced yet"))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"pane": rec.Pane, "trace": rec.Trace})
		return
	}
	id, err := strconv.Atoi(rest)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", rest))
		return
	}
	rec, ok := o.Traces.Last(id)
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no trace for pane %d", id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"pane": id, "trace": rec.Trace})
}

// slowRow is one /debug/slowlog row.
type slowRow struct {
	Label string          `json:"label"` // e.g. "pane 3 (fig3-6)"
	DurMS float64         `json:"dur_ms"`
	Seq   uint64          `json:"seq"` // store-wide admission order
	Trace *obs.SpanExport `json:"trace,omitempty"`
}

// handleSlowLog returns the slowest retained extraction of each
// pane+figure (label, duration, trace), slowest first.
func (s *Server) handleSlowLog(t *tenant, w http.ResponseWriter, r *http.Request) {
	o := t.session.Obs
	if o == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("session has no observer"))
		return
	}
	recs := o.Traces.Slowest()
	rows := make([]slowRow, len(recs))
	for i, rec := range recs {
		rows[i] = slowRow{
			Label: fmt.Sprintf("pane %d (%s)", rec.Pane, rec.Figure),
			DurMS: rec.DurMS, Seq: rec.Seq, Trace: rec.Trace,
		}
	}
	writeJSON(w, http.StatusOK, rows)
}
