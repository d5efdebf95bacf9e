package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"syscall"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/kernelsim"
)

// This file is the session fabric's REST surface: tenants are created,
// listed, inspected, and deleted under /sessions, and every single-session
// route re-roots under /sessions/{id}/... — one vlserver process, many
// independent debugging sessions sharing the immutable infrastructure (the
// ctypes registry, the parsed+compiled ViewCL stdlib, the extraction pool)
// while keeping all mutable state strictly per tenant.

// sessionCreateReq is the body of POST /sessions.
type sessionCreateReq struct {
	ID string `json:"id"`
	// Source selects the attach mode: "" or "sim" builds a live simulated
	// kernel; "core" loads the dump file named by Core post-mortem.
	Source string `json:"source,omitempty"`
	// Core is a server-side path to a VLCORE01 dump file (implies
	// source "core").
	Core string `json:"core,omitempty"`
	// Workload shape of the simulated kernel backing the session.
	Procs          int `json:"procs,omitempty"`
	ThreadsPerProc int `json:"threads_per_proc,omitempty"`
	Churn          int `json:"churn,omitempty"`
	// Fleet-heterogeneity variants (see kernelsim.Options).
	RunqueueSkew int `json:"runqueue_skew,omitempty"`
	ZombieTasks  int `json:"zombie_tasks,omitempty"`
	PipeBurst    int `json:"pipe_burst,omitempty"`
	// Figures narrows the extracted stdlib figures (empty = all).
	Figures []string `json:"figures,omitempty"`
}

// handleSessions serves the collection: POST creates, GET lists.
func (s *Server) handleSessions(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.mgr.List())
	case http.MethodPost:
		s.handleSessionCreate(w, r)
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or POST only"))
	}
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	var req sessionCreateReq
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.ID == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing session id"))
		return
	}
	if strings.ContainsAny(req.ID, "/ ") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("session id must not contain '/' or spaces"))
		return
	}
	opts := core.SessionOptions{
		Kernel: kernelsim.Options{
			Processes:      req.Procs,
			ThreadsPerProc: req.ThreadsPerProc,
			Churn:          req.Churn,
			RunqueueSkew:   req.RunqueueSkew,
			ZombieTasks:    req.ZombieTasks,
			PipeBurst:      req.PipeBurst,
		},
		Source:  core.SourceKind(req.Source),
		Figures: req.Figures,
	}
	if req.Core != "" {
		img, err := readCoreFile(req.Core)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, fmt.Errorf("core dump: %w", err))
			return
		}
		opts.Source = core.SourceCore
		opts.CoreImage = img
	}
	ms, err := s.mgr.Create(req.ID, opts)
	if err != nil && ms == nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, core.ErrSessionExists):
			code = http.StatusConflict
		case errors.Is(err, core.ErrTooManySessions):
			code = http.StatusTooManyRequests
		case errors.Is(err, core.ErrMemBudget):
			code = http.StatusInsufficientStorage
		}
		writeErr(w, code, err)
		return
	}
	t := newTenant(ms.ID, ms.Session, ms)
	s.tmu.Lock()
	s.tenants[ms.ID] = t
	s.tmu.Unlock()
	// Between admission and tenant registration another create can push the
	// manager over budget and evict this very session — whose OnEvict fired
	// against a not-yet-registered tenant. Re-verify residency and undo.
	if cur, ok := s.mgr.Attach(ms.ID); !ok || cur != ms {
		s.dropTenant(ms.ID)
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("%w: session evicted during admission", core.ErrMemBudget))
		return
	}
	t.mu.RLock()
	panes := 0
	if t.session.Tree != nil {
		panes = len(t.session.Tree.Panes())
	}
	t.mu.RUnlock()
	resp := map[string]any{
		"id":        ms.ID,
		"source":    string(ms.Source),
		"panes":     panes,
		"mem_bytes": ms.MemBytes,
		"url":       "/sessions/" + ms.ID + "/",
	}
	if err != nil {
		// Resident but some figures failed to extract: report, don't fail.
		resp["warning"] = err.Error()
	}
	writeJSON(w, http.StatusCreated, resp)
}

// readCoreFile reads a server-side dump file for the core attach path. The
// path comes from the request, so it is opened without blocking (a FIFO
// would otherwise hang the request until a writer appears), must be a
// regular file (a device like /dev/zero never ends), and is read no further
// than the largest dump the loader accepts.
func readCoreFile(path string) ([]byte, error) {
	f, err := os.OpenFile(path, os.O_RDONLY|syscall.O_NONBLOCK, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !st.Mode().IsRegular() {
		return nil, fmt.Errorf("%s is not a regular file", path)
	}
	if st.Size() > coredump.MaxFileBytes {
		return nil, fmt.Errorf("%s is %d bytes, over the %d-byte dump limit", path, st.Size(), coredump.MaxFileBytes)
	}
	return io.ReadAll(io.LimitReader(f, coredump.MaxFileBytes))
}

// handleSessionPath routes /sessions/{id} (info, delete) and
// /sessions/{id}/... (the re-rooted single-session surface).
func (s *Server) handleSessionPath(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, nested := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, http.StatusNotFound, fmt.Errorf("missing session id"))
		return
	}
	if !nested || sub == "" {
		s.handleSessionByID(id, w, r)
		return
	}
	t := s.tenantByID(id)
	if t == nil {
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
		return
	}
	s.dispatch(t, "/"+sub, w, r)
}

// handleSessionByID serves GET (info) and DELETE on one session.
func (s *Server) handleSessionByID(id string, w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		for _, info := range s.mgr.List() {
			if info.ID == id {
				writeJSON(w, http.StatusOK, info)
				return
			}
		}
		writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
	case http.MethodDelete:
		deleted := s.mgr.Delete(id)
		s.tmu.RLock()
		_, hadTenant := s.tenants[id]
		s.tmu.RUnlock()
		if !deleted && !hadTenant {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no session %q", id))
			return
		}
		s.dropTenant(id)
		writeJSON(w, http.StatusOK, map[string]string{"status": "deleted", "id": id})
	default:
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("GET or DELETE only"))
	}
}

// handleRound serves POST /sessions/{id}/round: advance the session's
// canned workload one step, take a stop event, re-extract incrementally,
// and fan pane deltas out to the session's stream clients — the HTTP
// trigger for what vlserver's -run-interval loop does on a timer.
func (s *Server) handleRound(t *tenant, w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	if t.ms == nil {
		writeErr(w, http.StatusUnprocessableEntity,
			fmt.Errorf("session %q has no managed workload", t.id))
		return
	}
	err := s.streamRound(t, func() error {
		_, err := t.ms.StepRound()
		return err
	})
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, core.ErrPostMortem) {
			// A core-dump session is frozen: stepping it is a client
			// error, not a server fault.
			code = http.StatusUnprocessableEntity
		}
		writeErr(w, code, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "stepped",
		"rounds": t.ms.Rounds(),
	})
}
