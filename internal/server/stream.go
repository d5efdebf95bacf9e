package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"visualinux/internal/obs"
	"visualinux/internal/stream"
)

// This file is the push half of the server: where handlePane answers a
// poll, the stream plane fans pane deltas out to every connected SSE
// client the moment a stop event lands. Change detection keys on the same
// pane Version + tree epoch the weak ETags use, and the bytes shipped are
// the same per-pane+format serialization cache entries a GET would
// return — N clients cost one encode, and a stream frame at epoch E is
// byte-identical to GET /api/pane at epoch E. Each tenant owns its broker:
// one session's fan-out never sees another session's clients.

// pubState is the last (version, epoch) a pane was fanned out at.
type pubState struct {
	version int
	epoch   int
}

// StreamRound runs one stop event for the default session — the legacy
// single-session entry point vlserver's free-run loop calls.
func (s *Server) StreamRound(step func() error) error {
	if s.deflt == nil {
		return fmt.Errorf("server: no default session")
	}
	return s.streamRound(s.deflt, step)
}

// streamRound runs one stop event end to end under the tenant's write
// lock: step advances the world (mutation workload, extractor round, ...),
// then every pane whose version/epoch moved is serialized once per in-use
// format and fanned out to the tenant's stream clients. The round's span
// tree (step, per-pane serialization, per-client enqueue) is retained in
// the TraceStore under obs.FanoutTracePane, and the metrics history
// ring takes a snapshot on every round — stream health stays queryable
// after the fact, independent of the periodic -metrics-interval timer.
func (s *Server) streamRound(t *tenant, step func() error) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.session.Obs
	tr := o.NewTrace("stream.round")
	var stepErr error
	if step != nil {
		sp := tr.StartSpan("round.step")
		stepErr = step()
		sp.End()
	}
	t0 := time.Now()
	frames := 0
	if stepErr == nil {
		frames = t.publishLocked(tr)
	}
	fanout := time.Since(t0)
	if root := tr.Root(); root != nil {
		root.TagUint("frames", uint64(frames))
		root.TagUint("clients", uint64(t.broker.ClientCount()))
	}
	if export := o.FinishTrace(tr); export != nil {
		o.Traces.Record(obs.FanoutTracePane, "stream.fanout",
			float64(fanout.Nanoseconds())/1e6, export)
	}
	if o != nil {
		o.History.Snapshot(o.Registry)
	}
	return stepErr
}

// publishLocked diffs every pane against its last published (version,
// epoch), serializes the changed ones once per format that has at least
// one subscriber, and hands the frames to the broker. Caller holds the
// tenant's write lock. Returns the number of frames published.
func (t *tenant) publishLocked(tr *obs.Tracer) int {
	if t.session.Tree == nil || t.broker.ClientCount() == 0 {
		return 0
	}
	formats := make([]string, 0, 3)
	for f := range t.broker.FormatsInUse() {
		formats = append(formats, f)
	}
	if len(formats) == 0 {
		return 0
	}
	sort.Strings(formats)
	t0 := time.Now()
	o := t.session.Obs
	epoch := t.session.Tree.Epoch()
	seen := make(map[int]struct{})
	var frames []*stream.Frame
	root := tr.Root()
	for _, p := range t.session.Tree.Panes() {
		seen[p.ID] = struct{}{}
		if st, ok := t.lastPub[p.ID]; ok && st.version == p.Version && st.epoch == epoch {
			continue
		}
		for _, format := range formats {
			sp := root.StartChild("fanout.serialize")
			c, hit, err := t.serializePane(p, format)
			sp.TagUint("pane", uint64(p.ID)).Tag("format", format).
				Tag("cache", map[bool]string{true: "hit", false: "miss"}[hit])
			sp.End()
			if err != nil {
				continue
			}
			if o != nil {
				if hit {
					o.StreamCacheHits.Inc()
				} else {
					o.StreamCacheMisses.Inc()
				}
			}
			frames = append(frames, &stream.Frame{
				Pane: p.ID, Version: p.Version, Epoch: epoch,
				ETag: c.etag, Format: format, Body: c.body,
			})
		}
		t.lastPub[p.ID] = pubState{version: p.Version, epoch: epoch}
	}
	for id := range t.lastPub {
		if _, ok := seen[id]; !ok {
			delete(t.lastPub, id)
		}
	}
	if len(frames) == 0 {
		return 0
	}
	t.round++
	t.broker.Publish(t.round, frames, root)
	if o != nil {
		o.StreamRounds.Inc()
		o.ObserveFanout(time.Since(t0))
	}
	return len(frames)
}

// publishAfterMutation fans out any pane changes an interactive handler
// (vplot / vctrl / vchat / import) produced, so stream clients see the
// same mutations a poller would — not only free-run stop events. Caller
// holds the tenant's write lock.
func (t *tenant) publishAfterMutation() {
	t.publishLocked(nil)
}

// snapshotFrames serializes the client's subscribed panes at their
// current state — the on-connect catch-up push. Caller holds t.mu (read
// suffices: the tree cannot change, and the cache has its own lock).
func (t *tenant) snapshotFrames(c *stream.Client) []*stream.Frame {
	if t.session.Tree == nil {
		return nil
	}
	o := t.session.Obs
	epoch := t.session.Tree.Epoch()
	var frames []*stream.Frame
	for _, p := range t.session.Tree.Panes() {
		if c.Subs != nil {
			if _, ok := c.Subs[p.ID]; !ok {
				continue
			}
		}
		cp, hit, err := t.serializePane(p, c.Format)
		if err != nil {
			continue
		}
		if o != nil {
			if hit {
				o.StreamCacheHits.Inc()
			} else {
				o.StreamCacheMisses.Inc()
			}
		}
		frames = append(frames, &stream.Frame{
			Pane: p.ID, Version: p.Version, Epoch: epoch,
			ETag: cp.etag, Format: c.Format, Body: cp.body,
		})
	}
	return frames
}

// Broker exposes the default session's fan-out broker (bench harnesses
// subscribe broker-level clients to measure push latency without TCP
// noise).
func (s *Server) Broker() *stream.Broker {
	if s.deflt == nil {
		return nil
	}
	return s.deflt.broker
}

// SessionBroker exposes one tenant's broker, nil if the session is
// unknown — the multi-tenant analogue of Broker for bench harnesses.
func (s *Server) SessionBroker(id string) *stream.Broker {
	t := s.tenantByID(id)
	if t == nil {
		return nil
	}
	return t.broker
}

// StepSession drives one stop-event round for a managed session by ID —
// the programmatic twin of POST /sessions/{id}/round.
func (s *Server) StepSession(id string) error {
	t := s.tenantByID(id)
	if t == nil {
		return fmt.Errorf("server: no session %q", id)
	}
	if t.ms == nil {
		return fmt.Errorf("server: session %q has no managed workload", id)
	}
	return s.streamRound(t, func() error {
		_, err := t.ms.StepRound()
		return err
	})
}

// streamEvent is the SSE data payload: the frame header plus the pane body
// as a JSON string, so the whole event is one line regardless of format.
type streamEvent struct {
	Seq       uint64 `json:"seq"`
	Round     uint64 `json:"round"`
	Pane      int    `json:"pane"`
	Version   int    `json:"version"`
	Epoch     int    `json:"epoch"`
	ETag      string `json:"etag"`
	Format    string `json:"format"`
	Snapshot  bool   `json:"snapshot,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Body      string `json:"body"`
}

// handleStream serves GET /stream: a Server-Sent Events feed of pane
// deltas. Query parameters: format (json|text|dot, default json) and
// panes (comma-separated pane IDs; absent = all panes). The client first
// receives a hello event, then snapshot frames for its panes' current
// state, then one pane event per delta. A consumer that stops reading
// degrades to latest-wins snapshots; disconnecting tears everything down.
func (s *Server) handleStream(t *tenant, w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "text", "dot":
	default:
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown format %q", format))
		return
	}
	var paneIDs []int
	if raw := r.URL.Query().Get("panes"); raw != "" {
		for _, part := range strings.Split(raw, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("bad pane id %q", part))
				return
			}
			paneIDs = append(paneIDs, id)
		}
	}

	// Subscribe and push the catch-up snapshot under the tenant lock, so
	// the snapshot and the first live round cannot interleave. The read
	// lock suffices: publishers take the write lock.
	t.mu.RLock()
	c := t.broker.Subscribe(format, paneIDs)
	t.broker.SnapshotTo(c, t.snapshotFrames(c))
	t.mu.RUnlock()
	defer t.broker.Unsubscribe(c)

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	fmt.Fprintf(w, "event: hello\ndata: {\"client\":%d,\"format\":%q}\n\n", c.ID, format)
	fl.Flush()

	ctx := r.Context()
	for {
		f, ok := c.Next(ctx)
		if !ok {
			return
		}
		data, err := json.Marshal(streamEvent{
			Seq: f.Seq, Round: f.Round, Pane: f.Pane,
			Version: f.Version, Epoch: f.Epoch, ETag: f.ETag,
			Format: f.Format, Snapshot: f.Snapshot, Coalesced: f.Coalesced,
			Body: string(f.Body),
		})
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: pane\nid: %d\ndata: %s\n\n", f.Seq, data); err != nil {
			return
		}
		fl.Flush()
	}
}

// handleStreamDebug serves GET /debug/stream: the broker-wide health
// snapshot — every connected client with its lag, queue depth, and frame
// counters — plus the round counter. Unlike the observer-backed /debug
// surfaces this one always answers: the broker exists even on an
// unobserved session.
func (s *Server) handleStreamDebug(t *tenant, w http.ResponseWriter, r *http.Request) {
	t.mu.RLock()
	round := t.round
	t.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"round":  round,
		"health": t.broker.Health(),
	})
}
