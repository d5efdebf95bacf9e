package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
)

// live_stream: one session with all 20 stdlib figures behind the HTTP
// server. Each stop is a POST /round; the polling connection then revalidates
// seed-chosen panes and formats with conditional GETs, and one SSE
// connection takes every delta of every pane.
//
// The canned kernel workload grows the kernel a little on every step, so a
// long-lived session would make later stops costlier and tie every number
// to the run length. The run is therefore a sequence of episodes: a fresh
// session, a fixed number of stops, then the next session. A window of the
// end-to-end medians is one cycle of episodes, one per option set.
//
// livePollsPerStop is an assumption, not observed traffic: a poller that
// revalidates a few panes between two stops.
const (
	liveStopsPerEpisode = 40
	livePollsPerStop    = 4
)

// livePollFormats weights text twice: it is the one format the server's
// embedded page requests. JSON and DOT, the formats of API clients, are
// polled once each so that their serializers stay in the mix; the weights
// are an assumption.
var livePollFormats = []string{"text", "text", "json", "dot"}

type pollSpec struct {
	pane   int
	format string
}

type liveWL struct {
	rng  *rand.Rand
	sets []kernelsim.Options
	figs []vclstdlib.Figure
	h    *harness

	paneIDs []int      // in figure order
	polls   []pollSpec // rest of the current cycle over every (pane, format)

	next     *liveEpisode // opened, not yet run
	last     *liveEpisode // last completed, kept for the final check
	opened   int
	finished int

	cycleBytes []int     // SSE delta bytes of each completed cycle of option sets
	cycleTxns  []float64 // link transactions of each completed cycle
	cycleOwned []float64 // owned KiB per session, summed over each cycle's episodes
	saw200     int
	saw304     int
	stops      int
	reexec     float64 // figures re-extracted over all stops
	errs       []error
}

type liveEpisode struct {
	id     string
	opts   kernelsim.Options
	ms     *core.ManagedSession
	sse    *sseConn
	etags  map[string]string
	last   map[int]sseEvent
	seq    uint64
	bytes  int
	c0     map[string]float64
	mirror *mirror
}

func newLive(seed int64) *liveWL {
	r := rand.New(rand.NewSource(seed))
	return &liveWL{rng: r, sets: seedOptions(r), figs: vclstdlib.Figures()}
}

func (w *liveWL) setup(tr *tracer) error {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	h, err := startServer(mgr)
	if err != nil {
		return err
	}
	w.h = h
	for _, o := range w.sets {
		tr.around("kernelsim.TemplateFor", 0, func() { kernelsim.TemplateFor(o) })
	}
	ep, err := w.open()
	if err != nil {
		return err
	}
	w.next = ep
	return w.subscribe(ep)
}

// nextPoll draws the next poll: every (pane, format) pair once per cycle,
// in an order the seed shuffles anew each cycle.
func (w *liveWL) nextPoll() pollSpec {
	if len(w.polls) == 0 {
		for _, pane := range w.paneIDs {
			for _, f := range livePollFormats {
				w.polls = append(w.polls, pollSpec{pane, f})
			}
		}
		w.rng.Shuffle(len(w.polls), func(i, j int) { w.polls[i], w.polls[j] = w.polls[j], w.polls[i] })
	}
	ps := w.polls[0]
	w.polls = w.polls[1:]
	return ps
}

// open admits the next episode's session.
func (w *liveWL) open() (*liveEpisode, error) {
	o := w.sets[w.opened%len(w.sets)]
	ep := &liveEpisode{id: "live" + strconv.Itoa(w.opened), opts: o, etags: map[string]string{}, last: map[int]sseEvent{}}
	w.opened++
	body := fmt.Sprintf(`{"id":%q,"procs":%d,"threads_per_proc":%d,"churn":%d,"runqueue_skew":%d,"zombie_tasks":%d,"pipe_burst":%d}`,
		ep.id, o.Processes, o.ThreadsPerProc, o.Churn, o.RunqueueSkew, o.ZombieTasks, o.PipeBurst)
	if _, err := w.h.expect(201, "POST", "/sessions", []byte(body)); err != nil {
		return nil, err
	}
	ms, ok := w.h.mgr.Attach(ep.id)
	if !ok {
		return nil, fmt.Errorf("session %s not resident after admission", ep.id)
	}
	ep.ms = ms
	var ids []int
	for _, f := range w.figs {
		id, ok := ms.Extractor.PaneFor(f.ID)
		if !ok {
			return nil, fmt.Errorf("figure %s has no pane", f.ID)
		}
		ids = append(ids, id)
	}
	if w.paneIDs == nil {
		w.paneIDs = ids
	}
	return ep, nil
}

// subscribe opens the episode's stream on every pane and drains the
// catch-up snapshot.
func (w *liveWL) subscribe(ep *liveEpisode) error {
	s, err := w.h.openSSE("/sessions/" + ep.id + "/stream?format=json")
	if err != nil {
		return err
	}
	ep.sse = s
	for range w.paneIDs {
		ev, err := s.next(10 * time.Second)
		if err != nil {
			return err
		}
		if !ev.Snapshot {
			return fmt.Errorf("stream: expected snapshot frame, got seq %d", ev.Seq)
		}
		ep.last[ev.Pane] = ev
	}
	ep.seq = w.h.srv.SessionBroker(ep.id).Seq()
	ep.c0 = readCounters(ep.ms.Obs)
	return nil
}

// run plays whole cycles of episodes, one per option set, so the per-stop
// counts cover the same stops in every run.
func (w *liveWL) run(p *phase, d time.Duration) error {
	for p.busyMS < float64(d.Milliseconds()) || w.finished%len(w.sets) != 0 {
		if err := w.episode(p); err != nil {
			return err
		}
	}
	return nil
}

// episode runs one session's fixed sequence of stops and polls. Admission,
// subscription and the per-episode checks are not timed as operations;
// admission is sampled for attach_p50_ms.
func (w *liveWL) episode(p *phase) error {
	ep := w.next
	w.next = nil
	if ep == nil {
		if w.last != nil {
			w.retire(w.last)
			w.last = nil
		}
		var err error
		t0 := time.Now()
		if ep, err = w.open(); err != nil {
			return err
		}
		p.parts["attach"] = append(p.parts["attach"], msSince(t0))
		if err := w.subscribe(ep); err != nil {
			return err
		}
	}
	if p.tr != nil {
		m, err := newMirror(p, ep.opts, w.figs)
		if err != nil {
			return err
		}
		ep.mirror = m
		defer func() {
			if ep.mirror != nil {
				ep.mirror.close()
			}
		}()
	}
	settle()
	// The traced run sends every other cycle's stops through
	// Server.StepSession instead of HTTP: the difference is the HTTP layer's
	// share of a stop.
	viaCall := p.tr != nil && (w.finished/len(w.sets))%2 == 1
	for i := 0; i < liveStopsPerEpisode; i++ {
		if err := w.stop(p, ep, viaCall); err != nil {
			return err
		}
		for j := 0; j < livePollsPerStop; j++ {
			w.poll(p, ep, w.nextPoll())
		}
		if ep.mirror != nil {
			if err := ep.mirror.stop(p); err != nil {
				return err
			}
		}
	}
	// The mirror holds references to shared pages: release it before the
	// owned bytes are taken, so the traced and the plain run agree.
	if ep.mirror != nil {
		ep.mirror.close()
		ep.mirror = nil
	}
	w.finish(p, ep)
	w.last = ep
	return nil
}

func (w *liveWL) stop(p *phase, ep *liveEpisode, viaCall bool) error {
	p.tr.nextOp()
	t0 := time.Now()
	var err error
	kind := "stop"
	if viaCall {
		kind = "stop_call"
		id := p.tr.begin("server.StepSession", 0)
		err = w.h.srv.StepSession(ep.id)
		p.tr.end(id)
	} else {
		id := p.tr.begin("server.POST /round", 0)
		_, err = w.h.expect(200, "POST", "/sessions/"+ep.id+"/round", nil)
		p.tr.end(id)
	}
	if err != nil {
		p.record(kind, msSince(t0), err)
		return err
	}
	returned := time.Now()
	// Every frame of the round is enqueued before the round returns; the
	// stop ends when the stream client holds all of them. The client
	// watches every pane, so it gets every frame the broker numbers. Frames
	// that overflow the FIFO arrive in pane order rather than in sequence
	// order, so the wait counts them.
	var target uint64
	hid := p.tr.begin("stream.Broker.Health", 0)
	for _, c := range w.h.srv.SessionBroker(ep.id).Health().Clients {
		target = c.LastSeq
	}
	p.tr.end(hid)
	sid := p.tr.begin("stream.sse_wait", 0)
	frames := int(target - ep.seq)
	for i := 0; i < frames; i++ {
		ev, err := ep.sse.next(10 * time.Second)
		if err != nil {
			p.record(kind, msSince(t0), err)
			return err
		}
		if ev.Seq <= ep.seq || ev.Seq > target {
			err := fmt.Errorf("stream: frame seq %d outside round (%d, %d]", ev.Seq, ep.seq, target)
			p.record(kind, msSince(t0), err)
			return err
		}
		ep.last[ev.Pane] = ev
		ep.bytes += ev.bytes
	}
	ep.seq = target
	p.tr.end(sid)
	p.record(kind, msSince(t0), nil)
	p.parts["push_lag"] = append(p.parts["push_lag"], msSince(returned))
	p.add("frames", float64(frames))
	w.stops++
	return nil
}

func (w *liveWL) poll(p *phase, ep *liveEpisode, ps pollSpec) {
	key := strconv.Itoa(ps.pane) + "." + ps.format
	p.tr.nextOp()
	t0 := time.Now()
	id := p.tr.begin("server.GET /api/pane", 0)
	code, hdr, _, err := w.h.do("GET", fmt.Sprintf("/sessions/%s/api/pane?id=%d&format=%s", ep.id, ps.pane, ps.format), nil, ep.etags[key])
	p.tr.end(id)
	ms := msSince(t0)
	kind := "poll_200"
	switch {
	case err != nil:
	case code == 200:
		ep.etags[key] = hdr.Get("ETag")
		w.saw200++
	case code == 304:
		kind = "poll_304"
		w.saw304++
	default:
		err = fmt.Errorf("pane %d: status %d", ps.pane, code)
	}
	p.record(kind, ms, err)
}

// finish checks an episode's stream against polled bytes and accounts its
// counters. Not timed.
func (w *liveWL) finish(p *phase, ep *liveEpisode) {
	for _, c := range w.h.srv.SessionBroker(ep.id).Health().Clients {
		if c.FramesCoalesced != 0 || c.FramesDropped != 0 {
			w.fail(fmt.Errorf("%s: stream client fell behind (%d coalesced, %d dropped)", ep.id, c.FramesCoalesced, c.FramesDropped))
		}
		p.add("coalesced", float64(c.FramesCoalesced))
		p.add("dropped", float64(c.FramesDropped))
	}
	// Each pane's last frame must equal a GET at the same ETag.
	for _, pane := range w.paneIDs {
		ev := ep.last[pane]
		code, hdr, body, err := w.h.do("GET", fmt.Sprintf("/sessions/%s/api/pane?id=%d&format=json", ep.id, pane), nil, "")
		switch {
		case err != nil || code != 200:
			w.fail(fmt.Errorf("%s: GET pane %d: %d %v", ep.id, pane, code, err))
		case hdr.Get("ETag") != ev.ETag:
			w.fail(fmt.Errorf("%s: pane %d: last frame ETag %s, GET ETag %s", ep.id, pane, ev.ETag, hdr.Get("ETag")))
		case !bytes.Equal(body, []byte(ev.Body)):
			w.fail(fmt.Errorf("%s: pane %d: last frame body differs from GET at ETag %s", ep.id, pane, ev.ETag))
		}
	}
	reused, txns := p.cnt["figure_reuses"], p.cnt["link_txns"]
	addCounters(p, ep.ms.Obs, ep.c0)
	w.reexec += float64(liveStopsPerEpisode*len(w.figs)) - (p.cnt["figure_reuses"] - reused)
	if w.finished%len(w.sets) == 0 {
		w.cycleBytes, w.cycleTxns = append(w.cycleBytes, 0), append(w.cycleTxns, 0)
		w.cycleOwned = append(w.cycleOwned, 0)
	}
	w.cycleBytes[len(w.cycleBytes)-1] += ep.bytes
	w.cycleTxns[len(w.cycleTxns)-1] += p.cnt["link_txns"] - txns
	w.finished++
	if w.finished%len(w.sets) == 0 {
		p.nextWindow()
	}
	// Owned bytes per resident session at the end of every episode; only
	// this episode's session is resident, the previous one was retired
	// before it opened. The mean over whole cycles repeats exactly.
	owned := float64(w.h.mgr.TotalMem()) / 1024 / float64(w.h.mgr.Len())
	w.cycleOwned[len(w.cycleOwned)-1] += owned
	p.add("owned_kib", owned)
	p.add("episodes", 1)
	p.add("stops", liveStopsPerEpisode)
	p.add("sse_bytes", float64(ep.bytes))
	ep.sse.close()
	ep.sse = nil
}

// retire deletes an episode's session.
func (w *liveWL) retire(ep *liveEpisode) {
	if ep.sse != nil {
		ep.sse.close()
	}
	if _, err := w.h.expect(200, "DELETE", "/sessions/"+ep.id, nil); err != nil {
		w.fail(err)
	}
}

func (w *liveWL) fail(err error) { w.errs = append(w.errs, err) }

func (w *liveWL) check() error {
	if w.last == nil {
		return errors.New("no episode completed")
	}
	if w.saw200 == 0 || w.saw304 == 0 {
		w.fail(fmt.Errorf("polls saw %d 200s and %d 304s; both are required", w.saw200, w.saw304))
	}
	if w.reexec/float64(w.stops) < 1 {
		w.fail(fmt.Errorf("only %.0f figures re-extracted over %d stops", w.reexec, w.stops))
	}
	for i, b := range w.cycleBytes {
		if b != w.cycleBytes[0] || w.cycleTxns[i] != w.cycleTxns[0] || w.cycleOwned[i] != w.cycleOwned[0] {
			w.fail(fmt.Errorf("cycle %d: %d SSE bytes / %.0f link txns / %v owned KiB, cycle 0: %d / %.0f / %v",
				i, b, w.cycleTxns[i], w.cycleOwned[i], w.cycleBytes[0], w.cycleTxns[0], w.cycleOwned[0]))
			break
		}
	}
	// A cold extractor over an identically built kernel, stepped as often,
	// must produce the served pane bytes.
	k := kernelsim.Build(w.last.opts)
	wl := kernelsim.NewWorkload(k)
	for i := 0; i < liveStopsPerEpisode; i++ {
		wl.Step()
	}
	out, err := core.NewIncrementalExtractor(k, k.Target(), w.figs, nil).Round()
	if err != nil {
		w.fail(fmt.Errorf("cold extraction: %w", err))
	}
	for i, r := range out {
		if r.Res == nil {
			continue
		}
		want, err := graphContent(r.Res.Graph)
		if err != nil {
			w.fail(err)
			continue
		}
		got, err := w.h.expect(200, "GET", fmt.Sprintf("/sessions/%s/api/pane?id=%d&format=json", w.last.id, w.paneIDs[i]), nil)
		if err == nil {
			got, err = paneContent(got)
		}
		if err != nil {
			w.fail(err)
		} else if !bytes.Equal(got, want) {
			w.fail(fmt.Errorf("figure %s: served pane differs from a cold extraction after %d steps", r.Fig.ID, liveStopsPerEpisode))
		}
	}
	return errors.Join(w.errs...)
}

func (w *liveWL) endToEnd(m, detail metrics, p *phase) {
	m.set("stop_p50_ms", "ms", p.windowed(50, "stop"))
	m.set("stop_p95_ms", "ms", p.windowed(95, "stop"))
	m.set("attach_p50_ms", "ms", pct(p.parts["attach"], 50))
	m.set("owned_kib_per_session", "KiB", p.cnt["owned_kib"]/p.cnt["episodes"])
	detail.set("poll_p50_ms", "ms", p.windowed(50, "poll_200", "poll_304"))
	detail.set("poll_p95_ms", "ms", p.windowed(95, "poll_200", "poll_304"))
	detail.set("sse_kib_per_stop", "KiB", p.cnt["sse_bytes"]/1024/p.cnt["stops"])
}

func (w *liveWL) perLayer(m, detail metrics, plain, tp *phase) {
	p200, p304 := tp.lat["poll_200"], tp.lat["poll_304"]
	m.set("server.pane_304_ratio", "ratio", ratio(float64(len(p304)), float64(len(p200)+len(p304))))
	stops := tp.cnt["stops"]
	m.set("stream.frames_per_stop", "count", tp.cnt["frames"]/stops)
	m.set("stream.coalesced_per_stop", "count", tp.cnt["coalesced"]/stops)
	m.set("stream.dropped_total", "count", tp.cnt["dropped"])
	m.set("stream.kib_per_stop", "KiB", tp.cnt["sse_bytes"]/1024/stops)
	m.set("stream.serialize_cache_hit_ratio", "ratio", ratio(tp.cnt["stream_cache_hits"], tp.cnt["stream_cache_hits"]+tp.cnt["stream_cache_misses"]))
	bypassed(m, gdbrspLayer)
	detail.set("server.pane_200_ms_p50", "ms", pct(p200, 50))
	detail.set("server.pane_304_ms_p50", "ms", pct(p304, 50))
	detail.set("server.http_overhead_ms_p50", "ms", pct(tp.tr.ms("server.POST /round"), 50)-pct(tp.tr.ms("server.StepSession"), 50))
	detail.set("stream.push_lag_ms_p95", "ms", pct(tp.parts["push_lag"], 95))
}

func (w *liveWL) close() {
	if w.h == nil {
		return
	}
	for _, ep := range []*liveEpisode{w.next, w.last} {
		if ep != nil && ep.sse != nil {
			ep.sse.close()
		}
	}
	w.h.close()
}
