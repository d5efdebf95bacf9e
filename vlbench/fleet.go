package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/ctypes"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
	"visualinux/internal/viewql"
)

// fleet_mixed: 16 small live sessions with seed-varied heterogeneity
// variants plus 2 core-dump sessions behind the HTTP server. The loop mixes
// fleet queries, per-session pane GETs, occasional rounds on one live member
// and admit/delete churn of extra sessions: many cheap requests, each doing
// little extraction or serialization, so per-request overhead, admission,
// the page store and the fan-out dominate.
//
// Rounds grow the members' kernels, so the run is a sequence of episodes
// of the same work: the live members are admitted afresh and play one deck
// of operations, shuffled anew by the seeded generator for every episode.
// The core-dump members are immutable and stay resident throughout.
//
// The deck holds a fixed count of each operation, and the members' kernel
// options are one fixed set dealt in a seed-drawn order, so that every seed
// does the same work; the seed picks the order. A single order replayed by
// every episode would give each seed a tail of its own (a round that always
// follows an admission, say), so each episode takes another. The counts are an
// assumption, not observed traffic: reads outnumber writes, and every kind
// occurs often enough in a window for its median.
const (
	fleetLive     = 16
	fleetExtraMax = 2 // churned extra sessions resident at once

	fleetQueryPasses = 60 // over fleetPrograms: 180 fleet queries
	fleetPollPasses  = 3  // over every (member, figure, format): 324 pane GETs
	fleetRoundPasses = 3  // over the live members: 48 rounds
	// fleetChurn alternates admissions and deletions after the first two
	// admissions: 32 admissions, two of each member configuration, and 30
	// deletions.
	fleetChurn = 62
	// fleetWindowEpisodes gives a window 360 fleet queries, 648 pane GETs
	// and 64 admissions.
	fleetWindowEpisodes = 2
)

// fleetPollFormats weights JSON twice over text; the weights are an
// assumption.
var fleetPollFormats = []string{"json", "json", "text"}

var fleetFigures = []string{"7-1", "3-4"}

type fleetProgram struct {
	Figure string `json:"figure"`
	Query  string `json:"query"`
}

// fleetPrograms are the fleet queries of the mix; the seed orders them.
// The set is fixed so that runs of different seeds do the same query work.
var fleetPrograms = []fleetProgram{
	{"7-1", "busy = SELECT task_struct FROM * WHERE pid > 0"},
	{"7-1", "rqs = SELECT rq FROM *"},
	{"3-4", "kids = SELECT task_struct FROM * WHERE pid >= 100"},
}

// fleetDumps are the kernels behind the core-dump members.
var fleetDumps = []kernelsim.Options{
	{Processes: 2, ThreadsPerProc: 1, ZombieTasks: 1},
	{Processes: 3, ThreadsPerProc: 1, PipeBurst: 2},
}

// fleetOp is one operation of an episode's deck.
type fleetOp struct {
	kind   string // "query", "poll", "round" or "churn"
	prog   fleetProgram
	member string
	pane   int
	format string
}

type fleetWL struct {
	rng      *rand.Rand
	deck     []fleetOp
	h        *harness
	members  []string // live members, then core-dump members
	liveOpts []kernelsim.Options
	dumps    [][]byte
	dumpDir  string

	extras   []string // churned sessions, oldest first
	nextX    int      // extras admitted so far, for unique IDs
	epExtras int      // extras admitted this episode
	etags    map[string]string
	reset    bool      // the last episode's live members are still resident
	owned    []float64 // owned KiB per resident session at each episode's end
	txns     []float64 // link transactions of each episode's rounds
	mirrors  map[string]*mirror

	admitted, deleted int
	poolMax           int
	errs              []error
}

func newFleet(seed int64) *fleetWL {
	return &fleetWL{rng: rand.New(rand.NewSource(seed))}
}

// memberOpts deals the live members' kernel options: small kernels of 2 or
// 3 processes of 1 or 2 threads, each with one heterogeneity variant of
// strength 1 to 3, in a seed-drawn order.
func memberOpts(r *rand.Rand) []kernelsim.Options {
	opts := make([]kernelsim.Options, fleetLive)
	for i := range opts {
		o := kernelsim.Options{Processes: 2 + i%2, ThreadsPerProc: 1 + i/2%2}
		n := 1 + i/3%3
		switch i % 3 {
		case 0:
			o.RunqueueSkew = n
		case 1:
			o.ZombieTasks = n
		default:
			o.PipeBurst = n
		}
		opts[i] = o
	}
	r.Shuffle(len(opts), func(i, j int) { opts[i], opts[j] = opts[j], opts[i] })
	return opts
}

// newDeck builds the operations of an episode.
func (w *fleetWL) newDeck() {
	for i := 0; i < fleetQueryPasses; i++ {
		for _, prog := range fleetPrograms {
			w.deck = append(w.deck, fleetOp{kind: "query", prog: prog})
		}
	}
	for i := 0; i < fleetPollPasses; i++ {
		for _, id := range w.members {
			for pane := 1; pane <= len(fleetFigures); pane++ {
				for _, f := range fleetPollFormats {
					w.deck = append(w.deck, fleetOp{kind: "poll", member: id, pane: pane, format: f})
				}
			}
		}
	}
	for i := 0; i < fleetRoundPasses; i++ {
		for _, id := range w.members[:fleetLive] {
			w.deck = append(w.deck, fleetOp{kind: "round", member: id})
		}
	}
	for i := 0; i < fleetChurn; i++ {
		w.deck = append(w.deck, fleetOp{kind: "churn"})
	}
}

func createBody(id string, o kernelsim.Options) []byte {
	figs, _ := json.Marshal(fleetFigures)
	return []byte(fmt.Sprintf(`{"id":%q,"procs":%d,"threads_per_proc":%d,"churn":%d,"runqueue_skew":%d,"zombie_tasks":%d,"pipe_burst":%d,"figures":%s}`,
		id, o.Processes, o.ThreadsPerProc, o.Churn, o.RunqueueSkew, o.ZombieTasks, o.PipeBurst, figs))
}

func (w *fleetWL) setup(tr *tracer) error {
	mgr := core.NewSessionManager(core.ManagerOptions{}, obs.NewObserver())
	h, err := startServer(mgr)
	if err != nil {
		return err
	}
	w.h = h
	for i, o := range memberOpts(w.rng) {
		tr.around("kernelsim.TemplateFor", 0, func() { kernelsim.TemplateFor(o) })
		w.liveOpts = append(w.liveOpts, o)
		w.members = append(w.members, fmt.Sprintf("live%02d", i))
	}
	if err := w.admitMembers(); err != nil {
		return err
	}
	// Post-mortem members: dump freshly built kernels into the checkout
	// and admit them through the server-side core path.
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	if w.dumpDir, err = os.MkdirTemp(buildDir, "dumps-"); err != nil {
		return err
	}
	for i, o := range fleetDumps {
		id := fmt.Sprintf("dead%02d", i)
		k := kernelsim.Build(o)
		var buf bytes.Buffer
		if err := coredump.Dump(k.Target(), &buf); err != nil {
			return fmt.Errorf("dump %s: %w", id, err)
		}
		path := filepath.Join(w.dumpDir, id+".vlcore")
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return err
		}
		w.dumps = append(w.dumps, buf.Bytes())
		abs, err := filepath.Abs(path)
		if err != nil {
			return err
		}
		body, _ := json.Marshal(map[string]any{"id": id, "core": abs, "figures": fleetFigures})
		if _, err := h.expect(201, "POST", "/sessions", body); err != nil {
			return err
		}
		w.members = append(w.members, id)
	}
	w.newDeck()
	return nil
}

// admitMembers admits the live members with their seed-drawn options.
func (w *fleetWL) admitMembers() error {
	for i, o := range w.liveOpts {
		if _, err := w.h.expect(201, "POST", "/sessions", createBody(w.members[i], o)); err != nil {
			return err
		}
	}
	return nil
}

// resetMembers deletes the last episode's live members and extras and
// admits the members afresh. Not timed.
func (w *fleetWL) resetMembers() error {
	for _, id := range append(w.members[:fleetLive:fleetLive], w.extras...) {
		if _, err := w.h.expect(200, "DELETE", "/sessions/"+id, nil); err != nil {
			return err
		}
	}
	w.extras = nil
	return w.admitMembers()
}

func (w *fleetWL) run(p *phase, d time.Duration) error {
	// A run ends on a whole window, so that every window holds the same work.
	for p.busyMS < float64(d.Milliseconds()) || len(w.owned)%fleetWindowEpisodes != 0 {
		if err := w.episode(p); err != nil {
			return err
		}
		if len(w.owned)%fleetWindowEpisodes == 0 {
			p.nextWindow()
		}
	}
	return nil
}

// episode replays the deck on freshly admitted live members. The traced run
// steps a mirror of each live member in lockstep with its rounds.
func (w *fleetWL) episode(p *phase) error {
	if w.reset {
		if err := w.resetMembers(); err != nil {
			return err
		}
	}
	w.reset = true
	c0 := map[string]map[string]float64{}
	for _, id := range w.members[:fleetLive] {
		ms, ok := w.h.mgr.Attach(id)
		if !ok {
			return fmt.Errorf("session %s not resident", id)
		}
		c0[id] = readCounters(ms.Obs)
	}
	if p.tr != nil {
		if err := w.openMirrors(p); err != nil {
			return err
		}
	}
	w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	settle()
	w.etags = map[string]string{}
	w.epExtras = 0
	for _, op := range w.deck {
		if err := w.op(p, op); err != nil {
			return err
		}
	}
	// Mirrors hold references to shared pages: release them before the
	// owned bytes are taken, so the traced and the plain run agree.
	for _, m := range w.mirrors {
		m.close()
	}
	w.mirrors = nil
	txns := p.cnt["link_txns"]
	for _, id := range w.members[:fleetLive] {
		ms, _ := w.h.mgr.Attach(id)
		addCounters(p, ms.Obs, c0[id])
	}
	w.txns = append(w.txns, p.cnt["link_txns"]-txns)
	w.owned = append(w.owned, float64(w.h.mgr.TotalMem())/1024/float64(w.h.mgr.Len()))
	return nil
}

// openMirrors forks a mirror of every live member, at the state of a member
// just admitted.
func (w *fleetWL) openMirrors(p *phase) error {
	var figs []vclstdlib.Figure
	for _, id := range fleetFigures {
		f, ok := vclstdlib.FigureByID(id)
		if !ok {
			return fmt.Errorf("no stdlib figure %s", id)
		}
		figs = append(figs, f)
	}
	w.mirrors = map[string]*mirror{}
	for i, id := range w.members[:fleetLive] {
		m, err := newMirror(p, w.liveOpts[i], figs)
		if err != nil {
			return err
		}
		w.mirrors[id] = m
	}
	return nil
}

// op issues one operation of the deck.
func (w *fleetWL) op(p *phase, op fleetOp) error {
	p.tr.nextOp()
	switch op.kind {
	case "query":
		return w.query(p, op.prog)
	case "poll":
		w.poll(p, op.member, op.pane, op.format)
	case "round":
		w.round(p, op.member)
	default:
		return w.churn(p)
	}
	return nil
}

// fleetResult is the part of a fleet response the checks read.
type fleetResult struct {
	Targets []struct {
		Target string            `json:"target"`
		Refs   []json.RawMessage `json:"refs"`
		Err    string            `json:"error"`
	} `json:"targets"`
	Merged []json.RawMessage `json:"merged"`
}

func (w *fleetWL) query(p *phase, prog fleetProgram) error {
	body, _ := json.Marshal(prog)
	t0 := time.Now()
	id := p.tr.begin("server.POST /fleet/query", 0)
	out, err := w.h.expect(200, "POST", "/fleet/query", body)
	p.tr.end(id)
	p.record("fleet_query", msSince(t0), err)
	if err != nil {
		return nil
	}
	// Only who answered is read here; the refs are checked after the run.
	var res struct {
		Targets []struct {
			Target string `json:"target"`
			Err    string `json:"error"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(out, &res); err != nil {
		w.fail(fmt.Errorf("fleet result: %w", err))
		return nil
	}
	want := len(w.members) + len(w.extras)
	if len(res.Targets) != want {
		w.fail(fmt.Errorf("fleet query answered by %d targets, %d resident", len(res.Targets), want))
	}
	for _, t := range res.Targets {
		if t.Err != "" {
			w.fail(fmt.Errorf("fleet query: target %s: %s", t.Target, t.Err))
		}
	}
	if p.tr != nil {
		return w.probeQuery(p, prog)
	}
	return nil
}

// probeQuery repeats the query through core.Fleet and viewql.Engine
// directly, so the traced run can time those layers. Not timed.
func (w *fleetWL) probeQuery(p *phase, prog fleetProgram) error {
	// The guard runs on each target's goroutine before it enters the pool:
	// the place to sample the pool's queue.
	var mu sync.Mutex
	f := &core.Fleet{Mgr: w.h.mgr, Guard: func(_ string, fn func()) {
		n := core.DefaultPool().Pending()
		mu.Lock()
		w.poolMax = max(w.poolMax, n)
		mu.Unlock()
		fn()
	}}
	var err error
	p.tr.around("core.Fleet.Query", 0, func() { _, err = f.Query(core.FleetQuery{Figure: prog.Figure, Query: prog.Query}) })
	if err != nil {
		return err
	}
	for _, id := range append(append([]string(nil), w.members...), w.extras...) {
		ms, ok := w.h.mgr.Attach(id)
		if !ok {
			return fmt.Errorf("session %s not resident", id)
		}
		paneID, _ := ms.Extractor.PaneFor(prog.Figure)
		pane, ok := ms.Session.Tree.Pane(paneID)
		if !ok {
			return fmt.Errorf("session %s: no pane for %s", id, prog.Figure)
		}
		eng := viewql.NewEngine(pane.Graph)
		eng.ReadOnly = true
		p.tr.around("viewql.Engine.Apply", 0, func() { err = eng.Apply(prog.Query) })
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *fleetWL) poll(p *phase, id string, pane int, format string) {
	key := id + "." + strconv.Itoa(pane) + "." + format
	t0 := time.Now()
	sp := p.tr.begin("server.GET /api/pane", 0)
	code, hdr, _, err := w.h.do("GET", fmt.Sprintf("/sessions/%s/api/pane?id=%d&format=%s", id, pane, format), nil, w.etags[key])
	p.tr.end(sp)
	ms := msSince(t0)
	kind := "poll_200"
	switch {
	case err != nil:
	case code == 200:
		w.etags[key] = hdr.Get("ETag")
	case code == 304:
		kind = "poll_304"
	default:
		err = fmt.Errorf("pane %s/%d: status %d", id, pane, code)
	}
	p.record(kind, ms, err)
}

func (w *fleetWL) round(p *phase, id string) {
	t0 := time.Now()
	sp := p.tr.begin("server.POST /round", 0)
	_, err := w.h.expect(200, "POST", "/sessions/"+id+"/round", nil)
	p.tr.end(sp)
	p.record("round", msSince(t0), err)
	p.add("stops", 1)
	if m := w.mirrors[id]; m != nil && err == nil {
		if err := m.stop(p); err != nil {
			w.fail(fmt.Errorf("mirror of %s: %w", id, err))
		}
	}
}

// churn admits an extra session, or deletes the oldest once fleetExtraMax
// are resident.
func (w *fleetWL) churn(p *phase) error {
	if len(w.extras) == fleetExtraMax {
		id := w.extras[0]
		w.extras = w.extras[1:]
		t0 := time.Now()
		sp := p.tr.begin("server.DELETE /sessions", 0)
		_, err := w.h.expect(200, "DELETE", "/sessions/"+id, nil)
		p.tr.end(sp)
		p.record("delete", msSince(t0), err)
		w.deleted++
		return nil
	}
	// Extras take the members' configurations in turn, whose templates
	// set-up built: admission is a fork, as for a warm fleet.
	id := "extra" + strconv.Itoa(w.nextX)
	o := w.liveOpts[w.epExtras%fleetLive]
	w.nextX++
	w.epExtras++
	t0 := time.Now()
	sp := p.tr.begin("server.POST /sessions", 0)
	_, err := w.h.expect(201, "POST", "/sessions", createBody(id, o))
	p.tr.end(sp)
	p.record("admit", msSince(t0), err)
	if err != nil {
		return nil
	}
	w.extras = append(w.extras, id)
	w.admitted++
	if p.tr != nil {
		return w.probeAdmit(p, o)
	}
	return nil
}

// probeAdmit repeats an admission's steps through the layers' own entry
// points — template fork, manager admission, core-dump load — so the traced
// run can time them. Not timed.
func (w *fleetWL) probeAdmit(p *phase, o kernelsim.Options) error {
	var k *kernelsim.Kernel
	p.tr.around("kernelsim.FromTemplate", 0, func() { k = kernelsim.FromTemplate(o) })
	k.Mem.Release()
	var err error
	p.tr.around("core.SessionManager.Create", 0, func() {
		_, err = w.h.mgr.Create("probe", core.SessionOptions{Kernel: o, Figures: fleetFigures})
	})
	w.h.mgr.Delete("probe")
	if err != nil {
		return err
	}
	reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
	dump := w.dumps[w.admitted%len(w.dumps)]
	var tgt interface{ Release() }
	p.tr.around("coredump.Load", 0, func() {
		s, lerr := coredump.Load(bytes.NewReader(dump), reg)
		err = lerr
		if lerr == nil {
			tgt = s.Mem
		}
	})
	if err != nil {
		return err
	}
	tgt.Release()
	return nil
}

func (w *fleetWL) fail(err error) { w.errs = append(w.errs, err) }

func (w *fleetWL) check() error {
	for i, o := range w.owned {
		if o != w.owned[0] || w.txns[i] != w.txns[0] {
			w.fail(fmt.Errorf("episode %d: %v owned KiB per session / %.0f link txns, episode 0: %v / %.0f",
				i, o, w.txns[i], w.owned[0], w.txns[0]))
			break
		}
	}
	if w.admitted == 0 || w.deleted == 0 {
		w.fail(fmt.Errorf("churn admitted %d and deleted %d sessions; both are required", w.admitted, w.deleted))
	}
	cores := 0
	for _, info := range w.h.mgr.List() {
		if info.Source == string(core.SourceCore) {
			cores++
		}
	}
	if cores != len(fleetDumps) {
		w.fail(fmt.Errorf("%d core-dump sessions resident, want %d", cores, len(fleetDumps)))
	}
	// The merged result must equal the per-target results concatenated in
	// session-ID order, with every target answering.
	for _, prog := range fleetPrograms {
		body, _ := json.Marshal(prog)
		out, err := w.h.expect(200, "POST", "/fleet/query", body)
		if err != nil {
			w.fail(err)
			continue
		}
		var all fleetResult
		if err := json.Unmarshal(out, &all); err != nil {
			w.fail(err)
			continue
		}
		var ids []string
		for _, info := range w.h.mgr.List() {
			ids = append(ids, info.ID)
		}
		var concat []json.RawMessage
		for _, id := range ids {
			one, _ := json.Marshal(map[string]any{"figure": prog.Figure, "query": prog.Query, "sessions": []string{id}})
			out, err := w.h.expect(200, "POST", "/fleet/query", one)
			var res fleetResult
			if err == nil {
				err = json.Unmarshal(out, &res)
			}
			if err == nil && (len(res.Targets) != 1 || res.Targets[0].Err != "") {
				err = fmt.Errorf("target %s did not answer %q", id, prog.Query)
			}
			if err != nil {
				w.fail(err)
				continue
			}
			concat = append(concat, res.Targets[0].Refs...)
		}
		if len(all.Targets) != len(ids) {
			w.fail(fmt.Errorf("%q answered by %d of %d targets", prog.Query, len(all.Targets), len(ids)))
		}
		if !equalRaw(all.Merged, concat) {
			w.fail(fmt.Errorf("%q: merged result differs from per-target results in ID order", prog.Query))
		}
	}
	return errors.Join(w.errs...)
}

// equalRaw compares two lists of JSON values, ignoring indentation.
func equalRaw(a, b []json.RawMessage) bool {
	if len(a) != len(b) {
		return false
	}
	var ca, cb bytes.Buffer
	for i := range a {
		ca.Reset()
		cb.Reset()
		if json.Compact(&ca, a[i]) != nil || json.Compact(&cb, b[i]) != nil || !bytes.Equal(ca.Bytes(), cb.Bytes()) {
			return false
		}
	}
	return true
}

func (w *fleetWL) endToEnd(m, detail metrics, p *phase) {
	m.set("stop_p50_ms", "ms", p.windowed(50, "round"))
	m.set("stop_p95_ms", "ms", p.windowed(95, "round"))
	m.set("attach_p50_ms", "ms", pct(p.lat["admit"], 50))
	m.set("owned_kib_per_session", "KiB", mean(w.owned))
	detail.set("poll_p50_ms", "ms", p.windowed(50, "poll_200", "poll_304"))
	detail.set("poll_p95_ms", "ms", p.windowed(95, "poll_200", "poll_304"))
	detail.set("fleet_query_p50_ms", "ms", p.windowed(50, "fleet_query"))
	detail.set("fleet_query_p95_ms", "ms", p.windowed(95, "fleet_query"))
}

func (w *fleetWL) perLayer(m, detail metrics, plain, tp *phase) {
	p200, p304 := tp.lat["poll_200"], tp.lat["poll_304"]
	m.set("server.pane_304_ratio", "ratio", ratio(float64(len(p304)), float64(len(p200)+len(p304))))
	m.set("stream.serialize_cache_hit_ratio", "ratio", ratio(tp.cnt["stream_cache_hits"], tp.cnt["stream_cache_hits"]+tp.cnt["stream_cache_misses"]))
	// No stream client and no RSP link.
	bypassed(m, streamLayer)
	bypassed(m, gdbrspLayer)
	detail.set("server.pane_200_ms_p50", "ms", pct(p200, 50))
	detail.set("server.pane_304_ms_p50", "ms", pct(p304, 50))
	detail.set("core.admit_ms_p50", "ms", pct(tp.tr.ms("core.SessionManager.Create"), 50))
	detail.set("core.fleet_query_ms_p50", "ms", pct(tp.tr.ms("core.Fleet.Query"), 50))
	detail.set("core.pool_pending_max", "count", float64(w.poolMax))
	detail.set("viewql.apply_ms_p50", "ms", pct(tp.tr.ms("viewql.Engine.Apply"), 50))
	detail.set("coredump.load_ms_p50", "ms", pct(tp.tr.ms("coredump.Load"), 50))
}

func (w *fleetWL) close() {
	for _, m := range w.mirrors {
		m.close()
	}
	if w.h != nil {
		w.h.close()
	}
	if w.dumpDir != "" {
		os.RemoveAll(w.dumpDir)
	}
}
