package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// kgdb_link: the paper's KGDB setting. An IncrementalExtractor over
// target.WithLatency(gdbrsp.Client, target.DefaultKGDB) talks to a loopback
// RSP stub at PacketSize 512; no HTTP. Each stop steps the kernel, advances
// the snapshot, runs the round and serializes the re-extracted panes.
//
// Modeled link time is deterministic only at a fixed stop count, so the run
// is a sequence of identical episodes of kgdbStopsPerEpisode stops, each on
// a fresh kernel with its own stub and connection. Within an episode
// nothing is reset: per-stop link transactions are free to grow with the
// stop index, and the first/last-decile metrics report it if they do. A
// window of the end-to-end medians is one cycle of episodes, one per option
// set.
const (
	kgdbStopsPerEpisode = 40
	kgdbPacketSize      = 512
	kgdbDecile          = kgdbStopsPerEpisode / 10
)

type kgdbWL struct {
	sets []kernelsim.Options
	figs []vclstdlib.Figure

	next     *kgdbEpisode
	opened   int
	finished int
	modeled  []time.Duration // modeled link time of each completed cycle of option sets
	txns     []uint64        // client transactions of each completed cycle
	owned    []uint64        // episode kernels' owned bytes, summed over each cycle
	stops    int
	quiet    int // stops that moved no packet or accrued no modeled time
	errs     []error
}

type kgdbEpisode struct {
	k    *kernelsim.Kernel
	stub *gdbrsp.Server
	cl   *gdbrsp.Client
	lat  *target.Latency
	x    *core.IncrementalExtractor
	w    *kernelsim.Workload
	o    *obs.Observer
}

func newKGDB(seed int64) *kgdbWL {
	return &kgdbWL{sets: seedOptions(rand.New(rand.NewSource(seed))), figs: vclstdlib.Figures()}
}

func (w *kgdbWL) setup(tr *tracer) error {
	for _, o := range w.sets {
		tr.around("kernelsim.TemplateFor", 0, func() { kernelsim.TemplateFor(o) })
	}
	ep, err := w.open(tr)
	if err != nil {
		return err
	}
	w.next = ep
	return nil
}

// open forks a kernel, serves it over RSP, dials it and runs the cold round:
// a debugger attaching to a new target.
func (w *kgdbWL) open(tr *tracer) (*kgdbEpisode, error) {
	var k *kernelsim.Kernel
	tr.around("kernelsim.FromTemplate", 0, func() { k = kernelsim.FromTemplate(w.sets[w.opened%len(w.sets)]) })
	w.opened++
	stub, err := gdbrsp.Serve("127.0.0.1:0", k.Target(), gdbrsp.WithPacketSize(kgdbPacketSize))
	if err != nil {
		k.Mem.Release()
		return nil, fmt.Errorf("rsp stub: %w", err)
	}
	cl, err := gdbrsp.Dial(stub.Addr(), k.Reg, k.Target().Symbols())
	if err != nil {
		stub.Close()
		k.Mem.Release()
		return nil, err
	}
	ep := &kgdbEpisode{k: k, stub: stub, cl: cl, lat: target.WithLatency(cl, target.DefaultKGDB), o: obs.NewObserver()}
	ep.w = kernelsim.NewWorkload(k)
	ep.x = core.NewIncrementalExtractor(k, ep.lat, w.figs, ep.o)
	if _, err := ep.x.Round(); err != nil {
		ep.close()
		return nil, fmt.Errorf("cold round over rsp: %w", err)
	}
	return ep, nil
}

func (ep *kgdbEpisode) close() {
	ep.cl.Close()
	ep.stub.Close()
	ep.k.Mem.Release()
}

// run plays whole cycles of episodes, one per option set, so the per-stop
// counts cover the same stops in every run. Opening an episode is not timed
// as an operation; it is sampled for attach_p50_ms.
func (w *kgdbWL) run(p *phase, d time.Duration) error {
	for p.busyMS < float64(d.Milliseconds()) || w.finished%len(w.sets) != 0 {
		ep := w.next
		w.next = nil
		if ep == nil {
			var err error
			t0 := time.Now()
			if ep, err = w.open(p.tr); err != nil {
				return err
			}
			p.parts["attach"] = append(p.parts["attach"], msSince(t0))
		}
		settle()
		err := w.episode(p, ep)
		ep.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *kgdbWL) episode(p *phase, ep *kgdbEpisode) error {
	c0 := readCounters(ep.o)
	st := ep.cl.Stats()
	v0, t0tx := ep.lat.VirtualElapsed(), st.Transactions.Load()
	for i := 0; i < kgdbStopsPerEpisode; i++ {
		txns0, conts0, bytes0, hash0 := st.Transactions.Load(), st.Continuations.Load(), st.BytesRead.Load(), st.HashChecks.Load()
		virt0 := ep.lat.VirtualElapsed()
		p.tr.nextOp()
		t0 := time.Now()
		stop := p.tr.begin("kgdb.stop", 0)
		p.tr.around("kernelsim.Workload.Step", stop, ep.w.Step)
		ep.x.Advance()
		var out []core.RoundResult
		var err error
		p.tr.around("core.IncrementalExtractor.Round", stop, func() { out, err = ep.x.Round() })
		if err == nil {
			err = serializeChanged(p, out)
		}
		p.tr.end(stop)
		p.record("stop", msSince(t0), err)
		if err != nil {
			return err
		}
		txns := st.Transactions.Load() - txns0
		virt := ep.lat.VirtualElapsed() - virt0
		if txns == 0 || virt == 0 {
			w.quiet++
		}
		p.add("stops", 1)
		p.add("rsp_txns", float64(txns))
		p.add("rsp_conts", float64(st.Continuations.Load()-conts0))
		p.add("rsp_bytes", float64(st.BytesRead.Load()-bytes0))
		p.add("rsp_hash", float64(st.HashChecks.Load()-hash0))
		p.add("link_ns", float64(virt))
		switch {
		case i < kgdbDecile:
			p.add("txns_first", float64(txns))
		case i >= kgdbStopsPerEpisode-kgdbDecile:
			p.add("txns_last", float64(txns))
		}
	}
	addCounters(p, ep.o, c0)
	p.add("owned_kib", float64(ep.k.Mem.OwnedBytes())/1024)
	p.add("episodes", 1)
	w.stops += kgdbStopsPerEpisode
	if w.finished%len(w.sets) == 0 {
		w.modeled, w.txns, w.owned = append(w.modeled, 0), append(w.txns, 0), append(w.owned, 0)
	}
	w.owned[len(w.owned)-1] += ep.k.Mem.OwnedBytes()
	w.modeled[len(w.modeled)-1] += ep.lat.VirtualElapsed() - v0
	w.txns[len(w.txns)-1] += st.Transactions.Load() - t0tx
	w.finished++
	if w.finished%len(w.sets) == 0 {
		p.nextWindow()
	}
	w.verify(ep)
	return nil
}

// verify compares the panes extracted over RSP with a cold extraction over
// the kernel's in-process target at the same state. Not timed.
func (w *kgdbWL) verify(ep *kgdbEpisode) {
	cold, err := core.NewIncrementalExtractor(ep.k, ep.k.Target(), w.figs, nil).Round()
	if err != nil {
		w.fail(fmt.Errorf("cold extraction: %w", err))
		return
	}
	for _, r := range cold {
		id, ok := ep.x.PaneFor(r.Fig.ID)
		p, ok2 := ep.x.Session.Tree.Pane(id)
		if !ok || !ok2 {
			w.fail(fmt.Errorf("figure %s: no pane over rsp", r.Fig.ID))
			continue
		}
		got, err1 := graphContent(p.Graph)
		want, err2 := graphContent(r.Res.Graph)
		if err := errors.Join(err1, err2); err != nil {
			w.fail(err)
		} else if !bytes.Equal(got, want) {
			w.fail(fmt.Errorf("figure %s: pane over rsp differs from the in-process target after %d stops", r.Fig.ID, kgdbStopsPerEpisode))
		}
	}
}

func (w *kgdbWL) fail(err error) { w.errs = append(w.errs, err) }

func (w *kgdbWL) check() error {
	if len(w.modeled) == 0 {
		return errors.New("no episode completed")
	}
	if w.quiet > 0 {
		w.fail(fmt.Errorf("%d of %d stops moved no RSP packet or accrued no modeled link time", w.quiet, w.stops))
	}
	for i := range w.modeled {
		if w.modeled[i] != w.modeled[0] || w.txns[i] != w.txns[0] || w.owned[i] != w.owned[0] {
			w.fail(fmt.Errorf("cycle %d: %v modeled / %d txns / %d owned bytes, cycle 0: %v / %d / %d",
				i, w.modeled[i], w.txns[i], w.owned[i], w.modeled[0], w.txns[0], w.owned[0]))
			break
		}
	}
	return errors.Join(w.errs...)
}

func (w *kgdbWL) endToEnd(m, detail metrics, p *phase) {
	m.set("stop_p50_ms", "ms", p.windowed(50, "stop"))
	m.set("stop_p95_ms", "ms", p.windowed(95, "stop"))
	m.set("attach_p50_ms", "ms", pct(p.parts["attach"], 50))
	m.set("owned_kib_per_session", "KiB", p.cnt["owned_kib"]/p.cnt["episodes"])
	// The latency wrapper's own clock also charges the metadata round trips
	// (hash checks, journal polls) that kgdb_link_ms_per_stop leaves out.
	detail.set("virtual_link_ms_per_stop", "ms", p.cnt["link_ns"]/1e6/p.cnt["stops"])
}

func (w *kgdbWL) perLayer(m, detail metrics, plain, tp *phase) {
	stops := tp.cnt["stops"]
	m.set("gdbrsp.packets_per_stop", "count", (tp.cnt["rsp_txns"]+tp.cnt["rsp_conts"]+tp.cnt["rsp_hash"])/stops)
	m.set("gdbrsp.continuations_per_stop", "count", tp.cnt["rsp_conts"]/stops)
	m.set("gdbrsp.kib_per_stop", "KiB", tp.cnt["rsp_bytes"]/1024/stops)
	deciles := stops / kgdbStopsPerEpisode * kgdbDecile
	m.set("gdbrsp.txns_first_decile", "count", tp.cnt["txns_first"]/deciles)
	m.set("gdbrsp.txns_last_decile", "count", tp.cnt["txns_last"]/deciles)
	// No HTTP and no stream: the extractor is driven directly.
	m.set("server.pane_304_ratio", "ratio", 0)
	m.set("stream.serialize_cache_hit_ratio", "ratio", 0)
	bypassed(m, streamLayer)
}

func (w *kgdbWL) close() {
	if w.next != nil {
		w.next.close()
	}
}
