package main

import (
	"encoding/json"
	"math/rand"

	"visualinux/internal/core"
	"visualinux/internal/graph"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/render"
	"visualinux/internal/vclstdlib"
)

// optionSets is how many kernel configurations a live_stream or kgdb_link
// run cycles through, one per episode. The seed draws them from narrow
// ranges: several per run average out the cost differences between
// configurations, so runs of different seeds stay comparable.
const optionSets = 4

func seedOptions(r *rand.Rand) []kernelsim.Options {
	sets := make([]kernelsim.Options, optionSets)
	for i := range sets {
		sets[i] = kernelsim.Options{
			Processes:      5 + r.Intn(2),
			ThreadsPerProc: 2,
			Churn:          r.Intn(4),
			RunqueueSkew:   r.Intn(2),
			ZombieTasks:    r.Intn(3),
			PipeBurst:      r.Intn(4),
		}
	}
	return sets
}

// paneJSON serializes a graph the way the server's JSON pane format does.
func paneJSON(g *graph.Graph) ([]byte, error) {
	j, err := json.MarshalIndent(render.ToJSON(g), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(j, '\n'), nil
}

// paneContent is a pane's JSON without its extraction statistics (bytes,
// reads and wall time of the extraction that produced it), which differ
// between an incremental and a cold extraction of the same state.
func paneContent(served []byte) ([]byte, error) {
	var g render.JSONGraph
	if err := json.Unmarshal(served, &g); err != nil {
		return nil, err
	}
	g.Stats = graph.Stats{}
	return json.Marshal(&g)
}

// graphContent is paneContent of a graph's served JSON.
func graphContent(g *graph.Graph) ([]byte, error) {
	b, err := paneJSON(g)
	if err != nil {
		return nil, err
	}
	return paneContent(b)
}

// readCounters snapshots the session observer counters the per-layer
// metrics are computed from.
func readCounters(o *obs.Observer) map[string]float64 {
	return map[string]float64{
		"figure_reuses":       float64(o.FigureReuses.Value()),
		"box_reuses":          float64(o.BoxReuses.Value()),
		"box_builds":          float64(o.BoxBuilds.Value()),
		"snap_hits":           float64(o.SnapHits.Value()),
		"snap_misses":         float64(o.SnapMisses.Value()),
		"revalidations":       float64(o.SnapRevalidations.Value() + o.SnapPromotions.Value()),
		"link_txns":           float64(o.LinkTxns.Value()),
		"link_bytes":          float64(o.LinkBytes.Value()),
		"stream_cache_hits":   float64(o.StreamCacheHits.Value()),
		"stream_cache_misses": float64(o.StreamCacheMisses.Value()),
	}
}

// addCounters adds to p how much each counter moved since c0.
func addCounters(p *phase, o *obs.Observer, c0 map[string]float64) {
	for k, v := range readCounters(o) {
		p.add(k, v-c0[k])
	}
}

// The metrics of the layers only some workloads reach. A workload that
// does not reach one reports its counts as 0 (see bypassed).
var (
	streamLayer = [][2]string{
		{"stream.frames_per_stop", "count"},
		{"stream.coalesced_per_stop", "count"},
		{"stream.dropped_total", "count"},
		{"stream.kib_per_stop", "KiB"},
	}
	gdbrspLayer = [][2]string{
		{"gdbrsp.packets_per_stop", "count"},
		{"gdbrsp.continuations_per_stop", "count"},
		{"gdbrsp.kib_per_stop", "KiB"},
		{"gdbrsp.txns_first_decile", "count"},
		{"gdbrsp.txns_last_decile", "count"},
	}
)

// mirror is an identical kernel and extractor outside the server, stepped
// in lockstep with a served session in the traced run, so the benchmark can
// time the workload step, the extraction round and serialization
// separately — calls the HTTP path makes inside one request.
type mirror struct {
	k *kernelsim.Kernel
	w *kernelsim.Workload
	x *core.IncrementalExtractor
}

func newMirror(p *phase, opts kernelsim.Options, figs []vclstdlib.Figure) (*mirror, error) {
	var k *kernelsim.Kernel
	p.tr.around("kernelsim.FromTemplate", 0, func() { k = kernelsim.FromTemplate(opts) })
	m := &mirror{k: k, w: kernelsim.NewWorkload(k), x: core.NewIncrementalExtractor(k, k.Target(), figs, nil)}
	if _, err := m.x.Round(); err != nil {
		k.Mem.Release()
		return nil, err
	}
	return m, nil
}

// stop steps the mirror once and serializes every re-extracted pane.
func (m *mirror) stop(p *phase) error {
	p.tr.around("kernelsim.Workload.Step", 0, m.w.Step)
	m.x.Advance()
	var out []core.RoundResult
	var err error
	p.tr.around("core.IncrementalExtractor.Round", 0, func() { out, err = m.x.Round() })
	if err != nil {
		return err
	}
	return serializeChanged(p, out)
}

// serializeChanged renders the JSON of every pane the round re-extracted,
// as a client watching all panes would receive it.
func serializeChanged(p *phase, out []core.RoundResult) error {
	for _, r := range out {
		if r.Reused || r.Res == nil {
			continue
		}
		id := p.tr.begin("render.ToJSON", 0)
		b, err := paneJSON(r.Res.Graph)
		p.tr.end(id)
		if err != nil {
			return err
		}
		p.add("json_bytes", float64(len(b)))
	}
	p.add("json_stops", 1)
	return nil
}

func (m *mirror) close() { m.k.Mem.Release() }
