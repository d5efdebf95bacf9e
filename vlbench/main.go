// Command vlbench is the repository's end-to-end benchmark: it drives the
// stop event → pane bytes path of the real code (HTTP server, stream plane,
// session fabric, incremental extraction, RSP link) under one of three
// workloads and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"visualinux/internal/kernelsim"
	"visualinux/internal/target"
	"visualinux/internal/viewcl"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// phase accounts one timed phase: per-kind operation latencies, failures,
// the time spent inside timed operations, and Go runtime deltas.
//
// The operations of a phase are grouped into windows of a few hundred of
// the workload's main operation. The end-to-end metrics are medians over
// windows: the CPU speed of a shared machine drifts and stalls for seconds
// at a time, and a median over windows keeps such a burst, when it covers
// less than half of the run, out of the figures.
type phase struct {
	lat       map[string][]float64 // ms per operation kind
	win       map[string][]int     // window of each sample in lat
	parts     map[string][]float64 // ms of parts of operations, and of attachments
	cnt       map[string]float64   // workload counters
	attempted int
	failed    int
	busyMS    float64
	cur       int       // current window
	winOps    []float64 // completed operations per window
	winBusyMS []float64 // ms inside timed operations per window
	wall      time.Duration
	allocB    uint64
	gcs       uint32
	cowBreaks uint64 // page-store CoW breaks during the phase
	tr        *tracer
}

func newPhase(tr *tracer) *phase {
	return &phase{lat: map[string][]float64{}, win: map[string][]int{}, parts: map[string][]float64{},
		cnt: map[string]float64{}, winOps: []float64{0}, winBusyMS: []float64{0}, tr: tr}
}

func (p *phase) add(name string, v float64) { p.cnt[name] += v }

// nextWindow closes the current window.
func (p *phase) nextWindow() {
	p.cur++
	p.winOps, p.winBusyMS = append(p.winOps, 0), append(p.winBusyMS, 0)
}

// record accounts one operation of the given kind.
func (p *phase) record(kind string, ms float64, err error) {
	p.attempted++
	p.busyMS += ms
	p.winBusyMS[p.cur] += ms
	if err != nil {
		p.failed++
		fmt.Fprintf(os.Stderr, "vlbench: %s failed: %v\n", kind, err)
		return
	}
	p.winOps[p.cur]++
	p.lat[kind] = append(p.lat[kind], ms)
	p.win[kind] = append(p.win[kind], p.cur)
}

// windowed is the median over windows of the q-th percentile of each
// window's samples of the given kinds.
func (p *phase) windowed(q float64, kinds ...string) float64 {
	by := map[int][]float64{}
	for _, k := range kinds {
		for i, ms := range p.lat[k] {
			by[p.win[k][i]] = append(by[p.win[k][i]], ms)
		}
	}
	var per []float64
	for _, xs := range by {
		per = append(per, pct(xs, q))
	}
	return pct(per, 50)
}

// opsPerS is the median over windows of completed operations per second of
// timed work.
func (p *phase) opsPerS() float64 {
	var per []float64
	for i, n := range p.winOps {
		if p.winBusyMS[i] > 0 {
			per = append(per, n/(p.winBusyMS[i]/1000))
		}
	}
	return pct(per, 50)
}

// measure runs body as one phase, adding wall time and runtime deltas.
func measure(p *phase, body func() error) error {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cow0 := kernelsim.SharedStore().Stats().CowBreaks
	t0 := time.Now()
	err := body()
	p.wall = time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.allocB = m1.TotalAlloc - m0.TotalAlloc
	p.gcs = m1.NumGC - m0.NumGC
	p.cowBreaks = kernelsim.SharedStore().Stats().CowBreaks - cow0
	return err
}

// endToEndCommon adds the end-to-end metrics every workload computes the
// same way from its phase: the rate of the whole mix, the modeled KGDB link
// time of the stops' target reads and the heap.
func endToEndCommon(m metrics, p *phase) {
	m.set("ops_per_s", "1/s", p.opsPerS())
	m.set("kgdb_link_ms_per_stop", "ms", linkMS(p)/p.cnt["stops"])
	m.set("heap_mib", "MiB", heapMiB())
}

// linkMS prices the target reads a phase's stops made (the session
// observers' link transactions and bytes) with the KGDB cost model. The
// same formula serves every workload: on kgdb_link the reads cross the
// loopback RSP link, elsewhere they go to the in-process target, and the
// figure is what they would cost over KGDB.
func linkMS(p *phase) float64 {
	d := target.DefaultKGDB.LinkCost(uint64(p.cnt["link_txns"]), 0, uint64(p.cnt["link_bytes"]))
	return float64(d) / 1e6
}

// layersCommon adds the per-layer metrics every workload measures the same
// way: the extraction path of its stops, templates and forks, the page
// store, the Go runtime of the plain half and the tracing overhead.
func layersCommon(m metrics, plain, tp *phase, compiles uint64) {
	stops := tp.cnt["stops"]
	m.set("core.round_ms_p50", "ms", pct(tp.tr.ms("core.IncrementalExtractor.Round"), 50))
	m.set("core.round_ms_p95", "ms", pct(tp.tr.ms("core.IncrementalExtractor.Round"), 95))
	m.set("core.figures_reused_per_stop", "count", tp.cnt["figure_reuses"]/stops)
	m.set("kernelsim.step_ms_p50", "ms", pct(tp.tr.ms("kernelsim.Workload.Step"), 50))
	m.set("kernelsim.fork_ms_p50", "ms", pct(tp.tr.ms("kernelsim.FromTemplate"), 50))
	m.set("kernelsim.template_build_ms", "ms", sum(tp.tr.ms("kernelsim.TemplateFor")))
	m.set("target.snapshot_hit_ratio", "ratio", ratio(tp.cnt["snap_hits"], tp.cnt["snap_hits"]+tp.cnt["snap_misses"]))
	m.set("target.revalidations_per_stop", "count", tp.cnt["revalidations"]/stops)
	m.set("target.refetch_kib_per_stop", "KiB", tp.cnt["link_bytes"]/1024/stops)
	m.set("target.link_txns_per_stop", "count", tp.cnt["link_txns"]/stops)
	m.set("viewcl.box_reuse_ratio", "ratio", ratio(tp.cnt["box_reuses"], tp.cnt["box_reuses"]+tp.cnt["box_builds"]))
	m.set("viewcl.boxes_built_per_stop", "count", tp.cnt["box_builds"]/stops)
	m.set("viewcl.stdlib_compiles", "count", float64(compiles))
	m.set("render.json_ms_p50", "ms", pct(tp.tr.ms("render.ToJSON"), 50))
	m.set("render.pane_kib_per_stop", "KiB", tp.cnt["json_bytes"]/1024/tp.cnt["json_stops"])
	st := kernelsim.SharedStore().Stats()
	m.set("mem.dedup_ratio", "ratio", ratio(float64(st.SharedBytes), float64(st.UniqueBytes)))
	m.set("mem.store_unique_mib", "MiB", float64(st.UniqueBytes)/(1<<20))
	m.set("mem.cow_breaks_per_stop", "count", float64(tp.cowBreaks)/stops)
	m.set("runtime.alloc_kib_per_op", "KiB", float64(plain.allocB)/1024/float64(plain.attempted-plain.failed))
	m.set("runtime.gc_cycles_per_s", "1/s", float64(plain.gcs)/plain.wall.Seconds())
	m.set("bench.trace_overhead_pct", "%", traceOverhead(plain, tp))
}

// bypassed reports the counts of a layer the workload's traffic does not
// reach: nothing crossed it, so each is 0.
func bypassed(m metrics, layer [][2]string) {
	for _, nu := range layer {
		m.set(nu[0], nu[1], 0)
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceOverhead compares the mean latency of every operation kind present
// in both phases, weighted by the plain phase's counts, in percent.
func traceOverhead(plain, traced *phase) float64 {
	var num, den float64
	for kind, xs := range plain.lat {
		ys := traced.lat[kind]
		if len(ys) == 0 {
			continue
		}
		n := float64(len(xs))
		num += n * mean(ys)
		den += n * mean(xs)
	}
	return 100 * (ratio(num, den) - 1)
}

// settle collects the garbage of untimed work (episode set-up, checks), so
// that the collection it triggers is not charged to the timed operations
// that follow.
func settle() { runtime.GC() }

// heapMiB is the live heap after a forced collection.
func heapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// workload is one traffic mix over the real code.
type workload interface {
	// setup builds everything the first timed operation needs.
	setup(tr *tracer) error
	// run issues operations until d of timed work has been done; spans go
	// to p.tr when it is non-nil.
	run(p *phase, d time.Duration) error
	// check verifies outputs and that the workload exercised its layers.
	// It runs after the timed phases.
	check() error
	// endToEnd and perLayer report the workload's own metrics of the plain
	// phase, and of the plain and traced phases of a traced run, on top of
	// endToEndCommon and layersCommon. Metrics of layers only this workload
	// reaches go to detail, which is printed to standard error.
	endToEnd(m, detail metrics, p *phase)
	perLayer(m, detail metrics, plain, traced *phase)
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "live_stream":
		return newLive(seed), nil
	case "kgdb_link":
		return newKGDB(seed), nil
	case "fleet_mixed":
		return newFleet(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (live_stream, kgdb_link, fleet_mixed)", name)
}

// buildDir holds what a run writes (span files, core dumps), inside the
// checkout the benchmark runs from.
const buildDir = ".bench_build"

// setupSamples is how many times a plain run sets up: once in this process
// and the rest in fresh child processes, so every sample starts cold.
const setupSamples = 7

func main() {
	wl := flag.String("workload", "", "live_stream | kgdb_link | fleet_mixed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "seconds of timed work")
	trace := flag.Int("trace", 0, "1: per-layer traced run")
	setupOnly := flag.Bool("setup-only", false, "set up once, print the set-up seconds and exit")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *trace == 1, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "vlbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds int, traced, setupOnly bool) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	w, err := newWorkload(name, seed)
	if err != nil {
		return err
	}
	var setupTr *tracer
	if traced {
		setupTr = newTracer()
	}
	t0 := time.Now()
	err = w.setup(setupTr)
	setupS := time.Since(t0).Seconds()
	defer w.close()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	if setupOnly {
		fmt.Println(strconv.FormatFloat(setupS, 'g', -1, 64))
		return nil
	}

	compiles0 := viewcl.CompileCount()
	res := result{Metrics: metrics{}}
	detail := metrics{}
	d := time.Duration(seconds) * time.Second
	if !traced {
		p := newPhase(nil)
		if err := measure(p, func() error { return w.run(p, d) }); err != nil {
			return err
		}
		samples := []float64{setupS}
		for i := 1; i < setupSamples; i++ {
			s, err := childSetup(name, seed)
			if err != nil {
				return err
			}
			samples = append(samples, s)
		}
		res.Metrics.set("setup_s", "s", pct(samples, 50))
		w.endToEnd(res.Metrics, detail, p)
		endToEndCommon(res.Metrics, p)
		res.Attempted, res.Failed = p.attempted, p.failed
	} else {
		// Half the time plain, half traced: the gap between the two is the
		// tracing overhead.
		plain, tp := newPhase(nil), newPhase(setupTr)
		if err := measure(plain, func() error { return w.run(plain, d/2) }); err != nil {
			return err
		}
		if err := measure(tp, func() error { return w.run(tp, d/2) }); err != nil {
			return err
		}
		w.perLayer(res.Metrics, detail, plain, tp)
		layersCommon(res.Metrics, plain, tp, viewcl.CompileCount()-compiles0)
		res.Attempted, res.Failed = plain.attempted+tp.attempted, plain.failed+tp.failed
		path := filepath.Join(buildDir, fmt.Sprintf("spans-%s-%d.json", name, seed))
		if err := tp.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "vlbench: %d spans written to %s\n", len(tp.tr.spans), path)
	}
	res.Correct = true
	err = w.check()
	if n := viewcl.CompileCount() - compiles0; n != 0 {
		err = errors.Join(err, fmt.Errorf("%d ViewCL compiles after set-up", n))
	}
	if err != nil {
		res.Correct = false
		fmt.Fprintln(os.Stderr, "vlbench: check failed:", err)
	}
	if err := checkManifest(res.Metrics, traced); err != nil {
		return err
	}
	if blob, err := json.Marshal(detail); err == nil && len(detail) > 0 {
		fmt.Fprintf(os.Stderr, "vlbench: %s detail %s\n", name, blob)
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(blob))
	return nil
}

// checkManifest holds the metrics of a result against BENCHMARK.json in the
// working directory, when there is one: the result must hold exactly the
// manifest's end-to-end metrics (plain run) or per-layer metrics (traced
// run), each in its unit, and no end-to-end metric may be 0.
func checkManifest(m metrics, traced bool) error {
	blob, err := os.ReadFile("BENCHMARK.json")
	if errors.Is(err, os.ErrNotExist) {
		return nil
	} else if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var man struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := man.EndToEnd
	if traced {
		want = man.PerLayer
	}
	var errs []error
	for _, e := range want {
		got, ok := m[e.Name]
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("metric %s not reported", e.Name))
		case got.Unit != e.Unit:
			errs = append(errs, fmt.Errorf("metric %s in %s, manifest says %s", e.Name, got.Unit, e.Unit))
		case !traced && got.Value == 0:
			errs = append(errs, fmt.Errorf("metric %s is 0", e.Name))
		}
	}
	if len(m) != len(want) {
		errs = append(errs, fmt.Errorf("%d metrics reported, manifest lists %d", len(m), len(want)))
	}
	return errors.Join(errs...)
}

// childSetup sets the workload up in a fresh process and returns its set-up
// seconds.
func childSetup(name string, seed int64) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up child: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}
