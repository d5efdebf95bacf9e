// Command perfbench regenerates the paper's Table 4: per-figure
// visualization overhead on the "GDB (QEMU)" (fast simulated) target and
// the "KGDB (rpi-400)" (latency-modeled) target, plus the qualitative
// shape checks of §5.4. The KGDB column is measured twice — with the
// paper-faithful uncached stub, and with the snapshot read cache the live
// session uses — so the table doubles as the cache's before/after report.
//
// Usage:
//
//	perfbench                    # virtual-clock KGDB accounting (fast)
//	perfbench -sleep             # really sleep per read (live wall-clock)
//	perfbench -perread 5ms       # tune the modeled round-trip latency
//	perfbench -procs 10          # scale the workload population
//	perfbench -json BENCH_1.json # also write per-figure results as JSON
//	perfbench -rspjson BENCH_3.json
//	                             # also measure the slow-link personality — a
//	                             # PacketSize=512 RSP stub behind the snapshot
//	                             # cache, deterministic modeled cost — and
//	                             # write it as JSON (benchguard compares it
//	                             # per figure against BENCH_3.json)
//	perfbench -steadyjson BENCH_4.json
//	                             # also run the steady-state incremental
//	                             # personality — attach, extract all figures,
//	                             # one Dirty-Pipe mutation, stop, re-extract —
//	                             # and write the cold-vs-steady report as JSON
//	perfbench -cpujson BENCH_6.json
//	                             # also run the CPU personality — cold
//	                             # extraction per figure through the compiled
//	                             # closure-chain engine vs the tree-walking
//	                             # interpreter, same process, no link cost —
//	                             # and write the report as JSON. The speedup
//	                             # column is a same-run internal ratio; the
//	                             # absolute ms values are host wall-clock.
//	perfbench -streamjson BENCH_7.json
//	                             # also run the stream fan-out personality —
//	                             # a live server free-running stop events
//	                             # into broker-level SSE client mixes (all
//	                             # fast; one slow straggler; half slow) —
//	                             # and write the push-latency/coalescing
//	                             # report as JSON. Latencies are host
//	                             # wall-clock, gated by absolute
//	                             # ceilings/floors.
//	perfbench -tenantjson BENCH_8.json
//	                             # also run the multi-tenant personality — one
//	                             # server admits a 64-session fleet through
//	                             # POST /sessions, serves pane reads against
//	                             # every tenant, then measures a victim
//	                             # session's stop-event round beside a hot
//	                             # free-running neighbor — and write the
//	                             # admission/serving/isolation report as JSON.
//	                             # Latencies are host wall-clock (absolute
//	                             # ceilings); the shared-infra counters are
//	                             # exact (zero stdlib re-parses and
//	                             # re-compiles after the first admission).
//	perfbench -memjson BENCH_9.json
//	                             # also run the fleet-memory personality — the
//	                             # same 64-session fleet admitted twice, once
//	                             # forking the shared CoW template image and
//	                             # once building every kernel privately — and
//	                             # write the admission/residency report as
//	                             # JSON. Admission latencies are host
//	                             # wall-clock (gated by the fork<=build
//	                             # comparison and absolute ceilings); the
//	                             # dedup ratio and CoW counters are
//	                             # deterministic byte accounting.
//	perfbench -fleetjson BENCH_10.json
//	                             # also run the fleet-query personality — a
//	                             # 16-target mixed fleet (live sims across
//	                             # three workload variants plus two loaded
//	                             # core dumps) answers one ViewQL program
//	                             # through POST /fleet/query, measured
//	                             # against the serial per-target loop — and
//	                             # write the fan-out/merge report as JSON.
//	                             # Latencies are host wall-clock (absolute
//	                             # ceilings); the merge counters are
//	                             # deterministic.
//	perfbench -trace out.json    # also write a Chrome trace_event profile
//	                             # of every figure's cached-KGDB extraction
//
// Each report written by -steadyjson, -cpujson, -streamjson, -tenantjson,
// -memjson or -fleetjson is checked against its bounds (the constants
// block in internal/perf/check.go) right after it is written. Violations
// and failed shape checks go to stderr, and perfbench exits 1 once every
// requested report is out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"visualinux/internal/gdbrsp"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/perf"
	"visualinux/internal/target"
	"visualinux/internal/vclstdlib"
)

// benchRecord is one BENCH_1.json entry: the same figure across the
// target personalities, with the raw traffic counters behind the costs.
type benchRecord struct {
	Figure         string  `json:"figure"`
	Objects        int     `json:"objects"`
	GDBNsOp        int64   `json:"gdb_ns_op"`
	BytesRead      uint64  `json:"bytes_read"`
	Transactions   uint64  `json:"transactions"`
	KGDBMs         float64 `json:"kgdb_ms"`
	KGDBUncachedMs float64 `json:"kgdb_uncached_ms"`
	CacheSpeedup   float64 `json:"cache_speedup"`
}

// rspRecord is one BENCH_3.json entry: the slow-link personality — a small
// negotiated PacketSize, annex continuation batching, snapshot cache — with
// the purely modeled link cost in kgdb_ms (benchguard keys on figure +
// kgdb_ms, as it does for BENCH_1.json).
type rspRecord struct {
	Figure        string  `json:"figure"`
	Objects       int     `json:"objects"`
	PacketSize    int     `json:"packet_size"`
	Transactions  uint64  `json:"transactions"`
	Continuations uint64  `json:"continuations"`
	BytesRead     uint64  `json:"bytes_read"`
	KGDBMs        float64 `json:"kgdb_ms"`
}

// rspPacketSize is the negotiated PacketSize of the -rspjson stub: the
// serial-link constraint the slow-link personality models.
const rspPacketSize = 512

func main() {
	sleep := flag.Bool("sleep", false, "really sleep per read instead of virtual accounting")
	rsp := flag.Bool("rsp", false, "also measure extraction through a real GDB-RSP loopback socket")
	jsonOut := flag.String("json", "", "write per-figure results to this JSON file (e.g. BENCH_1.json)")
	rspJSONOut := flag.String("rspjson", "", "write the slow-link (PacketSize-constrained RSP, cached, modeled) results to this JSON file (e.g. BENCH_3.json)")
	steadyJSONOut := flag.String("steadyjson", "", "write the steady-state incremental re-extraction report to this JSON file (e.g. BENCH_4.json)")
	cpuJSONOut := flag.String("cpujson", "", "write the compiled-vs-interpreted CPU report to this JSON file (e.g. BENCH_6.json)")
	streamJSONOut := flag.String("streamjson", "", "write the stream fan-out push-latency report to this JSON file (e.g. BENCH_7.json)")
	tenantJSONOut := flag.String("tenantjson", "", "write the multi-tenant session-fabric report to this JSON file (e.g. BENCH_8.json)")
	memJSONOut := flag.String("memjson", "", "write the fleet-memory (CoW template fork vs private build) report to this JSON file (e.g. BENCH_9.json)")
	fleetJSONOut := flag.String("fleetjson", "", "write the fleet-query (cross-target fan-out vs serial loop) report to this JSON file (e.g. BENCH_10.json)")
	traceOut := flag.String("trace", "", "write a Chrome trace_event file of every figure's cached-KGDB extraction (open in chrome://tracing or Perfetto)")
	perRead := flag.Duration("perread", 5*time.Millisecond, "modeled KGDB round-trip per read")
	perByte := flag.Duration("perbyte", 2*time.Microsecond, "modeled KGDB cost per byte")
	perCont := flag.Duration("percont", 50*time.Microsecond, "modeled cost per continuation packet of an open transfer")
	procs := flag.Int("procs", 0, "workload processes (0 = paper default of 5)")
	churn := flag.Int("churn", 0, "age the state through N live-transition rounds before measuring")
	flag.Parse()

	model := target.LatencyModel{PerRead: *perRead, PerByte: *perByte, PerContinuation: *perCont, Sleep: *sleep}
	opts := kernelsim.Options{Processes: *procs, Churn: *churn}

	// Every gate violation is printed to stderr as soon as its report is
	// written; the exit status waits until every requested report is out.
	failed := false
	check := func(path string, rep interface{ Check() []string }) {
		for _, v := range rep.Check() {
			fmt.Fprintf(os.Stderr, "perfbench: %s: FAIL: %s\n", path, v)
			failed = true
		}
	}

	uncached, err := perf.Table4Uncached(opts, model)
	if err != nil {
		die("table4", err)
	}
	fmt.Print(perf.Format(uncached))

	cached, err := perf.Table4(opts, model)
	if err != nil {
		die("table4", err)
	}
	fmt.Println("\nExtra: KGDB behind the snapshot read cache (one page fetch per page per stop):")
	fmt.Printf("%-12s | %12s %12s %8s | %6s %6s\n",
		"figure", "uncached(ms)", "cached(ms)", "speedup", "txns", "was")
	for i, p := range cached {
		u := uncached[i]
		fmt.Printf("%-12s | %12.1f %12.1f %7.1fx | %6d %6d\n",
			p.FigureID, u.KGDB.TotalMS, p.KGDB.TotalMS, cacheSpeedup(u, p),
			p.KGDB.Transactions, u.KGDB.Transactions)
	}

	if *rsp {
		rows, err := perf.Table4RSP(opts)
		if err != nil {
			die("rsp", err)
		}
		fmt.Println()
		fmt.Print(perf.FormatRows("Extra: extraction through a real GDB-RSP loopback socket", rows))
	}

	if *rspJSONOut != "" {
		// The slow-link personality: a PacketSize-constrained stub, the
		// snapshot cache on top, cost priced by the deterministic link model
		// (no wall clock), so the file is byte-stable across runs.
		rspModel := target.LatencyModel{PerRead: *perRead, PerByte: *perByte, PerContinuation: *perCont}
		rows, err := perf.Table4RSPCached(opts, rspModel, gdbrsp.WithPacketSize(rspPacketSize))
		if err != nil {
			die("rspjson", err)
		}
		recs := make([]rspRecord, len(rows))
		for i, r := range rows {
			recs[i] = rspRecord{
				Figure:        r.FigureID,
				Objects:       r.Objects,
				PacketSize:    rspPacketSize,
				Transactions:  r.Transactions,
				Continuations: r.Continuations,
				BytesRead:     uint64(r.KBytes * 1024),
				KGDBMs:        r.TotalMS,
			}
		}
		writeJSON(*rspJSONOut, recs)
		fmt.Printf("\nwrote %s (slow-link personality, PacketSize=%d, modeled)\n", *rspJSONOut, rspPacketSize)
	}

	if *steadyJSONOut != "" {
		// The incremental personality: one generation-tagged snapshot, one
		// cold round, one Dirty-Pipe mutation, one steady round. Costs are
		// pure virtual link time, so the file is byte-stable across runs.
		steadyModel := target.LatencyModel{PerRead: *perRead, PerByte: *perByte, PerContinuation: *perCont, PerHashCheck: target.DefaultKGDB.PerHashCheck}
		rep, err := perf.MeasureSteadyState(opts, steadyModel, false)
		if err != nil {
			die("steadyjson", err)
		}
		writeJSON(*steadyJSONOut, rep)
		fmt.Printf("\nSteady-state incremental re-extraction (one Dirty-Pipe mutation between rounds):\n")
		fmt.Printf("%-12s | %10s %10s | %6s %6s %6s\n",
			"figure", "cold(ms)", "steady(ms)", "reused", "boxes+", "boxes=")
		for _, r := range rep.Rows {
			fmt.Printf("%-12s | %10.1f %10.1f | %6v %6d %6d\n",
				r.FigureID, r.ColdMS, r.SteadyMS, r.Reused, r.BoxBuilds, r.BoxReuses)
		}
		fmt.Printf("steady round = %.1f%% of cold; box reuse ratio %.2f; %d/%d figures served whole\n",
			rep.SteadyFraction*100, rep.ReuseRatio, rep.FiguresReused, rep.Figures)
		fmt.Printf("wrote %s\n", *steadyJSONOut)
		check(*steadyJSONOut, rep)
	}

	if *cpuJSONOut != "" {
		// The CPU personality: both engines in one process against the fast
		// in-process target, so the speedup is a same-run internal ratio.
		rep, err := perf.MeasureCPU(opts, 0, "")
		if err != nil {
			die("cpujson", err)
		}
		writeJSON(*cpuJSONOut, rep)
		fmt.Printf("\nCPU personality (compiled closure chains vs tree-walking interpreter, same run):\n")
		fmt.Print(perf.FormatCPU(rep))
		fmt.Printf("wrote %s\n", *cpuJSONOut)
		check(*cpuJSONOut, rep)
	}

	if *streamJSONOut != "" {
		// The stream personality: live fan-out under mixed consumer speeds.
		// Broker-level clients keep TCP out of the measurement; the columns
		// are wall-clock, so the gate uses absolute ceilings, not a
		// baseline diff.
		rep, err := perf.MeasureStream(opts, 0)
		if err != nil {
			die("streamjson", err)
		}
		writeJSON(*streamJSONOut, rep)
		fmt.Printf("\nStream fan-out personality (free-run stop events into mixed-speed SSE client pools):\n")
		fmt.Print(perf.FormatStream(rep))
		fmt.Printf("wrote %s\n", *streamJSONOut)
		check(*streamJSONOut, rep)
	}

	if *tenantJSONOut != "" {
		// The tenant personality: one live server, a whole fleet of managed
		// sessions, and a victim-vs-hot isolation experiment. Wall-clock, so
		// the gate uses absolute ceilings plus exact zero-equality on the
		// shared-infrastructure counters.
		rep, err := perf.MeasureTenants()
		if err != nil {
			die("tenantjson", err)
		}
		writeJSON(*tenantJSONOut, rep)
		fmt.Printf("\nMulti-tenant session-fabric personality (one server, %d sessions):\n", rep.Sessions)
		fmt.Print(perf.FormatTenants(rep))
		fmt.Printf("wrote %s\n", *tenantJSONOut)
		check(*tenantJSONOut, rep)
	}

	if *memJSONOut != "" {
		// The fleet-memory personality: fork-vs-build admission arms over
		// the same fleet shape, then the CoW byte accounting. The dedup
		// ratio and counters are deterministic; only the admission and
		// serving latencies are wall-clock.
		rep, err := perf.MeasureFleetMem(0, 0)
		if err != nil {
			die("memjson", err)
		}
		writeJSON(*memJSONOut, rep)
		fmt.Printf("\nFleet-memory personality (CoW template forks vs private builds, %d sessions):\n", rep.Sessions)
		fmt.Print(perf.FormatFleetMem(rep))
		fmt.Printf("wrote %s\n", *memJSONOut)
		check(*memJSONOut, rep)
	}

	if *fleetJSONOut != "" {
		// The fleet-query personality: one ViewQL program fanned across a
		// mixed live+core fleet vs the serial per-target loop. The merge
		// counters are deterministic; only the latencies are wall-clock.
		rep, err := perf.MeasureFleet()
		if err != nil {
			die("fleetjson", err)
		}
		writeJSON(*fleetJSONOut, rep)
		fmt.Printf("\nFleet-query personality (fan-out vs serial over %d mixed targets):\n", rep.Targets)
		fmt.Print(perf.FormatFleet(rep))
		fmt.Printf("wrote %s\n", *fleetJSONOut)
		check(*fleetJSONOut, rep)
	}

	if *traceOut != "" {
		if err := writeTrace(*traceOut, opts, model); err != nil {
			die("trace", err)
		}
		fmt.Printf("\nwrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *traceOut)
	}

	if *jsonOut != "" {
		recs := make([]benchRecord, len(cached))
		for i, p := range cached {
			u := uncached[i]
			recs[i] = benchRecord{
				Figure:         p.FigureID,
				Objects:        p.GDB.Objects,
				GDBNsOp:        int64(p.GDB.TotalMS * 1e6),
				BytesRead:      uint64(p.KGDB.KBytes * 1024),
				Transactions:   p.KGDB.Transactions,
				KGDBMs:         p.KGDB.TotalMS,
				KGDBUncachedMs: u.KGDB.TotalMS,
				CacheSpeedup:   cacheSpeedup(u, p),
			}
		}
		writeJSON(*jsonOut, recs)
		fmt.Printf("\nwrote %s\n", *jsonOut)
	}

	fmt.Println("\nShape checks (paper §5.4 qualitative claims, uncached stub):")
	if fails := perf.ShapeChecks(uncached); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "perfbench: shape check FAIL:", f)
		}
		failed = true
	} else {
		fmt.Println("  all hold: KGDB >=10x slower everywhere; cost ranks with read count;")
		fmt.Println("  small figures remain interactive on KGDB.")
	}
	if failed {
		os.Exit(1)
	}
}

// cacheSpeedup is how much faster the cached KGDB run was than the
// uncached one, 0 when the cached run cost nothing.
func cacheSpeedup(uncached, cached perf.Pair) float64 {
	if cached.KGDB.TotalMS <= 0 {
		return 0
	}
	return uncached.KGDB.TotalMS / cached.KGDB.TotalMS
}

// writeJSON writes v as indented JSON plus a trailing newline, the layout
// of every committed BENCH_*.json, and exits 1 if it cannot.
func writeJSON(path string, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(blob, '\n'), 0o644)
	}
	if err != nil {
		die(path, err)
	}
}

func die(what string, err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	os.Exit(1)
}

// writeTrace re-measures every figure on the cached-KGDB personality with
// the obs tap inserted under the snapshot, then emits all span trees as one
// Chrome trace_event file (one track per figure).
func writeTrace(path string, opts kernelsim.Options, model target.LatencyModel) error {
	k := kernelsim.Build(opts)
	o := obs.NewObserver()
	var roots []*obs.SpanExport
	for _, fig := range vclstdlib.Figures() {
		_, tr, err := perf.MeasureFigureKGDBTraced(k, fig, model, o)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.ID, err)
		}
		if tr != nil {
			roots = append(roots, tr)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, roots...); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
