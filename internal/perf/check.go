package perf

import "fmt"

// Gate bounds of the bench reports perfbench writes. perfbench runs each
// report's Check right after measuring it and exits 1 on any violation;
// cmd/benchguard separately compares the per-figure costs of BENCH_1/3/4
// against their committed baselines. Wall-clock ceilings are absolute and
// generous (they catch a broken mechanism, not a small slip); counter
// bounds are exact.
const (
	// BENCH_4 (-steadyjson): share of steady-round boxes served without
	// re-extraction.
	minReuseRatio = 0.9

	// BENCH_6 (-cpujson): same-run compiled-vs-interpreted speedup of the
	// cold sweep, and allocations per steady round.
	minCPUSpeedup        = 3
	maxSteadyRoundAllocs = 16

	// BENCH_7 (-streamjson): worst fast client's p95 push latency and the
	// minimum fast delivery ratio across mixes.
	maxPushP95MS         = 250
	minFastDeliveryRatio = 0.999

	// BENCH_8 (-tenantjson): worst session's request p95 and the
	// victim-vs-hot isolation ratio.
	maxTenantReqP95MS = 250
	maxIsolationRatio = 8

	// BENCH_9 (-memjson): private-sum over unique-resident bytes, and the
	// worst session's request p95 across the forked fleet.
	minDedupRatio  = 3
	maxMemReqP95MS = 250

	// BENCH_10 (-fleetjson): fan-out p95, and the fleet size MeasureFleet
	// admits, every target of which must answer.
	maxFanoutP95MS = 100
	fleetTargets   = 16
)

// gate collects the bound violations of one report.
type gate []string

func (g *gate) floor(metric string, v, min float64) {
	g.must(v >= min, "%s %g below floor %g", metric, v, min)
}

func (g *gate) ceil(metric string, v, max float64) {
	g.must(v <= max, "%s %g above ceiling %g", metric, v, max)
}

func (g *gate) must(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Sprintf(format, args...))
	}
}

// Check returns the BENCH_4 bounds the report violates.
func (r *SteadyReport) Check() []string {
	var g gate
	g.must(len(r.Rows) > 0, "rows empty: not a steady-state report")
	g.floor("reuse_ratio", r.ReuseRatio, minReuseRatio)
	return g
}

// Check returns the BENCH_6 bounds the report violates.
func (r *CPUReport) Check() []string {
	var g gate
	g.must(len(r.Rows) > 0, "rows empty: not a CPU report")
	g.floor("cpu_speedup", r.Speedup, minCPUSpeedup)
	g.ceil("steady_round_allocs_op", r.SteadyRoundAllocs, maxSteadyRoundAllocs)
	return g
}

// Check returns the BENCH_7 bounds the report violates. Whenever a mix had
// slow consumers they must have coalesced: proof that backpressure degraded
// them to latest-wins instead of stalling the plane.
func (r *StreamReport) Check() []string {
	var g gate
	g.must(len(r.Rows) > 0, "rows empty: not a stream report")
	g.ceil("p95_push_ms", r.P95PushMS, maxPushP95MS)
	g.floor("fast_delivery_ratio", r.FastDeliveryRatio, minFastDeliveryRatio)
	slow := false
	for _, row := range r.Rows {
		slow = slow || row.Slow > 0
	}
	g.must(!slow || r.SlowCoalesced > 0,
		"slow_coalesced 0 with slow clients present: backpressure never engaged")
	return g
}

// Check returns the BENCH_8 bounds the report violates. Admissions after
// the first must ride the shared stdlib caches: exactly zero re-parses and
// re-compiles.
func (r *TenantReport) Check() []string {
	var g gate
	g.must(r.Sessions > 0, "sessions 0: not a tenant report")
	g.ceil("worst_session_req_p95_ms", r.WorstSessionReqP95MS, maxTenantReqP95MS)
	g.ceil("isolation_ratio", r.IsolationRatio, maxIsolationRatio)
	g.must(r.StdlibReparses == 0, "stdlib_reparses %d, want 0", r.StdlibReparses)
	g.must(r.StdlibRecompiles == 0, "stdlib_recompiles %d, want 0", r.StdlibRecompiles)
	return g
}

// Check returns the BENCH_9 bounds the report violates. Forking must be no
// slower than building (both arms ran in the same process), and both CoW
// fast paths must have engaged, so the gate cannot pass on a silently
// disabled one.
func (r *FleetMemReport) Check() []string {
	var g gate
	g.must(r.Sessions > 0, "sessions 0: not a fleet-memory report")
	g.floor("dedup_ratio", r.DedupRatio, minDedupRatio)
	g.must(r.ForkAdmitP95MS <= r.BuildAdmitP95MS,
		"fork_admit_p95_ms %g above build_admit_p95_ms %g", r.ForkAdmitP95MS, r.BuildAdmitP95MS)
	g.ceil("worst_session_req_p95_ms", r.WorstSessionReqP95MS, maxMemReqP95MS)
	g.must(r.TemplateForks > 0, "template_forks 0, want > 0")
	g.must(r.ZeroCopyFills > 0, "zero_copy_fills 0, want > 0")
	return g
}

// Check returns the BENCH_10 bounds the report violates: the fan-out p95,
// the exact fleet shape (every target present and healthy, core dumps
// included) and a non-empty merge with provenance on every ref.
func (r *FleetReport) Check() []string {
	var g gate
	g.ceil("fanout_p95_ms", r.FanoutP95MS, maxFanoutP95MS)
	g.must(r.Targets == fleetTargets, "targets %d, want %d", r.Targets, fleetTargets)
	g.must(r.HealthyTargs == r.Targets, "healthy_targets %d of %d", r.HealthyTargs, r.Targets)
	g.must(r.Core > 0, "core 0, want > 0")
	g.must(r.MergedRefs > 0, "merged_refs 0, want > 0")
	g.must(r.TaggedRefs == r.MergedRefs, "tagged_refs %d of %d merged", r.TaggedRefs, r.MergedRefs)
	return g
}
