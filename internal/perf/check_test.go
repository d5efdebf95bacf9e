package perf

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type checker interface{ Check() []string }

// committed loads one of the repo's committed bench reports.
func committed[T any](t *testing.T, name string) *T {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	rep := new(T)
	if err := json.Unmarshal(blob, rep); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return rep
}

// TestCommittedReportsPass replays every committed report through its gate.
func TestCommittedReportsPass(t *testing.T) {
	for name, rep := range map[string]checker{
		"BENCH_4.json":  committed[SteadyReport](t, "BENCH_4.json"),
		"BENCH_6.json":  committed[CPUReport](t, "BENCH_6.json"),
		"BENCH_7.json":  committed[StreamReport](t, "BENCH_7.json"),
		"BENCH_8.json":  committed[TenantReport](t, "BENCH_8.json"),
		"BENCH_9.json":  committed[FleetMemReport](t, "BENCH_9.json"),
		"BENCH_10.json": committed[FleetReport](t, "BENCH_10.json"),
	} {
		if v := rep.Check(); len(v) > 0 {
			t.Errorf("%s: %v", name, v)
		}
	}
}

// pick returns at for the at-the-bound report and past for the one just
// beyond it.
func pick[T any](past bool, at, beyond T) T {
	if past {
		return beyond
	}
	return at
}

func up(v float64) float64   { return math.Nextafter(v, math.Inf(1)) }
func down(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }

// TestCheckBounds: for every bound, a committed report moved exactly onto
// the bound passes, and one moved just past it fails with exactly one
// violation that names the metric.
func TestCheckBounds(t *testing.T) {
	cases := []struct {
		metric string
		report func(past bool) checker
	}{
		{"reuse_ratio", func(past bool) checker {
			r := committed[SteadyReport](t, "BENCH_4.json")
			r.ReuseRatio = pick(past, minReuseRatio, down(minReuseRatio))
			return r
		}},
		{"cpu_speedup", func(past bool) checker {
			r := committed[CPUReport](t, "BENCH_6.json")
			r.Speedup = pick(past, minCPUSpeedup, down(minCPUSpeedup))
			return r
		}},
		{"steady_round_allocs_op", func(past bool) checker {
			r := committed[CPUReport](t, "BENCH_6.json")
			r.SteadyRoundAllocs = pick(past, maxSteadyRoundAllocs, up(maxSteadyRoundAllocs))
			return r
		}},
		{"p95_push_ms", func(past bool) checker {
			r := committed[StreamReport](t, "BENCH_7.json")
			r.P95PushMS = pick(past, maxPushP95MS, up(maxPushP95MS))
			return r
		}},
		{"fast_delivery_ratio", func(past bool) checker {
			r := committed[StreamReport](t, "BENCH_7.json")
			r.FastDeliveryRatio = pick(past, minFastDeliveryRatio, down(minFastDeliveryRatio))
			return r
		}},
		{"slow_coalesced", func(past bool) checker {
			r := committed[StreamReport](t, "BENCH_7.json")
			r.SlowCoalesced = pick[uint64](past, 1, 0)
			return r
		}},
		{"worst_session_req_p95_ms", func(past bool) checker {
			r := committed[TenantReport](t, "BENCH_8.json")
			r.WorstSessionReqP95MS = pick(past, maxTenantReqP95MS, up(maxTenantReqP95MS))
			return r
		}},
		{"isolation_ratio", func(past bool) checker {
			r := committed[TenantReport](t, "BENCH_8.json")
			r.IsolationRatio = pick(past, maxIsolationRatio, up(maxIsolationRatio))
			return r
		}},
		{"stdlib_reparses", func(past bool) checker {
			r := committed[TenantReport](t, "BENCH_8.json")
			r.StdlibReparses = pick[uint64](past, 0, 1)
			return r
		}},
		{"stdlib_recompiles", func(past bool) checker {
			r := committed[TenantReport](t, "BENCH_8.json")
			r.StdlibRecompiles = pick[uint64](past, 0, 1)
			return r
		}},
		{"dedup_ratio", func(past bool) checker {
			r := committed[FleetMemReport](t, "BENCH_9.json")
			r.DedupRatio = pick(past, minDedupRatio, down(minDedupRatio))
			return r
		}},
		{"fork_admit_p95_ms", func(past bool) checker {
			r := committed[FleetMemReport](t, "BENCH_9.json")
			r.ForkAdmitP95MS = pick(past, r.BuildAdmitP95MS, up(r.BuildAdmitP95MS))
			return r
		}},
		{"worst_session_req_p95_ms", func(past bool) checker {
			r := committed[FleetMemReport](t, "BENCH_9.json")
			r.WorstSessionReqP95MS = pick(past, maxMemReqP95MS, up(maxMemReqP95MS))
			return r
		}},
		{"template_forks", func(past bool) checker {
			r := committed[FleetMemReport](t, "BENCH_9.json")
			r.TemplateForks = pick[uint64](past, 1, 0)
			return r
		}},
		{"zero_copy_fills", func(past bool) checker {
			r := committed[FleetMemReport](t, "BENCH_9.json")
			r.ZeroCopyFills = pick[uint64](past, 1, 0)
			return r
		}},
		{"fanout_p95_ms", func(past bool) checker {
			r := committed[FleetReport](t, "BENCH_10.json")
			r.FanoutP95MS = pick(past, maxFanoutP95MS, up(maxFanoutP95MS))
			return r
		}},
		{"targets", func(past bool) checker {
			r := committed[FleetReport](t, "BENCH_10.json")
			r.Targets = pick(past, fleetTargets, fleetTargets-1)
			r.HealthyTargs = r.Targets
			return r
		}},
		{"healthy_targets", func(past bool) checker {
			r := committed[FleetReport](t, "BENCH_10.json")
			r.HealthyTargs = pick(past, r.Targets, r.Targets-1)
			return r
		}},
		{"core", func(past bool) checker {
			r := committed[FleetReport](t, "BENCH_10.json")
			r.Core = pick(past, 1, 0)
			return r
		}},
		{"merged_refs", func(past bool) checker {
			r := committed[FleetReport](t, "BENCH_10.json")
			r.MergedRefs = pick(past, 1, 0)
			r.TaggedRefs = r.MergedRefs
			return r
		}},
		{"tagged_refs", func(past bool) checker {
			r := committed[FleetReport](t, "BENCH_10.json")
			r.TaggedRefs = pick(past, r.MergedRefs, r.MergedRefs-1)
			return r
		}},
	}
	for _, tc := range cases {
		if v := tc.report(false).Check(); len(v) > 0 {
			t.Errorf("%s at its bound: %v", tc.metric, v)
		}
		v := tc.report(true).Check()
		if len(v) != 1 || !strings.HasPrefix(v[0], tc.metric+" ") {
			t.Errorf("%s just past its bound: %q, want one violation naming it", tc.metric, v)
		}
	}
}

// TestStreamCheckWithoutSlowClients: slow_coalesced is only required when a
// mix had slow consumers.
func TestStreamCheckWithoutSlowClients(t *testing.T) {
	r := committed[StreamReport](t, "BENCH_7.json")
	r.Rows = r.Rows[:1] // the all-fast mix
	r.SlowCoalesced = 0
	if r.Rows[0].Slow != 0 {
		t.Fatalf("first mix has %d slow clients, want the all-fast mix", r.Rows[0].Slow)
	}
	if v := r.Check(); len(v) > 0 {
		t.Errorf("all-fast report: %v", v)
	}
}

// TestCheckRejectsEmptyReports: a report with nothing measured fails its
// gate rather than passing vacuously.
func TestCheckRejectsEmptyReports(t *testing.T) {
	for _, rep := range []checker{&SteadyReport{ReuseRatio: 1}, &CPUReport{Speedup: 4}, &StreamReport{FastDeliveryRatio: 1},
		&TenantReport{}, &FleetMemReport{DedupRatio: 4, TemplateForks: 1, ZeroCopyFills: 1}, &FleetReport{}} {
		if len(rep.Check()) == 0 {
			t.Errorf("%T: empty report passed", rep)
		}
	}
}
