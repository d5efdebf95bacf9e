// Fleet-query personality: the cross-target debugging experiment behind
// BENCH_10. One server hosts a 16-target mixed fleet — live simulated
// kernels across heterogeneous workload variants plus loaded core dumps —
// and a single POST /fleet/query fans one ViewQL program over all of them,
// merging provenance-tagged per-target result sets. Measured: the fan-out
// latency distribution against the serial per-session alternative (the
// loop a human would otherwise script), and the merge integrity counters,
// which are deterministic.
package perf

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/coredump"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// FleetReport is the BENCH_10 document.
type FleetReport struct {
	Targets int `json:"targets"`
	Live    int `json:"live"`
	Core    int `json:"core"`
	Queries int `json:"queries"`

	// Fan-out: wall-clock POST /fleet/query over the whole fleet.
	FanoutP50MS float64 `json:"fanout_p50_ms"`
	FanoutP95MS float64 `json:"fanout_p95_ms"`

	// Serial baseline: the same program issued one target at a time,
	// summed — what querying the fleet costs without the fan-out.
	SerialP50MS float64 `json:"serial_p50_ms"`
	SpeedupX    float64 `json:"speedup_x"`

	// Merge integrity (deterministic): refs in the merged set, all
	// provenance-stamped; targets that answered without error.
	MergedRefs   int `json:"merged_refs"`
	HealthyTargs int `json:"healthy_targets"`
	TaggedRefs   int `json:"tagged_refs"`
}

// fleetQueryBody is the program every arm runs: one SELECT over the
// scheduler figure with a condition, so each target does real predicate
// work but the result stays compact.
const fleetQueryBody = `{"figure":"7-1","query":"busy = SELECT task_struct FROM * WHERE pid > 0"%s}`

// MeasureFleet admits the mixed fleet and measures fan-out vs serial:
// fleetTargets targets (2 core dumps, the rest live across three workload
// variants) and 32 query rounds.
func MeasureFleet() (*FleetReport, error) {
	const targets, queries, nCore = fleetTargets, 32, 2
	const nLive = targets - nCore
	rep := &FleetReport{Targets: targets, Live: nLive, Core: nCore, Queries: queries}

	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: targets + 8}, obs.NewObserver())
	srv := server.NewManaged(mgr, nil)

	// Heterogeneous live members: three workload variants so the fleet's
	// targets genuinely differ (skewed runqueues, zombie tasks, preloaded
	// pipes) instead of 14 clones.
	variants := []string{
		`"procs":2,"runqueue_skew":2`,
		`"procs":2,"zombie_tasks":2`,
		`"procs":2,"pipe_burst":3`,
	}
	ids := make([]string, 0, targets)
	for i := 0; i < nLive; i++ {
		id := fmt.Sprintf("live%02d", i)
		body := fmt.Sprintf(`{"id":%q,%s,"figures":["7-1"]}`, id, variants[i%len(variants)])
		if code, out := tenantDo(srv, "POST", "/sessions", body); code != 201 {
			return nil, fmt.Errorf("admit %s: %d %s", id, code, out)
		}
		ids = append(ids, id)
	}

	// Post-mortem members: dump freshly built kernels to disk and admit
	// them back through the server-side core path, exactly the operator
	// flow (vlserver -core / POST /sessions {"core": path}).
	dir, err := os.MkdirTemp("", "vlfleet")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	for i := 0; i < nCore; i++ {
		id := fmt.Sprintf("dead%02d", i)
		path := fmt.Sprintf("%s/%s.vlcore", dir, id)
		fh, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		k := kernelsim.Build(kernelsim.Options{Processes: 2 + i, ThreadsPerProc: 1, VMAsPerProcess: 2, PagesPerFile: 2})
		if err := coredump.Dump(k.Target(), fh); err != nil {
			fh.Close()
			return nil, err
		}
		fh.Close()
		body := fmt.Sprintf(`{"id":%q,"core":%q,"figures":["7-1"]}`, id, path)
		if code, out := tenantDo(srv, "POST", "/sessions", body); code != 201 {
			return nil, fmt.Errorf("admit %s: %d %s", id, code, out)
		}
		ids = append(ids, id)
	}

	// --- fan-out arm ------------------------------------------------------
	full := fmt.Sprintf(fleetQueryBody, "")
	var lastOut string
	fanout := make([]time.Duration, 0, queries)
	for i := 0; i < queries; i++ {
		t0 := time.Now()
		code, out := tenantDo(srv, "POST", "/fleet/query", full)
		if code != 200 {
			return nil, fmt.Errorf("fleet query: %d %s", code, out)
		}
		fanout = append(fanout, time.Since(t0))
		lastOut = out
	}
	rep.FanoutP50MS = percentileMS(fanout, 50)
	rep.FanoutP95MS = percentileMS(fanout, 95)

	// --- serial arm -------------------------------------------------------
	// One target per request, summed: the scripted-loop alternative the
	// fan-out replaces. Same program, same serving path.
	serial := make([]time.Duration, 0, queries)
	for i := 0; i < queries; i++ {
		t0 := time.Now()
		for _, id := range ids {
			body := fmt.Sprintf(fleetQueryBody, fmt.Sprintf(`,"sessions":[%q]`, id))
			if code, out := tenantDo(srv, "POST", "/fleet/query", body); code != 200 {
				return nil, fmt.Errorf("serial query %s: %d %s", id, code, out)
			}
		}
		serial = append(serial, time.Since(t0))
	}
	rep.SerialP50MS = percentileMS(serial, 50)
	if rep.FanoutP50MS > 0 {
		rep.SpeedupX = rep.SerialP50MS / rep.FanoutP50MS
	}

	// --- merge integrity --------------------------------------------------
	var res struct {
		Targets []struct {
			Err string `json:"error"`
		} `json:"targets"`
		Merged []struct {
			Target string `json:"target"`
		} `json:"merged"`
	}
	if err := json.Unmarshal([]byte(lastOut), &res); err != nil {
		return nil, fmt.Errorf("decode fleet result: %w", err)
	}
	rep.MergedRefs = len(res.Merged)
	for _, tr := range res.Targets {
		if tr.Err == "" {
			rep.HealthyTargs++
		}
	}
	for _, r := range res.Merged {
		if r.Target != "" {
			rep.TaggedRefs++
		}
	}
	return rep, nil
}

// FormatFleet renders the report as the console table perfbench prints.
func FormatFleet(rep *FleetReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d targets (%d live, %d core dumps), %d query rounds\n",
		rep.Targets, rep.Live, rep.Core, rep.Queries)
	fmt.Fprintf(&sb, "fan-out     | p50 %8.2f ms  p95 %8.2f ms\n", rep.FanoutP50MS, rep.FanoutP95MS)
	fmt.Fprintf(&sb, "serial loop | p50 %8.2f ms  (%.2fx slower than fan-out)\n", rep.SerialP50MS, rep.SpeedupX)
	fmt.Fprintf(&sb, "merge       | %d refs, %d provenance-tagged, %d/%d targets healthy\n",
		rep.MergedRefs, rep.TaggedRefs, rep.HealthyTargs, rep.Targets)
	return sb.String()
}
