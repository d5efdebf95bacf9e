// Fleet-memory personality: the CoW experiment behind BENCH_9. Two arms
// admit the same fleet through POST /sessions — one forking the shared
// template image (the default), one building every kernel privately
// (PrivateBuilds) — and the report pins the tentpole claims: fork admission
// is no slower than build admission (it should be orders faster), the
// fleet's resident unique bytes sit a dedup ratio below the sum of
// per-session footprints, serving latency stays bounded, and workload
// divergence is charged per broken page, not per session image. Wall-clock
// numbers guard with absolute ceilings; the byte accounting is
// deterministic and guards with an exact floor.
package perf

import (
	"fmt"
	"strings"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/server"
)

// FleetMemReport is the BENCH_9 document.
type FleetMemReport struct {
	Sessions        int `json:"sessions"`
	RequestsPerSess int `json:"requests_per_session"`

	// Admission, fork arm (template CoW clone) vs build arm (private
	// kernel image per session). Both arms exclude their first admission:
	// the fork arm's warm-up pays the one-time template build, the build
	// arm's pays cache warming, so the steady-state costs compare.
	ForkAdmitP50MS  float64 `json:"fork_admit_p50_ms"`
	ForkAdmitP95MS  float64 `json:"fork_admit_p95_ms"`
	BuildAdmitP50MS float64 `json:"build_admit_p50_ms"`
	BuildAdmitP95MS float64 `json:"build_admit_p95_ms"`

	// Serving across the forked fleet: worst per-session p95 — CoW-backed
	// reads must not cost tenants their latency bound.
	WorstSessionReqP95MS float64 `json:"worst_session_req_p95_ms"`

	// The dedup headline. PrivateSumBytes is what the fleet would occupy
	// with per-session images (the sum of every session's mapped
	// footprint); ResidentUniqueBytes is what it actually occupies (every
	// session's owned bytes plus the template images they amortize over).
	PrivateSumBytes     uint64  `json:"private_sum_bytes"`
	ResidentUniqueBytes uint64  `json:"resident_unique_bytes"`
	DedupRatio          float64 `json:"dedup_ratio"`

	// CoW mechanics observed during the run (store-level deltas).
	DedupHits     uint64 `json:"dedup_hits"`
	CowBreaks     uint64 `json:"cow_breaks"`
	TemplateForks uint64 `json:"template_forks"`
	ZeroCopyFills uint64 `json:"zero_copy_fills"`

	// Divergence accounting: bytes privatized by running the workload on a
	// slice of the fleet — must be pages, not images.
	DivergedSessions     int    `json:"diverged_sessions"`
	DivergedPrivateBytes uint64 `json:"diverged_private_bytes"`
	PerSessionImageBytes uint64 `json:"per_session_image_bytes"`
}

// fleetFigure matches the tenant personality: admissions stay cheap and
// uniform so the arms measure admission cost, not extraction breadth.
const fleetFigure = "7-1"

// MeasureFleetMem runs both admission arms and the serving/divergence
// phases. sessions and reqs <= 0 select the defaults (64 sessions, 16
// requests each).
func MeasureFleetMem(sessions, reqs int) (*FleetMemReport, error) {
	if sessions <= 0 {
		sessions = 64
	}
	if reqs <= 0 {
		reqs = 16
	}
	rep := &FleetMemReport{Sessions: sessions, RequestsPerSess: reqs}

	stBefore := kernelsim.SharedStore().Stats()
	_, forksBefore := kernelsim.TemplateStats()

	// --- build arm: private image per session ----------------------------
	// Runs first so its sessions are torn down before the fork arm's byte
	// accounting; its manager never touches the shared store.
	bmgr := core.NewSessionManager(core.ManagerOptions{
		MaxSessions: sessions + 8, PrivateBuilds: true}, obs.NewObserver())
	bsrv := server.NewManaged(bmgr, nil)
	buildAdmits, err := admitFleet(bsrv, sessions)
	if err != nil {
		return nil, fmt.Errorf("build arm: %w", err)
	}
	rep.BuildAdmitP50MS = percentileMS(buildAdmits, 50)
	rep.BuildAdmitP95MS = percentileMS(buildAdmits, 95)
	for i := 0; i < sessions; i++ {
		bmgr.Delete(fmt.Sprintf("t%d", i))
	}

	// --- fork arm: template CoW clones -----------------------------------
	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: sessions + 8}, obs.NewObserver())
	srv := server.NewManaged(mgr, nil)
	forkAdmits, err := admitFleet(srv, sessions)
	if err != nil {
		return nil, fmt.Errorf("fork arm: %w", err)
	}
	rep.ForkAdmitP50MS = percentileMS(forkAdmits, 50)
	rep.ForkAdmitP95MS = percentileMS(forkAdmits, 95)

	// --- serving phase ----------------------------------------------------
	for i := 0; i < sessions; i++ {
		lats := make([]time.Duration, 0, reqs)
		for j := 0; j < reqs; j++ {
			path := fmt.Sprintf("/sessions/t%d/api/pane?id=1&format=json", i)
			t0 := time.Now()
			if code, body := tenantDo(srv, "GET", path, ""); code != 200 {
				return nil, fmt.Errorf("read %s: %d %s", path, code, body)
			}
			lats = append(lats, time.Since(t0))
		}
		if p := percentileMS(lats, 95); p > rep.WorstSessionReqP95MS {
			rep.WorstSessionReqP95MS = p
		}
	}

	// --- divergence phase -------------------------------------------------
	// A quarter of the fleet runs its workload; each diverged session is
	// charged only its CoW-broken pages.
	rep.DivergedSessions = sessions / 4
	for i := 0; i < rep.DivergedSessions; i++ {
		if err := srv.StepSession(fmt.Sprintf("t%d", i)); err != nil {
			return nil, fmt.Errorf("diverge t%d: %w", i, err)
		}
	}

	// --- byte accounting --------------------------------------------------
	for _, info := range mgr.List() {
		rep.PrivateSumBytes += info.MemBytes
		if info.PrivateBytes > 0 {
			rep.DivergedPrivateBytes += info.PrivateBytes
		}
		if rep.PerSessionImageBytes == 0 {
			rep.PerSessionImageBytes = info.MemBytes
		}
		if ms, ok := mgr.Attach(info.ID); ok {
			rep.ZeroCopyFills += ms.Extractor.Snapshot().ZeroCopyFills()
		}
	}
	rep.ResidentUniqueBytes = mgr.TotalMem() + kernelsim.TemplatesResidency()
	if rep.ResidentUniqueBytes > 0 {
		rep.DedupRatio = float64(rep.PrivateSumBytes) / float64(rep.ResidentUniqueBytes)
	}

	stAfter := kernelsim.SharedStore().Stats()
	_, forksAfter := kernelsim.TemplateStats()
	rep.DedupHits = stAfter.DedupHits - stBefore.DedupHits
	rep.CowBreaks = stAfter.CowBreaks - stBefore.CowBreaks
	rep.TemplateForks = forksAfter - forksBefore
	return rep, nil
}

// admitFleet posts sessions t0..t{n-1} and returns the admission latencies
// of everything after the warm-up t0.
func admitFleet(srv *server.Server, sessions int) ([]time.Duration, error) {
	if code, body := tenantDo(srv, "POST", "/sessions",
		fmt.Sprintf(`{"id":"t0","procs":1,"figures":[%q]}`, fleetFigure)); code != 201 {
		return nil, fmt.Errorf("warm-up admission: %d %s", code, body)
	}
	admits := make([]time.Duration, 0, sessions-1)
	for i := 1; i < sessions; i++ {
		t0 := time.Now()
		code, body := tenantDo(srv, "POST", "/sessions",
			fmt.Sprintf(`{"id":"t%d","procs":1,"figures":[%q]}`, i, fleetFigure))
		if code != 201 {
			return nil, fmt.Errorf("admission t%d: %d %s", i, code, body)
		}
		admits = append(admits, time.Since(t0))
	}
	return admits, nil
}

// FormatFleetMem renders the report as the console table perfbench prints.
func FormatFleetMem(rep *FleetMemReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d sessions, %d reads each\n", rep.Sessions, rep.RequestsPerSess)
	fmt.Fprintf(&sb, "admit (fork) | p50 %8.3f ms  p95 %8.3f ms\n", rep.ForkAdmitP50MS, rep.ForkAdmitP95MS)
	fmt.Fprintf(&sb, "admit (build)| p50 %8.3f ms  p95 %8.3f ms\n", rep.BuildAdmitP50MS, rep.BuildAdmitP95MS)
	fmt.Fprintf(&sb, "serve        | worst session p95 %.3f ms\n", rep.WorstSessionReqP95MS)
	fmt.Fprintf(&sb, "residency    | %d KiB private-sum vs %d KiB unique resident (%.1fx dedup)\n",
		rep.PrivateSumBytes/1024, rep.ResidentUniqueBytes/1024, rep.DedupRatio)
	fmt.Fprintf(&sb, "cow          | %d dedup hits, %d breaks, %d forks, %d zero-copy fills\n",
		rep.DedupHits, rep.CowBreaks, rep.TemplateForks, rep.ZeroCopyFills)
	fmt.Fprintf(&sb, "divergence   | %d sessions privatized %d KiB total (image is %d KiB)\n",
		rep.DivergedSessions, rep.DivergedPrivateBytes/1024, rep.PerSessionImageBytes/1024)
	return sb.String()
}
