// Tenant personality: the multi-tenant serving experiment behind BENCH_8.
// One server process admits a fleet of sessions through POST /sessions,
// serves pane reads against every tenant, and then pits a victim session
// against a hot neighbor free-running stop events — measuring what the
// session fabric promises: shared immutable infrastructure (zero stdlib
// re-parses/re-compiles after the first admission), bounded per-session
// request latency, and cross-session isolation through the global pool's
// per-session fair scheduling. All latencies are host wall-clock, so the
// guard uses absolute ceilings (like the stream personality), plus exact
// zero-equality on the shared-infrastructure counters, which are
// deterministic.
package perf

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/obs"
	"visualinux/internal/server"
	"visualinux/internal/viewcl"
)

// TenantReport is the BENCH_8 document.
type TenantReport struct {
	Sessions        int `json:"sessions"`
	RequestsPerSess int `json:"requests_per_session"`
	Rounds          int `json:"rounds"`

	// Admission: wall-clock cost of POST /sessions (kernel build + cold
	// extraction round through the shared pool).
	AdmitP50MS float64 `json:"admit_p50_ms"`
	AdmitP95MS float64 `json:"admit_p95_ms"`

	// Serving: every session answers pane reads; the headline is the WORST
	// session's p95 — the guarantee any tenant gets, not the average.
	WorstSessionReqP95MS float64 `json:"worst_session_req_p95_ms"`
	PooledReqP50MS       float64 `json:"pooled_req_p50_ms"`

	// Shared immutable infrastructure: stdlib parses and program lowers
	// that happened during every admission after the first. The fabric's
	// contract is exactly zero — one parse+compile total, however many
	// tenants extract the same figures.
	StdlibReparses   uint64 `json:"stdlib_reparses"`
	StdlibRecompiles uint64 `json:"stdlib_recompiles"`

	// Isolation: the victim session's steady stop-event round, alone vs
	// with a hot neighbor free-running rounds as fast as it can. The ratio
	// is the fairness proof: the global pool's per-session round-robin
	// must bound how much a noisy tenant can inflate a quiet one's round.
	VictimAloneP50MS     float64 `json:"victim_alone_p50_ms"`
	VictimContendedP50MS float64 `json:"victim_contended_p50_ms"`
	IsolationRatio       float64 `json:"isolation_ratio"`
	HotRounds            int64   `json:"hot_rounds"`
}

// tenantFigure keeps fleet admissions cheap and uniform; the isolation
// pair extracts the full stdlib to make rounds meaty enough to contend.
const tenantFigure = "7-1"

// MeasureTenants runs the fleet and isolation phases: 64 sessions, 32
// requests each, 24 victim rounds per arm.
func MeasureTenants() (*TenantReport, error) {
	const sessions, reqs, rounds = 64, 32, 24
	rep := &TenantReport{Sessions: sessions, RequestsPerSess: reqs, Rounds: rounds}

	mgr := core.NewSessionManager(core.ManagerOptions{MaxSessions: sessions + 8}, obs.NewObserver())
	srv := server.NewManaged(mgr, nil)

	// --- fleet phase: admissions -----------------------------------------
	// The first admission may parse+compile the figure's program; every one
	// after it must ride the shared caches.
	if code, body := tenantDo(srv, "POST", "/sessions",
		fmt.Sprintf(`{"id":"t0","procs":1,"figures":[%q]}`, tenantFigure)); code != 201 {
		return nil, fmt.Errorf("warm-up admission: %d %s", code, body)
	}
	_, missesBefore, _ := viewcl.ParseCacheStats()
	compilesBefore := viewcl.CompileCount()

	admits := make([]time.Duration, 0, sessions-1)
	for i := 1; i < sessions; i++ {
		t0 := time.Now()
		code, body := tenantDo(srv, "POST", "/sessions",
			fmt.Sprintf(`{"id":"t%d","procs":1,"figures":[%q]}`, i, tenantFigure))
		if code != 201 {
			return nil, fmt.Errorf("admission t%d: %d %s", i, code, body)
		}
		admits = append(admits, time.Since(t0))
	}
	rep.AdmitP50MS = percentileMS(admits, 50)
	rep.AdmitP95MS = percentileMS(admits, 95)
	_, missesAfter, _ := viewcl.ParseCacheStats()
	rep.StdlibReparses = missesAfter - missesBefore
	rep.StdlibRecompiles = viewcl.CompileCount() - compilesBefore

	// --- fleet phase: serving --------------------------------------------
	// Every tenant answers a read mix (pane body + pane listing); the worst
	// per-session p95 is the headline.
	var pooled []time.Duration
	for i := 0; i < sessions; i++ {
		lats := make([]time.Duration, 0, reqs)
		for j := 0; j < reqs; j++ {
			path := fmt.Sprintf("/sessions/t%d/api/pane?id=1&format=json", i)
			if j%4 == 3 {
				path = fmt.Sprintf("/sessions/t%d/api/panes", i)
			}
			t0 := time.Now()
			if code, body := tenantDo(srv, "GET", path, ""); code != 200 {
				return nil, fmt.Errorf("read %s: %d %s", path, code, body)
			}
			lats = append(lats, time.Since(t0))
		}
		if p := percentileMS(lats, 95); p > rep.WorstSessionReqP95MS {
			rep.WorstSessionReqP95MS = p
		}
		pooled = append(pooled, lats...)
	}
	rep.PooledReqP50MS = percentileMS(pooled, 50)

	// --- isolation phase --------------------------------------------------
	// Victim and hot neighbor extract the full stdlib so rounds are heavy
	// enough to fight over pool workers.
	for _, id := range []string{"victim", "hot"} {
		if code, body := tenantDo(srv, "POST", "/sessions",
			fmt.Sprintf(`{"id":%q,"procs":1}`, id)); code != 201 {
			return nil, fmt.Errorf("admission %s: %d %s", id, code, body)
		}
	}
	victimRound := func() (time.Duration, error) {
		t0 := time.Now()
		if err := srv.StepSession("victim"); err != nil {
			return 0, err
		}
		return time.Since(t0), nil
	}

	alone := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		d, err := victimRound()
		if err != nil {
			return nil, fmt.Errorf("victim alone: %w", err)
		}
		alone = append(alone, d)
	}
	rep.VictimAloneP50MS = percentileMS(alone, 50)

	stop := make(chan struct{})
	hotDone := make(chan struct{})
	var hotRounds atomic.Int64
	go func() {
		defer close(hotDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := srv.StepSession("hot"); err != nil {
				return
			}
			hotRounds.Add(1)
		}
	}()
	contended := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		d, err := victimRound()
		if err != nil {
			close(stop)
			<-hotDone
			return nil, fmt.Errorf("victim contended: %w", err)
		}
		contended = append(contended, d)
	}
	close(stop)
	<-hotDone
	rep.VictimContendedP50MS = percentileMS(contended, 50)
	rep.HotRounds = hotRounds.Load()
	if rep.VictimAloneP50MS > 0 {
		rep.IsolationRatio = rep.VictimContendedP50MS / rep.VictimAloneP50MS
	}
	return rep, nil
}

// tenantDo runs one request through the server's mux without TCP.
func tenantDo(srv *server.Server, method, path, body string) (int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// FormatTenants renders the report as the console table perfbench prints.
func FormatTenants(rep *TenantReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d sessions, %d reads each, %d victim rounds/arm\n",
		rep.Sessions, rep.RequestsPerSess, rep.Rounds)
	fmt.Fprintf(&sb, "admit       | p50 %8.2f ms  p95 %8.2f ms\n", rep.AdmitP50MS, rep.AdmitP95MS)
	fmt.Fprintf(&sb, "serve       | pooled p50 %.3f ms; worst session p95 %.3f ms\n",
		rep.PooledReqP50MS, rep.WorstSessionReqP95MS)
	fmt.Fprintf(&sb, "shared infra| %d stdlib re-parses, %d re-compiles across %d admissions after warm-up\n",
		rep.StdlibReparses, rep.StdlibRecompiles, rep.Sessions-1)
	fmt.Fprintf(&sb, "isolation   | victim p50 %.2f ms alone vs %.2f ms beside hot neighbor (%.2fx, %d hot rounds)\n",
		rep.VictimAloneP50MS, rep.VictimContendedP50MS, rep.IsolationRatio, rep.HotRounds)
	return sb.String()
}
