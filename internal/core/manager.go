package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"visualinux/internal/coredump"
	"visualinux/internal/ctypes"
	"visualinux/internal/kernelsim"
	"visualinux/internal/mem"
	"visualinux/internal/obs"
	"visualinux/internal/vclstdlib"
)

// SessionManager is the multi-tenant fabric from ROADMAP item 1: one
// process hosts many independent debugging sessions, keyed by client-chosen
// IDs, sharing every piece of immutable infrastructure (the ctypes
// registry, the parsed+compiled ViewCL stdlib, the global extraction pool)
// while keeping all mutable state — kernel image, snapshot, memo, pane
// tree, stream broker — strictly per session.
//
// Admission control is capacity-based: a configurable session-count cap, a
// per-session kernel footprint cap, and a total memory budget under which
// least-recently-used sessions are evicted to make room. Idle sessions are
// reaped by TTL, either on demand (every Create sweeps first) or from a
// caller's periodic SweepIdle.
type SessionManager struct {
	opts ManagerOptions

	// Tenants carries the fabric's metrics in the serving process's
	// registry (nil when the manager runs unobserved).
	Tenants *obs.TenantMetrics

	// OnEvict, when set, fires after a session leaves the map — for any
	// reason other than an explicit Delete — while still holding the
	// manager lock. The serving layer uses it to tear down per-session
	// serving state (brokers, caches). Keep it cheap.
	OnEvict func(id string, ms *ManagedSession)

	mu       sync.Mutex
	sessions map[string]*ManagedSession
}

// ManagerOptions bounds the fabric.
type ManagerOptions struct {
	MaxSessions int // session-count admission cap (<= 0: DefaultMaxSessions)
	// MemBudget caps total *owned* bytes across resident sessions: private
	// (CoW-broken) pages in full, shared pages amortized over their holders.
	// With template admission a fleet of identical sessions therefore fits
	// in roughly one kernel image of budget, not N. 0 = unbounded
	// (LRU-evicts to fit).
	MemBudget     uint64
	SessionBudget uint64           // per-session kernel footprint cap; 0 = unbounded (rejects)
	IdleTTL       time.Duration    // evict sessions idle this long; 0 = never
	Now           func() time.Time // injectable clock for TTL tests; nil = time.Now
	// PrivateBuilds admits each session with its own privately built kernel
	// instead of forking the shared template image — the pre-CoW behavior,
	// kept as an escape hatch and as the bench's comparison arm.
	PrivateBuilds bool
}

// DefaultMaxSessions is the default session-count admission cap.
const DefaultMaxSessions = 256

// ManagedSession is one resident tenant: a full single-session pipeline
// (kernel, incremental extractor, workload) plus the bookkeeping the
// manager evicts and reports by.
type ManagedSession struct {
	ID      string
	Session *Session
	// Source records the attach mode. Kernel and Workload are nil for
	// post-mortem (core dump) sessions: there is no simulator to step,
	// only a frozen image to extract from.
	Source    SourceKind
	Kernel    *kernelsim.Kernel
	Extractor *IncrementalExtractor
	Workload  *kernelsim.Workload
	// Mem is the session's memory image — the kernel's for live sessions,
	// the loaded dump's for core sessions. Budget accounting and release
	// go through it so both attach modes are charged the same way.
	Mem *mem.Memory
	// Obs is the session's own observer (registry, trace store):
	// tenants never share mutable observability state, only the bounded
	// session-labeled series the manager exports process-wide.
	Obs     *obs.Observer
	Figures []vclstdlib.Figure
	// MemBytes is the kernel's mapped footprint (the address-space view,
	// fixed at admission). Budget accounting uses OwnedBytes instead, which
	// shrinks as pages are shared and grows as CoW breaks privatize them.
	MemBytes uint64
	Created  time.Time

	lastUsed atomic.Int64 // unix nanos
	rounds   atomic.Int64
	mgr      *SessionManager
}

// SourceKind selects a session's attach mode at admission.
type SourceKind string

const (
	// SourceSim is the default: build (or template-fork) a live simulated
	// kernel and step it under the canned workload.
	SourceSim SourceKind = "sim"
	// SourceCore attaches post-mortem: load a VLCORE01 dump into a
	// read-only target. No workload, no rounds beyond the cold one.
	SourceCore SourceKind = "core"
)

// SessionOptions configures one tenant at admission.
type SessionOptions struct {
	// Source picks the attach mode; empty means SourceSim.
	Source SourceKind
	// Kernel configures the simulated kernel (SourceSim only).
	Kernel kernelsim.Options
	// CoreImage is the raw dump to load (SourceCore only).
	CoreImage []byte
	Figures   []string // stdlib figure IDs; empty = every figure
}

// Sentinel errors the REST layer maps to status codes.
var (
	ErrSessionExists   = errors.New("session already exists")
	ErrTooManySessions = errors.New("session limit reached")
	ErrMemBudget       = errors.New("memory budget exceeded")
	// ErrPostMortem rejects workload steps against a core-dump session:
	// the target is a frozen image, there is nothing to advance.
	ErrPostMortem = errors.New("post-mortem session has no workload")
)

// NewSessionManager creates the fabric. o is the serving process's observer
// for the session-labeled metrics (nil disables them).
func NewSessionManager(opts ManagerOptions, o *obs.Observer) *SessionManager {
	if opts.MaxSessions <= 0 {
		opts.MaxSessions = DefaultMaxSessions
	}
	m := &SessionManager{opts: opts, sessions: make(map[string]*ManagedSession)}
	if o != nil {
		m.Tenants = obs.NewTenantMetrics(o.Registry, 0)
		registerFleetMemMetrics(o, m)
	}
	return m
}

// registerFleetMemMetrics exports the CoW page-store and fleet-residency
// series: how many bytes the fleet really holds (unique), how many it would
// hold without sharing (mapped), and the dedup/CoW counters behind the
// difference.
func registerFleetMemMetrics(o *obs.Observer, m *SessionManager) {
	r := o.Registry
	stats := func() mem.StoreStats { return kernelsim.SharedStore().Stats() }
	r.GaugeFunc("vl_mem_store_unique_bytes", "distinct page bytes resident in the CoW store", func() float64 {
		return float64(stats().UniqueBytes)
	})
	r.GaugeFunc("vl_mem_store_shared_bytes", "page bytes mapped from the CoW store across all memories (sum of refcounts)", func() float64 {
		return float64(stats().SharedBytes)
	})
	r.GaugeFunc("vl_mem_store_dedup_hits_total", "page interns satisfied by an already-resident identical page", func() float64 {
		return float64(stats().DedupHits)
	})
	r.GaugeFunc("vl_mem_store_cow_breaks_total", "shared pages privatized by session writes", func() float64 {
		return float64(stats().CowBreaks)
	})
	r.GaugeFunc("vl_fleet_owned_bytes", "owned (unique-equivalent) bytes across resident sessions", func() float64 {
		return float64(m.TotalMem())
	})
}

func (m *SessionManager) now() time.Time {
	if m.opts.Now != nil {
		return m.opts.Now()
	}
	return time.Now()
}

// resolveFigures maps requested IDs to stdlib figures (all when empty).
func resolveFigures(ids []string) ([]vclstdlib.Figure, error) {
	if len(ids) == 0 {
		return vclstdlib.Figures(), nil
	}
	figs := make([]vclstdlib.Figure, 0, len(ids))
	for _, id := range ids {
		f, ok := vclstdlib.FigureByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown figure %q", id)
		}
		figs = append(figs, f)
	}
	return figs, nil
}

// Create admits a new session: builds its kernel, applies admission
// control, and runs the cold extraction round (through the global pool,
// under the session's fairness key) so the returned session is immediately
// servable. A non-nil error with a non-nil session means the session is
// resident but some figures failed to extract — the serving layer reports
// those as warnings.
func (m *SessionManager) Create(id string, opts SessionOptions) (*ManagedSession, error) {
	if id == "" {
		return nil, errors.New("empty session ID")
	}
	figs, err := resolveFigures(opts.Figures)
	if err != nil {
		return nil, err
	}

	// Image acquisition happens outside the manager lock. The live path
	// forks the shared template image for this config — microseconds, all
	// pages shared copy-on-write; only the first request for a config pays
	// a build (PrivateBuilds keeps the old build-per-session behavior).
	// The core path parses the dump into a fresh private image and binds
	// its symbols against a locally reconstructed type registry, like GDB
	// loading vmlinux for a vmcore. A racing Create of the same ID wastes
	// one fork/build/load and gets ErrSessionExists, which is the correct
	// answer.
	so := obs.NewObserver()
	ms := &ManagedSession{
		ID: id, Obs: so, Figures: figs, Created: m.now(), mgr: m,
	}
	switch opts.Source {
	case "", SourceSim:
		ms.Source = SourceSim
		var k *kernelsim.Kernel
		if m.opts.PrivateBuilds {
			k = kernelsim.Build(opts.Kernel)
		} else {
			k = kernelsim.FromTemplate(opts.Kernel)
		}
		ms.Kernel = k
		ms.Mem = k.Mem
		ms.Extractor = NewIncrementalExtractor(k, k.Target(), figs, so)
		ms.Workload = kernelsim.NewWorkload(k)
	case SourceCore:
		reg := kernelsim.RegisterTypes(ctypes.NewRegistry())
		tgt, err := coredump.Load(bytes.NewReader(opts.CoreImage), reg)
		if err != nil {
			m.reject()
			return nil, err
		}
		ms.Source = SourceCore
		ms.Mem = tgt.Mem
		ms.Extractor = NewIncrementalExtractor(nil, tgt, figs, so)
	default:
		return nil, fmt.Errorf("unknown session source %q", opts.Source)
	}
	_, memBytes := ms.Mem.Footprint()
	if m.opts.SessionBudget > 0 && memBytes > m.opts.SessionBudget {
		m.reject()
		ms.Mem.Release()
		return nil, fmt.Errorf("%w: image footprint %d > per-session budget %d",
			ErrMemBudget, memBytes, m.opts.SessionBudget)
	}
	ms.MemBytes = memBytes
	ms.Session = ms.Extractor.Session
	ms.lastUsed.Store(ms.Created.UnixNano())

	if err := m.admit(ms); err != nil {
		ms.Mem.Release()
		return nil, err
	}

	// Cold round: extract every figure once so panes exist before the first
	// client request. Runs on the pool so N concurrent creates share the
	// worker population fairly with already-running sessions.
	_, xerr := ms.Round()
	return ms, xerr
}

// admit inserts ms under the capacity rules, evicting idle/LRU sessions as
// the rules allow.
func (m *SessionManager) admit(ms *ManagedSession) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.sessions[ms.ID]; ok {
		m.rejectLocked()
		return fmt.Errorf("%w: %q", ErrSessionExists, ms.ID)
	}
	m.sweepIdleLocked()
	// Memory pressure evicts least-recently-used tenants; the session cap
	// does not (every resident session is within TTL and budget — the
	// client asked for more concurrency than the operator provisioned).
	// Owned bytes are dynamic (evicting a sibling shifts its amortized
	// share onto the survivors), so the loop recomputes; each eviction
	// strictly shrinks the fleet's unique bytes, so it terminates.
	if m.opts.MemBudget > 0 {
		for m.totalMemLocked()+ms.OwnedBytes() > m.opts.MemBudget && len(m.sessions) > 0 {
			m.evictLRULocked()
		}
		if total := m.totalMemLocked(); total+ms.OwnedBytes() > m.opts.MemBudget {
			m.rejectLocked()
			return fmt.Errorf("%w: %d + %d owned > budget %d",
				ErrMemBudget, total, ms.OwnedBytes(), m.opts.MemBudget)
		}
	}
	if len(m.sessions) >= m.opts.MaxSessions {
		m.rejectLocked()
		return fmt.Errorf("%w: %d resident", ErrTooManySessions, len(m.sessions))
	}
	m.sessions[ms.ID] = ms
	if m.Tenants != nil {
		m.Tenants.Created.Inc()
		m.publishGaugesLocked()
	}
	return nil
}

// Attach resolves a live session and marks it used (the TTL clock resets).
func (m *SessionManager) Attach(id string) (*ManagedSession, bool) {
	m.mu.Lock()
	ms, ok := m.sessions[id]
	m.mu.Unlock()
	if ok {
		ms.Touch()
	}
	return ms, ok
}

// Touch marks the session used now.
func (ms *ManagedSession) Touch() { ms.lastUsed.Store(ms.mgr.now().UnixNano()) }

// LastUsed reports when the session last served anything.
func (ms *ManagedSession) LastUsed() time.Time { return time.Unix(0, ms.lastUsed.Load()) }

// Rounds reports how many extraction rounds the session has run.
func (ms *ManagedSession) Rounds() int64 { return ms.rounds.Load() }

// Round drives one extraction round — cold the first time, delta after —
// scheduled on the global pool under the session's key, so a tenant
// free-running rounds shares workers fairly with every other tenant. The
// caller (the serving layer) must serialize rounds per session, as it
// already does for single-session stop events.
func (ms *ManagedSession) Round() ([]RoundResult, error) {
	var out []RoundResult
	var err error
	DefaultPool().Run("session:"+ms.ID, 1, 1, func(int) {
		t0 := time.Now()
		out, err = ms.Extractor.Round()
		if ms.mgr != nil && ms.mgr.Tenants != nil {
			ms.mgr.Tenants.ObserveRound(ms.ID, time.Since(t0))
		}
	})
	ms.rounds.Add(1)
	ms.Touch()
	return out, err
}

// StepRound advances the session's canned workload one step, marks the
// stop boundary, and runs the delta round — the managed analogue of the
// single-session free-run loop. Post-mortem sessions refuse: a core image
// is frozen.
func (ms *ManagedSession) StepRound() ([]RoundResult, error) {
	if ms.Workload == nil {
		return nil, fmt.Errorf("%w: %q", ErrPostMortem, ms.ID)
	}
	ms.Workload.Step()
	ms.Extractor.Advance()
	return ms.Round()
}

// Delete removes a session by request. Unlike eviction it does not fire
// OnEvict: the caller tearing the session down is the serving layer itself.
func (m *SessionManager) Delete(id string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.sessions[id]
	if !ok {
		return false
	}
	m.removeLocked(ms)
	if m.Tenants != nil {
		m.Tenants.Deleted.Inc()
		m.publishGaugesLocked()
	}
	return true
}

// SweepIdle evicts every session idle past the TTL and returns their IDs.
// Serving processes call it periodically; Create sweeps implicitly.
func (m *SessionManager) SweepIdle() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := m.sweepIdleLocked()
	if len(ids) > 0 && m.Tenants != nil {
		m.publishGaugesLocked()
	}
	return ids
}

func (m *SessionManager) sweepIdleLocked() []string {
	if m.opts.IdleTTL <= 0 {
		return nil
	}
	cutoff := m.now().Add(-m.opts.IdleTTL).UnixNano()
	var ids []string
	for id, ms := range m.sessions {
		if ms.lastUsed.Load() < cutoff {
			ids = append(ids, id)
		}
	}
	for _, id := range ids {
		m.evictLocked(m.sessions[id])
	}
	return ids
}

// evictLRULocked evicts the least-recently-used session.
func (m *SessionManager) evictLRULocked() {
	var lru *ManagedSession
	for _, ms := range m.sessions {
		if lru == nil || ms.lastUsed.Load() < lru.lastUsed.Load() {
			lru = ms
		}
	}
	if lru != nil {
		m.evictLocked(lru)
	}
}

func (m *SessionManager) evictLocked(ms *ManagedSession) {
	m.removeLocked(ms)
	if m.Tenants != nil {
		m.Tenants.Evicted.Inc()
	}
	if m.OnEvict != nil {
		m.OnEvict(ms.ID, ms)
	}
}

func (m *SessionManager) removeLocked(ms *ManagedSession) {
	delete(m.sessions, ms.ID)
	// Drop the session's CoW store references so its share stops counting
	// against the budget. The memory stays readable: an in-flight round on
	// another goroutine finishes against the still-immutable pages.
	ms.Mem.Release()
	if m.Tenants != nil {
		m.Tenants.Release(ms.ID)
	}
}

func (m *SessionManager) reject() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectLocked()
}

func (m *SessionManager) rejectLocked() {
	if m.Tenants != nil {
		m.Tenants.Rejected.Inc()
	}
}

func (m *SessionManager) publishGaugesLocked() {
	m.Tenants.Active.Set(float64(len(m.sessions)))
	m.Tenants.MemBytes.Set(float64(m.totalMemLocked()))
}

// Len reports the resident session count.
func (m *SessionManager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// totalMemLocked recomputes the fleet's owned bytes: every resident
// session's private pages in full plus its amortized share of each shared
// page. Recomputed rather than cached because shares shift on every fork,
// CoW break, and eviction; the walk is O(resident pages) of atomic loads.
func (m *SessionManager) totalMemLocked() uint64 {
	var total uint64
	for _, ms := range m.sessions {
		total += ms.OwnedBytes()
	}
	return total
}

// TotalMem reports the owned (unique-equivalent) bytes resident across
// sessions — the quantity MemBudget caps. By construction this equals the
// sum over resident sessions of OwnedBytes(); the lifecycle invariant test
// holds the manager to it.
func (m *SessionManager) TotalMem() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalMemLocked()
}

// OwnedBytes reports the session's current owned bytes: CoW-broken private
// pages in full plus an amortized share of every page still shared through
// the store.
func (ms *ManagedSession) OwnedBytes() uint64 { return ms.Mem.OwnedBytes() }

// MemResidency returns the session's private/shared/owned breakdown for the
// debug surface.
func (ms *ManagedSession) MemResidency() mem.Residency { return ms.Mem.Residency() }

// SessionInfo is one tenant's manager-level health row. MemBytes is the
// mapped footprint; the residency triple breaks it down under CoW sharing
// (owned = private + amortized share of shared pages — what the budget
// charges).
type SessionInfo struct {
	ID           string    `json:"id"`
	Source       string    `json:"source"`
	Created      time.Time `json:"created"`
	IdleSeconds  float64   `json:"idle_seconds"`
	MemBytes     uint64    `json:"mem_bytes"`
	OwnedBytes   uint64    `json:"owned_bytes"`
	PrivateBytes uint64    `json:"private_bytes"`
	SharedBytes  uint64    `json:"shared_bytes"`
	Rounds       int64     `json:"rounds"`
	Figures      []string  `json:"figures"`
}

// List snapshots every resident session, sorted by ID.
func (m *SessionManager) List() []SessionInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	out := make([]SessionInfo, 0, len(m.sessions))
	for _, ms := range m.sessions {
		figIDs := make([]string, len(ms.Figures))
		for i, f := range ms.Figures {
			figIDs[i] = f.ID
		}
		res := ms.MemResidency()
		out = append(out, SessionInfo{
			ID:           ms.ID,
			Source:       string(ms.Source),
			Created:      ms.Created,
			IdleSeconds:  now.Sub(ms.LastUsed()).Seconds(),
			MemBytes:     ms.MemBytes,
			OwnedBytes:   res.OwnedBytes,
			PrivateBytes: res.PrivateBytes,
			SharedBytes:  res.SharedBytes,
			Rounds:       ms.Rounds(),
			Figures:      figIDs,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
