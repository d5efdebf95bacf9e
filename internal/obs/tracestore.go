package obs

import (
	"sort"
	"sync"
)

// DefaultTraceStoreDepth is how many rounds of span trees TraceStore keeps
// per pane. Diagnosis needs the latest round plus enough history to form a
// steady-state baseline and answer "what changed since the last stop".
const DefaultTraceStoreDepth = 8

// SlowestSize bounds the slowest-per-key index: at most this many
// pane+figure keys keep their worst round.
const SlowestSize = 16

// FanoutTracePane is the reserved pane ID stream fan-out round span trees
// are retained under. Real panes are numbered from 1, so fan-out rounds
// share the per-pane rings without colliding with any extraction; they are
// kept out of the Latest and Slowest indexes, which describe extractions.
const FanoutTracePane = -1

// TraceRecord is one retained extraction round for a pane: the full span
// tree plus enough identity to answer questions about it without touching
// /debug/trace.
type TraceRecord struct {
	Pane   int         `json:"pane"`
	Figure string      `json:"figure"` // extraction name, e.g. "fig3-6"
	Seq    uint64      `json:"seq"`    // store-wide admission order
	DurMS  float64     `json:"dur_ms"` // whole-round wall duration
	Trace  *SpanExport `json:"trace,omitempty"`
}

// TraceStore is the one place span trees are kept after a round finishes.
// It indexes every recorded round three ways:
//
//   - per pane, the last N rounds (recency): "why is pane 3 slow?" always
//     finds pane 3's latest tree, however fast it was;
//   - Latest, the most recent extraction of any pane;
//   - Slowest, the worst round of each pane+figure key, slowest first and
//     bounded by SlowestSize: once full, a round must beat the fastest
//     retained entry to get in, and a hot pane's burst of slow rounds
//     upgrades its own slot instead of evicting every other pane's trace.
//
// Safe for concurrent writers and readers; nil-safe like the rest of obs.
type TraceStore struct {
	mu      sync.Mutex
	depth   int
	seq     uint64
	byID    map[int][]TraceRecord // oldest first, len <= depth
	latest  TraceRecord           // Seq == 0 until the first extraction
	slowest []TraceRecord         // DurMS descending; at most one per pane+figure
}

// NewTraceStore creates a store keeping the last depth rounds per pane
// (depth <= 0 falls back to DefaultTraceStoreDepth).
func NewTraceStore(depth int) *TraceStore {
	if depth <= 0 {
		depth = DefaultTraceStoreDepth
	}
	return &TraceStore{depth: depth, byID: make(map[int][]TraceRecord)}
}

// Record retains one round for a pane, evicting the pane's oldest round
// beyond the depth bound and offering extraction rounds to the Latest and
// Slowest indexes. A nil trace is ignored.
func (ts *TraceStore) Record(pane int, figure string, durMS float64, trace *SpanExport) {
	if ts == nil || trace == nil {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.seq++
	rec := TraceRecord{Pane: pane, Figure: figure, Seq: ts.seq, DurMS: durMS, Trace: trace}
	recs := append(ts.byID[pane], rec)
	if len(recs) > ts.depth {
		recs = append(recs[:0], recs[len(recs)-ts.depth:]...)
	}
	ts.byID[pane] = recs
	if pane == FanoutTracePane {
		return
	}
	ts.latest = rec
	ts.offerSlowest(rec)
}

// offerSlowest applies the slowest-per-key admission rule. ts.mu is held.
func (ts *TraceStore) offerSlowest(rec TraceRecord) {
	// One slot per key: a repeat offer either upgrades the key's retained
	// entry (new personal worst) or is dropped outright.
	for i, e := range ts.slowest {
		if e.Pane != rec.Pane || e.Figure != rec.Figure {
			continue
		}
		if rec.DurMS <= e.DurMS {
			return
		}
		ts.slowest = append(ts.slowest[:i], ts.slowest[i+1:]...)
		break
	}
	n := len(ts.slowest)
	if n >= SlowestSize && rec.DurMS <= ts.slowest[n-1].DurMS {
		return
	}
	i := sort.Search(n, func(i int) bool { return ts.slowest[i].DurMS < rec.DurMS })
	ts.slowest = append(ts.slowest, TraceRecord{})
	copy(ts.slowest[i+1:], ts.slowest[i:])
	ts.slowest[i] = rec
	if len(ts.slowest) > SlowestSize {
		ts.slowest = ts.slowest[:SlowestSize]
	}
}

// Latest returns the most recent extraction round of any pane.
func (ts *TraceStore) Latest() (TraceRecord, bool) {
	if ts == nil {
		return TraceRecord{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.latest, ts.latest.Seq != 0
}

// Slowest returns the retained worst round of each pane+figure key,
// slowest first.
func (ts *TraceStore) Slowest() []TraceRecord {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceRecord, len(ts.slowest))
	copy(out, ts.slowest)
	return out
}

// Last returns a pane's most recent round.
func (ts *TraceStore) Last(pane int) (TraceRecord, bool) {
	if ts == nil {
		return TraceRecord{}, false
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	recs := ts.byID[pane]
	if len(recs) == 0 {
		return TraceRecord{}, false
	}
	return recs[len(recs)-1], true
}

// History returns a pane's retained rounds, oldest first.
func (ts *TraceStore) History(pane int) []TraceRecord {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceRecord, len(ts.byID[pane]))
	copy(out, ts.byID[pane])
	return out
}

// Panes lists every pane with at least one retained round, ascending.
func (ts *TraceStore) Panes() []int {
	if ts == nil {
		return nil
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]int, 0, len(ts.byID))
	for id := range ts.byID {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Len reports how many rounds are retained for a pane.
func (ts *TraceStore) Len(pane int) int {
	if ts == nil {
		return 0
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return len(ts.byID[pane])
}
