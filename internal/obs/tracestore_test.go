package obs_test

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"visualinux/internal/obs"
)

func smallTrace(name string) *obs.SpanExport {
	return &obs.SpanExport{Name: name, DurUS: 100}
}

func TestTraceStoreBounds(t *testing.T) {
	ts := obs.NewTraceStore(3)
	for i := 1; i <= 5; i++ {
		ts.Record(1, "fig3-6", float64(i), smallTrace(fmt.Sprintf("round%d", i)))
	}
	if ts.Len(1) != 3 {
		t.Fatalf("Len = %d, want depth bound 3", ts.Len(1))
	}
	hist := ts.History(1)
	if len(hist) != 3 || hist[0].DurMS != 3 || hist[2].DurMS != 5 {
		t.Fatalf("history = %+v, want rounds 3..5 oldest first", hist)
	}
	last, ok := ts.Last(1)
	if !ok || last.DurMS != 5 || last.Trace.Name != "round5" {
		t.Fatalf("last = %+v", last)
	}
	if last.Seq <= hist[0].Seq {
		t.Fatalf("seq not monotonic: last %d vs oldest %d", last.Seq, hist[0].Seq)
	}
}

func TestTraceStoreIsRecencyBasedNotSlowest(t *testing.T) {
	// Unlike the Slowest index, a pane's ring must let a fast round replace
	// visibility of a slow one: "why is pane 1 slow?" is about the latest
	// round, always.
	ts := obs.NewTraceStore(2)
	ts.Record(1, "fig3-6", 500, smallTrace("slow"))
	ts.Record(1, "fig3-6", 1, smallTrace("fast"))
	last, _ := ts.Last(1)
	if last.Trace.Name != "fast" {
		t.Fatalf("last = %q, want the most recent round regardless of duration", last.Trace.Name)
	}
}

func TestTraceStorePanesAndNilSafety(t *testing.T) {
	ts := obs.NewTraceStore(0) // default depth
	ts.Record(3, "fig7-1", 1, smallTrace("a"))
	ts.Record(1, "fig3-6", 1, smallTrace("b"))
	ts.Record(2, "fig4-5", 1, nil) // nil trace ignored
	if got := ts.Panes(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("panes = %v, want [1 3]", got)
	}
	if _, ok := ts.Last(2); ok {
		t.Fatal("nil trace must not be retained")
	}

	var nilStore *obs.TraceStore
	nilStore.Record(1, "x", 1, smallTrace("c"))
	if _, ok := nilStore.Last(1); ok {
		t.Fatal("nil store Last must report false")
	}
	if nilStore.Panes() != nil || nilStore.History(1) != nil || nilStore.Len(1) != 0 {
		t.Fatal("nil store accessors must be empty")
	}
}

func TestTraceStoreConcurrent(t *testing.T) {
	ts := obs.NewTraceStore(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				ts.Record(g%3, "fig", 1, smallTrace("t"))
				ts.Last(g % 3)
				ts.History(g % 3)
				ts.Panes()
				ts.Latest()
				ts.Slowest()
			}
		}(g)
	}
	wg.Wait()
	for _, p := range ts.Panes() {
		if n := ts.Len(p); n != 4 {
			t.Fatalf("pane %d retained %d rounds, want 4", p, n)
		}
	}
}

// TestSlowLogAdmission covers the Slowest index behind /debug/slowlog:
// slowest first, and once full a round must beat the fastest retained
// entry to get in.
func TestSlowLogAdmission(t *testing.T) {
	ts := obs.NewTraceStore(0)
	for i := 0; i < obs.SlowestSize; i++ {
		ts.Record(i+1, "fig", float64(10+i), smallTrace("t")) // 10..25 ms
	}
	ts.Record(100, "fig", 5, smallTrace("t")) // too fast for a full index
	ts.Record(101, "fig", 40, smallTrace("t"))

	got := ts.Slowest()
	if len(got) != obs.SlowestSize {
		t.Fatalf("len = %d, want %d", len(got), obs.SlowestSize)
	}
	if got[0].Pane != 101 || got[0].DurMS != 40 {
		t.Fatalf("slowest = %+v, want pane 101 at 40ms", got[0])
	}
	if got[0].Seq != uint64(obs.SlowestSize+2) {
		t.Fatalf("slowest seq = %d, want admission order %d", got[0].Seq, obs.SlowestSize+2)
	}
	for i := 1; i < len(got); i++ {
		if got[i].DurMS >= got[i-1].DurMS {
			t.Fatalf("entries not slowest first at %d: %+v", i, got)
		}
	}
	for _, e := range got {
		if e.Pane == 1 || e.Pane == 100 {
			t.Fatalf("pane %d should have been evicted or refused: %+v", e.Pane, got)
		}
	}
}

// TestSlowLogHotPaneDoesNotEvictOthers is the regression for the
// diagnosis-breaking bug: pane 1 extracting slowly over and over used to
// fill every slot, evicting pane 2's only retained trace. Retention is one
// slot per pane+figure — a repeat offer upgrades the key's entry in place.
func TestSlowLogHotPaneDoesNotEvictOthers(t *testing.T) {
	ts := obs.NewTraceStore(0)
	p1 := &obs.SpanExport{Name: "vplot:fig3-6"}
	p2 := &obs.SpanExport{Name: "vplot:fig7-1"}

	// Two panes alternate, then pane 1 goes hot: a burst of rounds each
	// slow enough that a per-round admission rule would fill the index.
	ts.Record(1, "fig3-6", 20, p1)
	ts.Record(2, "fig7-1", 15, p2)
	for i := 0; i < 2*obs.SlowestSize; i++ {
		ts.Record(1, "fig3-6", float64(30+i), p1)
	}

	got := ts.Slowest()
	if len(got) != 2 {
		t.Fatalf("len = %d, want one slot per key: %+v", len(got), got)
	}
	if worst := float64(30 + 2*obs.SlowestSize - 1); got[0].Pane != 1 || got[0].DurMS != worst {
		t.Fatalf("hot pane slot = %+v, want its personal worst (%vms)", got[0], worst)
	}
	if got[1].Pane != 2 || got[1].Figure != "fig7-1" {
		t.Fatalf("pane 2's trace was evicted by pane 1's burst: %+v", got)
	}
	if got[1].Trace == nil || got[1].Trace.Name != "vplot:fig7-1" {
		t.Fatalf("pane 2 entry lost its trace: %+v", got[1])
	}
}

// A faster repeat of the same key must not downgrade the retained entry.
func TestSlowLogRepeatFasterRoundIgnored(t *testing.T) {
	ts := obs.NewTraceStore(0)
	ts.Record(1, "fig3-6", 50, smallTrace("slow"))
	ts.Record(1, "fig3-6", 10, smallTrace("fast"))
	got := ts.Slowest()
	if len(got) != 1 || got[0].DurMS != 50 || got[0].Trace.Name != "slow" {
		t.Fatalf("entries = %+v, want the key's worst retained", got)
	}
}

func TestSlowLogKeepsTrace(t *testing.T) {
	tr := obs.NewTracer("root")
	tr.StartSpan("child").End()
	exp := tr.Finish().Export()
	ts := obs.NewTraceStore(0)
	ts.Record(1, "traced", 1000, exp)
	got := ts.Slowest()
	if len(got) != 1 || got[0].Trace == nil || got[0].Trace.Name != "root" {
		t.Fatalf("entries = %+v", got)
	}
	// The index is served as JSON by /debug/slowlog.
	if _, err := json.Marshal(got); err != nil {
		t.Fatal(err)
	}
}

// Fan-out rounds share the per-pane rings under the reserved pane but
// stay out of the extraction indexes: however slow or frequent they are,
// they never show up in Latest or Slowest and never evict an extraction.
func TestTraceStoreFanoutOutsideIndexes(t *testing.T) {
	ts := obs.NewTraceStore(0)
	for i := 0; i < obs.SlowestSize; i++ {
		ts.Record(i+1, "fig", float64(i+1), smallTrace(fmt.Sprintf("pane%d", i+1)))
	}
	before := ts.Slowest()
	for i := 0; i < 3*obs.SlowestSize; i++ {
		ts.Record(obs.FanoutTracePane, "stream.fanout", 1000, smallTrace("stream.round"))
	}

	latest, ok := ts.Latest()
	if !ok || latest.Pane != obs.SlowestSize || latest.Trace.Name != fmt.Sprintf("pane%d", obs.SlowestSize) {
		t.Fatalf("latest = %+v, want the last extraction", latest)
	}
	after := ts.Slowest()
	if len(after) != len(before) {
		t.Fatalf("slowest len %d -> %d across fan-out rounds", len(before), len(after))
	}
	for i := range after {
		if after[i] != before[i] {
			t.Fatalf("slowest[%d] changed across fan-out rounds: %+v -> %+v", i, before[i], after[i])
		}
	}
	if n := ts.Len(obs.FanoutTracePane); n != obs.DefaultTraceStoreDepth {
		t.Fatalf("fan-out ring holds %d rounds, want %d", n, obs.DefaultTraceStoreDepth)
	}

	// A store that has only seen fan-out rounds has no latest extraction.
	fresh := obs.NewTraceStore(0)
	fresh.Record(obs.FanoutTracePane, "stream.fanout", 1, smallTrace("stream.round"))
	if _, ok := fresh.Latest(); ok || len(fresh.Slowest()) != 0 {
		t.Fatal("fan-out round leaked into the extraction indexes")
	}
}
