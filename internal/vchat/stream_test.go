package vchat

import (
	"strings"
	"testing"

	"visualinux/internal/obs"
	"visualinux/internal/stream"
)

func TestClassifyStreamLag(t *testing.T) {
	for _, msg := range []string{
		"why is my stream laggy?",
		"why is the stream slow",
		"the stream is falling behind",
		"is the stream dropping frames?",
		"stream stuck?",
	} {
		if intent, _ := Classify(msg); intent != IntentStreamLag {
			t.Errorf("Classify(%q) = %v, want IntentStreamLag", msg, intent)
		}
	}
	// The stream check must not swallow pane-extraction questions.
	if intent, pane := Classify("why is pane 3 slow?"); intent != IntentDiagnosePane || pane != 3 {
		t.Errorf("pane diagnosis misrouted: %v %d", intent, pane)
	}
	// A plain visualization request mentioning downstream words stays on
	// the synthesize path.
	if intent, _ := Classify("shrink tasks that have no address space"); intent != IntentSynthesize {
		t.Error("synthesize request misrouted")
	}
}

func TestStreamLagReport(t *testing.T) {
	o := obs.NewObserver()
	health := &stream.Health{
		Seq:      120,
		QueueCap: 16,
		Clients: []stream.ClientHealth{
			{ID: 1, Format: "json", FramesSent: 100},
			{ID: 2, Format: "json", FramesSent: 40, FramesDropped: 55, FramesCoalesced: 5,
				QueueDepth: 6, LastSeq: 120, DeliveredSeq: 100, LagFrames: 20, LastLagMS: 80},
		},
	}
	// Retained fan-out rounds give the publisher-side p95.
	for i := 0; i < 10; i++ {
		o.Traces.Record(obs.FanoutTracePane, "stream.fanout", float64(i+1), &obs.SpanExport{Name: "stream.round", DurUS: int64(i+1) * 1000})
	}
	v := Observations{Obs: o, Stream: func() *stream.Health { return health }}
	r, err := v.StreamLag()
	if err != nil {
		t.Fatal(err)
	}
	if r.Clients != 2 || r.Sent != 140 || r.Dropped != 55 || r.Coalesced != 5 {
		t.Fatalf("report totals: %+v", r)
	}
	if len(r.Slow) != 1 || r.Slow[0].ID != 2 {
		t.Fatalf("slow clients: %+v", r.Slow)
	}
	if r.FanoutRounds != 8 { // TraceStore keeps the last 8 per pane
		t.Fatalf("fanout rounds %d, want 8", r.FanoutRounds)
	}
	if r.FanoutP95MS < 9 || r.FanoutP95MS > 10 {
		t.Fatalf("fanout p95 %v", r.FanoutP95MS)
	}
	text := r.Render()
	for _, want := range []string{
		"2 clients", "140 frames sent", "client 2", "20 behind",
		"slow consumer", "latest-wins",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}

	// No clients and no slow clients produce calm verdicts.
	health.Clients = nil
	if r, _ := v.StreamLag(); !strings.Contains(r.Verdict, "no stream clients") {
		t.Fatalf("empty verdict: %q", r.Verdict)
	}
	health.Clients = []stream.ClientHealth{{ID: 1, FramesSent: 10}}
	if r, _ := v.StreamLag(); !strings.Contains(r.Verdict, "keeping up") {
		t.Fatalf("healthy verdict: %q", r.Verdict)
	}

	// Without a serving layer the question gets a pointed error.
	if _, err := (Observations{Obs: o}).StreamLag(); err == nil {
		t.Fatal("expected error without a Stream hook")
	}
}
