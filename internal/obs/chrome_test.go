package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"visualinux/internal/obs"
)

func TestChromeTrace(t *testing.T) {
	tr := obs.NewTracer("vplot:fig")
	sp := tr.StartSpan("box:Task")
	sp.Tag("addr", "0x1000")
	sp.End()
	exp := tr.Finish().Export()

	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, exp, exp); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// Two roots x two spans each.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("events = %d, want 4", len(doc.TraceEvents))
	}
	tids := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("phase = %q, want X", ev.Ph)
		}
		tids[ev.Tid] = true
	}
	if len(tids) != 2 {
		t.Fatalf("tids = %v, want one track per root", tids)
	}
}
