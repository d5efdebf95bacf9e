package vchat_test

import (
	"testing"

	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/vchat"
	"visualinux/internal/vclstdlib"
)

// TestGoldenCorpus pins vchat's full output surface across both intent
// paths: synthesis phrases pin the exact ViewQL emitted, and diagnostic
// questions pin the rendered diagnosis text built from a synthetic span
// tree (synthetic so the corpus is wall-clock free and byte-stable).
func TestGoldenCorpus(t *testing.T) {
	t.Run("synthesis", testGoldenSynthesis)
	t.Run("diagnosis", testGoldenDiagnosis)
}

func testGoldenSynthesis(t *testing.T) {
	k := kernelsim.Build(kernelsim.Options{})
	cases := []struct {
		figure string
		phrase string
		want   string
	}{
		{
			// Bare-"and" clause split plus the except/number-list guard,
			// in one request.
			figure: "3-4",
			phrase: "shrink tasks that have no address space and hide the tasks except for pids 1 and 100",
			want: "a1 = SELECT Task FROM * WHERE mm == NULL\n" +
				"UPDATE a1 WITH collapsed: true\n" +
				"a2 = SELECT Task FROM *\n" +
				"a3 = SELECT Task FROM * WHERE pid == 1 OR pid == 100\n" +
				"UPDATE a2 \\ a3 WITH trimmed: true\n",
		},
		{
			// " then " split with anaphora across the boundary.
			figure: "3-4",
			phrase: "find the tasks whose pid is 1, then shrink them",
			want: "a1 = SELECT Task FROM * AS self WHERE pid == 1\n" +
				"UPDATE a1 WITH collapsed: true\n",
		},
		{
			// Conjoined member phrase ("write and receive buffers") must
			// survive the bare-"and" splitter intact.
			figure: "socketconn",
			phrase: "hide sockets whose write and receive buffers are both empty",
			want: "a1 = SELECT sock FROM * WHERE tx_qlen == 0 AND rx_qlen == 0\n" +
				"UPDATE a1 WITH trimmed: true\n",
		},
	}
	for _, tc := range cases {
		fig, ok := vclstdlib.FigureByID(tc.figure)
		if !ok {
			t.Fatalf("no figure %s", tc.figure)
		}
		g := extract(t, k, "fig"+tc.figure, fig.Program)
		got, err := vchat.Synthesize(g, tc.phrase)
		if err != nil {
			t.Errorf("%q: %v", tc.phrase, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q:\ngot:\n%s\nwant:\n%s", tc.phrase, got, tc.want)
		}
	}
}

// goldenTrace is a round shaped like a real incremental extraction, with
// microsecond durations chosen so every share is a round percentage.
func goldenTrace() *obs.SpanExport {
	return &obs.SpanExport{
		Name: "vplot:fig3-6", DurUS: 10000,
		Children: []*obs.SpanExport{
			{Name: "plot:pidhash", DurUS: 9000,
				Children: []*obs.SpanExport{
					{Name: "box:Task", DurUS: 7000,
						Children: []*obs.SpanExport{
							{Name: "snapshot.revalidate", DurUS: 4000,
								Children: []*obs.SpanExport{
									{Name: "target.read", DurUS: 2000, Tags: map[string]string{"model_ns": "1500000"}},
									{Name: "snapshot.subpage", DurUS: 1000},
								}},
							{Name: "memo.verify", DurUS: 2000,
								Children: []*obs.SpanExport{
									{Name: "target.read", DurUS: 500, Tags: map[string]string{"model_ns": "400000"}},
								}},
						}},
					{Name: "container:list", DurUS: 1000},
				}},
			{Name: "render", DurUS: 500},
		},
	}
}

func testGoldenDiagnosis(t *testing.T) {
	o := obs.NewObserver()
	o.Traces.Record(3, "fig3-6", 10, goldenTrace())
	// Two history snapshots bracketing the round, so the diagnosis reports
	// the suspect stage's counter deltas.
	o.BoxBuilds.Add(10)
	o.History.Snapshot(o.Registry)
	o.BoxBuilds.Add(20)
	o.SnapMisses.Add(5)
	o.History.Snapshot(o.Registry)

	v := vchat.Observations{
		Obs:      o,
		Baseline: func(fig string) (float64, bool) { return 2.5, fig == "fig3-6" },
	}
	d, err := v.Diagnose(3)
	if err != nil {
		t.Fatal(err)
	}
	want := "pane 3 (fig3-6): last round took 10.000ms (1.900ms modeled link time) — 4.0x the steady-state bench baseline of 2.500ms.\n" +
		"dominant stage: build (30% of the round)\n" +
		"  build        3.000ms   30%  (3 spans)\n" +
		"  link         2.500ms   25%  (2 spans)\n" +
		"  revalidate   2.000ms   20%  (2 spans)\n" +
		"  memo         1.500ms   15%  (1 spans)\n" +
		"  other        0.500ms    5%  (1 spans)\n" +
		"  render       0.500ms    5%  (1 spans)\n" +
		"supporting counters: vl_extract_box_builds_total +20, vl_snapshot_page_misses_total +5\n"
	got := d.Render()
	if got != want {
		t.Errorf("rendered diagnosis drifted:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
