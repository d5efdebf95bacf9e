package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	cases := []struct {
		name      string
		base, cur []cost
		ok        bool
	}{
		{"unchanged", []cost{{"7-1", 100}}, []cost{{"7-1", 100}}, true},
		{"at both limits", []cost{{"7-1", 200}}, []cost{{"7-1", 250}}, true},
		{"past both limits", []cost{{"7-1", 200}}, []cost{{"7-1", 250.001}}, false},
		{"ratio only", []cost{{"7-1", 10}}, []cost{{"7-1", 59}}, true},
		{"slack only", []cost{{"7-1", 1000}}, []cost{{"7-1", 1100}}, true},
		{"zero baseline within slack", []cost{{"7-1", 0}}, []cost{{"7-1", 50}}, true},
		{"zero baseline past slack", []cost{{"7-1", 0}}, []cost{{"7-1", 50.1}}, false},
		{"zero baseline and current", []cost{{"7-1", 0}}, []cost{{"7-1", 0}}, true},
		{"missing figure", []cost{{"7-1", 1}, {"3-4", 1}}, []cost{{"7-1", 1}}, false},
		{"new figure", []cost{{"7-1", 1}}, []cost{{"7-1", 1}, {"3-4", 500}}, true},
	}
	for _, tc := range cases {
		lines, ok := compare(tc.base, tc.cur)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v\n%s", tc.name, ok, tc.ok, strings.Join(lines, "\n"))
		}
	}
}

// TestCompareOrder: lines follow the current file's order, then the
// baseline figures it lacks, so the output is the same on every run.
func TestCompareOrder(t *testing.T) {
	base := []cost{{"a", 1}, {"gone1", 1}, {"b", 1}, {"gone2", 1}}
	cur := []cost{{"c", 1}, {"b", 1}, {"a", 1}}
	lines, _ := compare(base, cur)
	var got []string
	for _, l := range lines {
		got = append(got, strings.Fields(l)[0])
	}
	if want := "c b a gone1 gone2"; strings.Join(got, " ") != want {
		t.Fatalf("order = %v, want %s", got, want)
	}
}

// TestLoadCommitted reads both file shapes from the committed baselines and
// checks each passes against itself.
func TestLoadCommitted(t *testing.T) {
	for _, path := range []string{"../../BENCH_1.json", "../../BENCH_3.json", "../../BENCH_4.json"} {
		costs, err := load(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(costs) < 20 {
			t.Errorf("%s: %d figures, want >= 20", path, len(costs))
		}
		if lines, ok := compare(costs, costs); !ok {
			t.Errorf("%s against itself failed:\n%s", path, strings.Join(lines, "\n"))
		}
	}
	steady, _ := load("../../BENCH_4.json")
	if last := steady[len(steady)-1]; last.figure != "_total" || last.ms != 11.024 {
		t.Errorf("BENCH_4.json last row = %+v, want the _total steady_kgdb_ms 11.024", last)
	}
	if _, err := load("../../BENCH_8.json"); err == nil {
		t.Error("BENCH_8.json loaded as a per-figure file")
	}
}
