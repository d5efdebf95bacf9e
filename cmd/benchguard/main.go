// Command benchguard is the per-figure regression gate of `make ci`: it
// compares a fresh perfbench run against its committed baseline.
//
// Usage:
//
//	benchguard BASELINE.json CURRENT.json
//
// It reads the per-figure array of perfbench -json / -rspjson (BENCH_1,
// BENCH_3; kgdb_ms) or the rows of perfbench -steadyjson (BENCH_4;
// steady_kgdb_ms). The costs carry a wall-clock component, so a figure
// fails only when it is both over maxRatio× its baseline and over slackMS
// above it; a zero baseline bounds no ratio, so the slack alone decides. A
// figure missing from the current run fails; a new one passes. The other
// reports' bounds are checked by perfbench itself; see
// internal/perf/check.go.
package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

const (
	maxRatio = 1.25 // current/baseline above which a figure may fail
	slackMS  = 50   // regressions no larger than this never fail
)

// cost is one figure's modeled link cost in ms.
type cost struct {
	figure string
	ms     float64
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchguard BASELINE.json CURRENT.json")
		os.Exit(2)
	}
	var files [2][]cost
	for i, path := range os.Args[1:] {
		var err error
		if files[i], err = load(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
			os.Exit(2)
		}
	}
	lines, ok := compare(files[0], files[1])
	for _, l := range lines {
		fmt.Println("benchguard:", l)
	}
	if !ok {
		fmt.Println("benchguard: FAIL")
		os.Exit(1)
	}
	fmt.Println("benchguard: PASS")
}

// compare judges cur against base figure by figure, in cur's order, then
// lists the baseline figures cur lacks. ok is false if any figure failed.
func compare(base, cur []cost) (lines []string, ok bool) {
	baseMS := make(map[string]float64, len(base))
	for _, b := range base {
		baseMS[b.figure] = b.ms
	}
	ok = true
	for _, c := range cur {
		b, found := baseMS[c.figure]
		delete(baseMS, c.figure) // what remains is missing from cur
		if !found {
			lines = append(lines, fmt.Sprintf("%-12s new figure (%.1f ms), no baseline — ok", c.figure, c.ms))
			continue
		}
		ratio := math.Inf(1)
		if b > 0 {
			ratio = c.ms / b
		}
		verdict := "ok"
		if ratio > maxRatio && c.ms-b > slackMS {
			verdict, ok = "REGRESSED", false
		}
		lines = append(lines, fmt.Sprintf("%-12s %s: %.1f ms vs %.1f ms baseline (%.2fx)",
			c.figure, verdict, c.ms, b, ratio))
	}
	for _, b := range base {
		if _, missing := baseMS[b.figure]; missing {
			lines = append(lines, fmt.Sprintf("%-12s MISSING from current run", b.figure))
			ok = false
		}
	}
	return lines, ok
}

// load reads a perfbench per-figure array (kgdb_ms) or a steady-state
// report's rows (steady_kgdb_ms), in file order.
func load(path string) ([]cost, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rows []struct {
		Figure   string  `json:"figure"`
		KGDBMs   float64 `json:"kgdb_ms"`
		SteadyMS float64 `json:"steady_kgdb_ms"`
	}
	steady := json.Unmarshal(blob, &rows) != nil
	if steady {
		rep := struct {
			Rows any `json:"rows"`
		}{&rows}
		if err := json.Unmarshal(blob, &rep); err != nil || len(rows) == 0 {
			return nil, fmt.Errorf("%s: neither a perfbench array nor a steady-state report", path)
		}
	}
	out := make([]cost, len(rows))
	for i, r := range rows {
		out[i] = cost{r.Figure, r.KGDBMs}
		if steady {
			out[i].ms = r.SteadyMS
		}
	}
	return out, nil
}
