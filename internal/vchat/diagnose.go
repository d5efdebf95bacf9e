// Diagnosis: the second intent path of vchat. Visualization requests are
// synthesized into ViewQL (vchat.go); performance questions — "why is pane
// 3 slow?", "which pane is slowest?", "what changed since the last stop?" —
// are answered from retained observability data: the per-pane trace store,
// the metrics-history ring, and the steady-state bench baseline. Nothing
// here consults /debug/trace; the span trees are already in memory.
package vchat

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"visualinux/internal/obs"
	"visualinux/internal/stream"
)

// Intent routes one vchat message.
type Intent int

const (
	// IntentSynthesize is the classic path: the message describes a
	// visualization change and becomes a ViewQL program.
	IntentSynthesize Intent = iota
	// IntentDiagnosePane asks why a pane is slow.
	IntentDiagnosePane
	// IntentSlowestPane asks which pane is slowest.
	IntentSlowestPane
	// IntentWhatChanged asks what changed since the previous round.
	IntentWhatChanged
	// IntentStreamLag asks why the live stream is lagging.
	IntentStreamLag
	// IntentFleet asks a cross-target question ("which target has the
	// longest runqueue?") answered by fanning out over the session fleet
	// and ranking the per-target results.
	IntentFleet
)

// Classify decides which intent a message carries and extracts a pane
// number when the message names one ("pane 3", "@3"); pane is 0 when the
// message leaves the target implicit.
func Classify(text string) (Intent, int) {
	low := strings.ToLower(text)
	pane := parsePane(low)
	switch {
	// Fleet questions outrank everything: "which fleet member has pane 3
	// slowest?" names a pane and says "slowest", but the subject is the
	// fleet, not this session.
	case strings.Contains(low, "which target") || strings.Contains(low, "which session") ||
		strings.Contains(low, "fleet member") || strings.Contains(low, "across the fleet") ||
		strings.Contains(low, "which fleet"):
		return IntentFleet, pane
	case strings.Contains(low, "what changed") || strings.Contains(low, "what has changed"):
		return IntentWhatChanged, pane
	// Stream questions outrank the generic slow/why check: "why is my
	// stream slow?" is about the push plane, not a pane's extraction.
	case strings.Contains(low, "stream") &&
		(strings.Contains(low, "lag") || strings.Contains(low, "slow") ||
			strings.Contains(low, "behind") || strings.Contains(low, "drop") ||
			strings.Contains(low, "stuck") || strings.Contains(low, "why")):
		return IntentStreamLag, pane
	case strings.Contains(low, "slowest"):
		return IntentSlowestPane, pane
	case strings.Contains(low, "slow") && (strings.Contains(low, "why") || strings.Contains(low, "diagnose")):
		return IntentDiagnosePane, pane
	case strings.HasPrefix(strings.TrimSpace(low), "diagnose"):
		return IntentDiagnosePane, pane
	}
	return IntentSynthesize, pane
}

// parsePane finds "pane N" or "@N" in a lowercased message.
func parsePane(low string) int {
	words := strings.FieldsFunc(low, func(r rune) bool { return r == ' ' || r == '?' || r == ',' })
	for i, w := range words {
		if strings.HasPrefix(w, "@") {
			if n, err := strconv.Atoi(w[1:]); err == nil && n > 0 {
				return n
			}
		}
		if w == "pane" && i+1 < len(words) {
			if n, err := strconv.Atoi(words[i+1]); err == nil && n > 0 {
				return n
			}
		}
	}
	return 0
}

// Observations is the retained data the diagnosis layer answers from. The
// caller (core.Session) supplies the optional steady-state baseline lookup;
// everything else comes from the observer.
type Observations struct {
	Obs *obs.Observer
	// Baseline returns the steady-state duration baseline for a figure in
	// milliseconds (e.g. from BENCH_4.json), ok=false when unknown.
	Baseline func(figure string) (float64, bool)
	// Stream snapshots the serving layer's fan-out broker health; nil when
	// the session is not being served over HTTP.
	Stream func() *stream.Health
}

// Diagnosis is the structured answer to "why is pane N slow?".
type Diagnosis struct {
	Pane    int     `json:"pane"`
	Figure  string  `json:"figure"`
	Round   uint64  `json:"round"`    // trace-store admission sequence
	TotalMS float64 `json:"total_ms"` // the round's span-tree total
	ModelMS float64 `json:"model_ms,omitempty"`

	Suspect      string  `json:"suspect"` // dominant attribution stage
	SuspectShare float64 `json:"suspect_share"`

	Breakdown *obs.StageBreakdown `json:"breakdown"`

	BaselineMS     float64 `json:"baseline_ms,omitempty"`
	BaselineSource string  `json:"baseline_source,omitempty"` // "bench" | "history"
	BaselineRatio  float64 `json:"baseline_ratio,omitempty"`

	// Counters carries supporting counter deltas (between the last two
	// metrics-history points when the ring has them, otherwise absolute
	// totals, marked by BaselineSource-independent "total:" prefix).
	Counters map[string]float64 `json:"counters,omitempty"`
	Rounds   int                `json:"rounds"` // retained rounds for this pane
}

// supportingCounters names the registry series that corroborate each stage.
var supportingCounters = map[string][]string{
	obs.StageLink: {
		"vl_target_link_transactions_total", "vl_target_link_bytes_total",
		"vl_target_link_continuations_total",
	},
	obs.StageRevalidate: {
		"vl_snapshot_revalidations_total", "vl_snapshot_dirty_promotions_total",
		"vl_snapshot_stale_refetches_total", "vl_snapshot_subpage_fills_total",
	},
	obs.StageMemo: {
		"vl_extract_box_reuse_total",
	},
	obs.StageBuild: {
		"vl_extract_box_builds_total", "vl_snapshot_page_misses_total",
	},
}

// Diagnose answers "why is pane N slow?" from the pane's retained span
// trees.
func (v Observations) Diagnose(pane int) (*Diagnosis, error) {
	if v.Obs == nil {
		return nil, fmt.Errorf("diagnose: session has no observer")
	}
	rec, ok := v.Obs.Traces.Last(pane)
	if !ok {
		return nil, fmt.Errorf("diagnose: no retained trace for pane %d (only plotted panes are traced)", pane)
	}
	return v.diagnoseRecord(rec)
}

func (v Observations) diagnoseRecord(rec obs.TraceRecord) (*Diagnosis, error) {
	b := obs.Attribute(rec.Trace)
	if b == nil || b.TotalUS == 0 {
		return nil, fmt.Errorf("diagnose: pane %d trace is empty", rec.Pane)
	}
	dom := b.Dominant()
	d := &Diagnosis{
		Pane: rec.Pane, Figure: rec.Figure, Round: rec.Seq,
		TotalMS:      float64(b.TotalUS) / 1000,
		ModelMS:      float64(b.ModelNS) / 1e6,
		Suspect:      dom.Stage,
		SuspectShare: dom.Share,
		Breakdown:    b,
		Rounds:       v.Obs.Traces.Len(rec.Pane),
	}
	v.fillBaseline(d, rec)
	d.Counters = v.counterDeltas(dom.Stage)
	return d, nil
}

// fillBaseline prefers the committed bench baseline; without one it falls
// back to the median of the pane's earlier retained rounds.
func (v Observations) fillBaseline(d *Diagnosis, rec obs.TraceRecord) {
	if v.Baseline != nil {
		if ms, ok := v.Baseline(rec.Figure); ok && ms > 0 {
			d.BaselineMS, d.BaselineSource = ms, "bench"
			d.BaselineRatio = d.TotalMS / ms
			return
		}
	}
	hist := v.Obs.Traces.History(rec.Pane)
	var prior []float64
	for _, h := range hist {
		if h.Seq != rec.Seq {
			prior = append(prior, h.DurMS)
		}
	}
	if len(prior) == 0 {
		return
	}
	sort.Float64s(prior)
	med := prior[len(prior)/2]
	if med <= 0 {
		return
	}
	d.BaselineMS, d.BaselineSource = med, "history"
	d.BaselineRatio = d.TotalMS / med
}

// counterDeltas pulls the suspect stage's supporting series from the
// metrics-history ring: the delta between the last two snapshots when the
// ring has them, otherwise current absolute totals.
func (v Observations) counterDeltas(stage string) map[string]float64 {
	names := supportingCounters[stage]
	if len(names) == 0 {
		return nil
	}
	out := make(map[string]float64)
	pts := v.Obs.History.Points()
	if len(pts) >= 2 {
		prev, cur := pts[len(pts)-2].Values, pts[len(pts)-1].Values
		for _, n := range names {
			if delta := cur[n] - prev[n]; delta != 0 {
				out[n] = delta
			}
		}
	} else if v.Obs.Registry != nil {
		vals := v.Obs.Registry.Values()
		for _, n := range names {
			if vals[n] != 0 {
				out["total:"+n] = vals[n]
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Slowest answers "which pane is slowest?" by diagnosing every retained
// pane's latest round and picking the largest total.
func (v Observations) Slowest() (*Diagnosis, error) {
	if v.Obs == nil {
		return nil, fmt.Errorf("diagnose: session has no observer")
	}
	var worst *obs.TraceRecord
	for _, pane := range v.Obs.Traces.Panes() {
		rec, ok := v.Obs.Traces.Last(pane)
		if !ok {
			continue
		}
		if worst == nil || rec.DurMS > worst.DurMS {
			r := rec
			worst = &r
		}
	}
	if worst == nil {
		return nil, fmt.Errorf("diagnose: no retained traces yet; vplot first")
	}
	return v.diagnoseRecord(*worst)
}

// ChangeReport answers "what changed since the last stop?" for one pane:
// the latest two retained rounds compared stage by stage.
type ChangeReport struct {
	Pane       int     `json:"pane"`
	Figure     string  `json:"figure"`
	PrevMS     float64 `json:"prev_ms"`
	CurMS      float64 `json:"cur_ms"`
	Prev, Cur  *obs.StageBreakdown
	DeltaMS    float64            `json:"delta_ms"`
	Counters   map[string]float64 `json:"counters,omitempty"`
	MovedStage string             `json:"moved_stage"` // stage with the largest absolute swing
}

// Changes compares a pane's last two retained rounds.
func (v Observations) Changes(pane int) (*ChangeReport, error) {
	if v.Obs == nil {
		return nil, fmt.Errorf("diagnose: session has no observer")
	}
	hist := v.Obs.Traces.History(pane)
	if len(hist) == 0 {
		return nil, fmt.Errorf("diagnose: no retained trace for pane %d", pane)
	}
	if len(hist) < 2 {
		return nil, fmt.Errorf("diagnose: pane %d has only one retained round; run another stop→resume cycle", pane)
	}
	prev, cur := hist[len(hist)-2], hist[len(hist)-1]
	pb, cb := obs.Attribute(prev.Trace), obs.Attribute(cur.Trace)
	rep := &ChangeReport{
		Pane: pane, Figure: cur.Figure,
		PrevMS: float64(pb.TotalUS) / 1000, CurMS: float64(cb.TotalUS) / 1000,
		Prev: pb, Cur: cb,
	}
	rep.DeltaMS = rep.CurMS - rep.PrevMS
	var worstSwing int64 = -1
	for _, stage := range []string{obs.StageLink, obs.StageRevalidate, obs.StageMemo, obs.StageBuild, obs.StageRender, obs.StageOther} {
		swing := cb.Stage(stage).DurUS - pb.Stage(stage).DurUS
		if swing < 0 {
			swing = -swing
		}
		if swing > worstSwing {
			worstSwing, rep.MovedStage = swing, stage
		}
	}
	rep.Counters = v.counterDeltas(rep.MovedStage)
	return rep, nil
}

// --- rendering ----------------------------------------------------------------

// Render formats the diagnosis as the plain text vchat answers with.
func (d *Diagnosis) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pane %d (%s): last round took %s", d.Pane, d.Figure, fmtMS(d.TotalMS))
	if d.ModelMS > 0 {
		fmt.Fprintf(&sb, " (%s modeled link time)", fmtMS(d.ModelMS))
	}
	switch d.BaselineSource {
	case "bench":
		fmt.Fprintf(&sb, " — %.1fx the steady-state bench baseline of %s", d.BaselineRatio, fmtMS(d.BaselineMS))
	case "history":
		fmt.Fprintf(&sb, " — %.1fx the median of its %d retained rounds (%s)", d.BaselineRatio, d.Rounds, fmtMS(d.BaselineMS))
	}
	sb.WriteString(".\n")
	fmt.Fprintf(&sb, "dominant stage: %s (%.0f%% of the round)\n", d.Suspect, d.SuspectShare*100)
	for _, s := range d.Breakdown.Stages {
		fmt.Fprintf(&sb, "  %-10s %9s  %3.0f%%  (%d spans)\n", s.Stage, fmtMS(float64(s.DurUS)/1000), s.Share*100, s.Spans)
	}
	if len(d.Counters) > 0 {
		sb.WriteString("supporting counters: ")
		sb.WriteString(fmtCounters(d.Counters))
		sb.WriteString("\n")
	}
	return sb.String()
}

// Render formats the change report as plain text.
func (r *ChangeReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pane %d (%s): %s -> %s since the previous round (%+.3fms)\n",
		r.Pane, r.Figure, fmtMS(r.PrevMS), fmtMS(r.CurMS), r.DeltaMS)
	fmt.Fprintf(&sb, "largest swing: %s (%+.3fms)\n", r.MovedStage,
		float64(r.Cur.Stage(r.MovedStage).DurUS-r.Prev.Stage(r.MovedStage).DurUS)/1000)
	for _, stage := range []string{obs.StageLink, obs.StageRevalidate, obs.StageMemo, obs.StageBuild, obs.StageRender, obs.StageOther} {
		p, c := r.Prev.Stage(stage), r.Cur.Stage(stage)
		if p.DurUS == 0 && c.DurUS == 0 {
			continue
		}
		fmt.Fprintf(&sb, "  %-10s %9s -> %-9s\n", stage, fmtMS(float64(p.DurUS)/1000), fmtMS(float64(c.DurUS)/1000))
	}
	if len(r.Counters) > 0 {
		sb.WriteString("supporting counters: ")
		sb.WriteString(fmtCounters(r.Counters))
		sb.WriteString("\n")
	}
	return sb.String()
}

func fmtMS(ms float64) string {
	return strconv.FormatFloat(ms, 'f', 3, 64) + "ms"
}

func fmtCounters(c map[string]float64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		v := c[k]
		if strings.HasPrefix(k, "total:") {
			parts = append(parts, fmt.Sprintf("%s=%g", strings.TrimPrefix(k, "total:"), v))
		} else {
			parts = append(parts, fmt.Sprintf("%s %+g", k, v))
		}
	}
	return strings.Join(parts, ", ")
}
