// Stream diagnosis: the third intent path of vchat. "Why is my stream
// laggy?" is answered from the fan-out broker's health snapshot (per-client
// queue depth, lag, drop/coalesce counts) joined with the retained fan-out
// round span trees — the same evidence /debug/stream and the TraceStore
// hold, folded into one verdict.
package vchat

import (
	"fmt"
	"sort"
	"strings"

	"visualinux/internal/obs"
	"visualinux/internal/stream"
)

// StreamReport is the structured answer to "why is my stream laggy?".
type StreamReport struct {
	Clients   int    `json:"clients"`
	Seq       uint64 `json:"seq"` // newest broadcast sequence
	Sent      uint64 `json:"frames_sent"`
	Dropped   uint64 `json:"frames_dropped"`
	Coalesced uint64 `json:"frames_coalesced"`

	// Slow lists the clients with a backlog or a coalescing history,
	// worst backlog first.
	Slow []stream.ClientHealth `json:"slow,omitempty"`

	// FanoutP95MS is the p95 wall duration of the retained fan-out rounds
	// (serialize + enqueue, publisher side); FanoutRounds is how many
	// rounds that percentile is over.
	FanoutP95MS  float64 `json:"fanout_p95_ms,omitempty"`
	FanoutRounds int     `json:"fanout_rounds"`

	Verdict string `json:"verdict"`
}

// StreamLag builds the stream diagnosis. The health snapshot comes from
// the serving layer via Observations.Stream.
func (v Observations) StreamLag() (*StreamReport, error) {
	if v.Stream == nil {
		return nil, fmt.Errorf("diagnose: session is not serving a stream (start vlserver)")
	}
	h := v.Stream()
	if h == nil {
		return nil, fmt.Errorf("diagnose: stream broker unavailable")
	}
	r := &StreamReport{Clients: len(h.Clients), Seq: h.Seq}
	for _, c := range h.Clients {
		r.Sent += c.FramesSent
		r.Dropped += c.FramesDropped
		r.Coalesced += c.FramesCoalesced
		if c.QueueDepth > 0 || c.LagFrames > 0 || c.FramesCoalesced > 0 {
			r.Slow = append(r.Slow, c)
		}
	}
	sort.Slice(r.Slow, func(i, j int) bool {
		if r.Slow[i].LagFrames != r.Slow[j].LagFrames {
			return r.Slow[i].LagFrames > r.Slow[j].LagFrames
		}
		return r.Slow[i].FramesDropped > r.Slow[j].FramesDropped
	})
	if v.Obs != nil {
		var durs []float64
		for _, rec := range v.Obs.Traces.History(obs.FanoutTracePane) {
			durs = append(durs, rec.DurMS)
		}
		r.FanoutRounds = len(durs)
		if len(durs) > 0 {
			sort.Float64s(durs)
			r.FanoutP95MS = durs[(len(durs)*95)/100]
		}
	}
	r.Verdict = r.verdict()
	return r, nil
}

// verdict folds the evidence into the one-line answer.
func (r *StreamReport) verdict() string {
	switch {
	case r.Clients == 0:
		return "no stream clients connected — nothing is lagging"
	case len(r.Slow) == 0:
		return fmt.Sprintf("all %d clients are keeping up; the publisher is not the bottleneck", r.Clients)
	default:
		w := r.Slow[0]
		return fmt.Sprintf("client %d is the slow consumer: %d frames behind (queue depth %d, %d dropped / %d coalesced so far) — it is receiving latest-wins snapshots while the other %d clients get every delta",
			w.ID, w.LagFrames, w.QueueDepth, w.FramesDropped, w.FramesCoalesced, r.Clients-1)
	}
}

// Render formats the stream report as the plain text vchat answers with.
func (r *StreamReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stream: %d clients, %d frames sent (%d coalesced, %d dropped as superseded), seq %d.\n",
		r.Clients, r.Sent, r.Coalesced, r.Dropped, r.Seq)
	if r.FanoutRounds > 0 {
		fmt.Fprintf(&sb, "publisher fan-out p95 over %d retained rounds: %s\n", r.FanoutRounds, fmtMS(r.FanoutP95MS))
	}
	for _, c := range r.Slow {
		fmt.Fprintf(&sb, "  client %-3d %-5s %4d behind  depth %-3d  %d dropped  %d coalesced  last lag %s\n",
			c.ID, c.Format, c.LagFrames, c.QueueDepth, c.FramesDropped, c.FramesCoalesced, fmtMS(c.LastLagMS))
	}
	sb.WriteString(r.Verdict)
	sb.WriteString("\n")
	return sb.String()
}
