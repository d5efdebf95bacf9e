// Stream personality: the fan-out latency experiment behind BENCH_7. A
// live server (kernelsim kernel, incremental extractor, stream broker) is
// driven through free-run stop events while broker-level clients consume
// the pane deltas — no HTTP in the loop, so the numbers are pure publish →
// deliver cost, not TCP noise. Each mix pairs fast consumers (drain
// immediately, record push latency) with slow ones (sleep per frame, forced
// into latest-wins coalescing); the headline columns are the worst fast
// client's p95 push latency, the minimum fast delivery ratio, and proof
// that slow consumers actually coalesced instead of stalling the plane.
package perf

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"visualinux/internal/core"
	"visualinux/internal/kernelsim"
	"visualinux/internal/obs"
	"visualinux/internal/server"
	"visualinux/internal/stream"
	"visualinux/internal/vclstdlib"
)

// StreamMixRow is one client mix's measurement.
type StreamMixRow struct {
	Mix    string `json:"mix"` // e.g. "15fast+1slow"
	Fast   int    `json:"fast_clients"`
	Slow   int    `json:"slow_clients"`
	Rounds int    `json:"rounds"`
	Frames uint64 `json:"frames_published"`

	// FastP50PushMS pools every fast delivery; FastP95PushMS is the WORST
	// fast client's p95 — the guarantee a well-behaved consumer gets even
	// while a slow sibling is coalescing.
	FastP50PushMS float64 `json:"fast_p50_push_ms"`
	FastP95PushMS float64 `json:"fast_p95_push_ms"`

	// FastDeliveryRatio is the minimum sent/(sent+dropped) over the fast
	// clients: 1.0 means no fast consumer ever lost a frame to coalescing.
	FastDeliveryRatio float64 `json:"fast_delivery_ratio"`

	SlowCoalesced uint64 `json:"slow_coalesced"`
	SlowDropped   uint64 `json:"slow_dropped"`
}

// StreamReport is the BENCH_7 document. The top-level columns are the
// across-mix worst cases, which is what Check gates on.
type StreamReport struct {
	Rows     []StreamMixRow `json:"rows"`
	QueueCap int            `json:"queue_cap"`
	Rounds   int            `json:"rounds"`

	P95PushMS         float64 `json:"p95_push_ms"`         // worst fast p95 across mixes
	FastDeliveryRatio float64 `json:"fast_delivery_ratio"` // min across mixes
	SlowCoalesced     uint64  `json:"slow_coalesced"`      // total across mixes
}

// streamMixes are the paper-style client populations: all-fast (baseline),
// one straggler among many (the common deployment), and an even split (the
// stress shape).
var streamMixes = []struct{ fast, slow int }{
	{16, 0},
	{15, 1},
	{8, 8},
}

// MeasureStream runs every mix and folds the worst cases into the headline
// columns. rounds <= 0 selects the default (enough stop events that a slow
// consumer must overflow its queue and coalesce).
func MeasureStream(opts kernelsim.Options, rounds int) (*StreamReport, error) {
	if rounds <= 0 {
		rounds = 60
	}
	rep := &StreamReport{Rounds: rounds, QueueCap: stream.DefaultQueueCap, FastDeliveryRatio: 1}
	for _, mix := range streamMixes {
		row, err := runStreamMix(opts, mix.fast, mix.slow, rounds)
		if err != nil {
			return nil, fmt.Errorf("mix %dfast+%dslow: %w", mix.fast, mix.slow, err)
		}
		rep.Rows = append(rep.Rows, row)
		if row.FastP95PushMS > rep.P95PushMS {
			rep.P95PushMS = row.FastP95PushMS
		}
		if row.FastDeliveryRatio < rep.FastDeliveryRatio {
			rep.FastDeliveryRatio = row.FastDeliveryRatio
		}
		rep.SlowCoalesced += row.SlowCoalesced
	}
	return rep, nil
}

// roundInterval paces the free-run stop events. Without it the tight loop
// publishes at microsecond cadence — faster than the scheduler can wake 16
// consumer goroutines — and even fast clients overflow, which measures the
// Go scheduler, not the plane. With ~a dozen panes changing per round the
// queue cap is barely one round deep, so the interval also needs enough
// headroom that a single scheduler hiccup doesn't overflow a fast client;
// 5ms is still far quicker than any real stop cadence.
const roundInterval = 5 * time.Millisecond

// slowFrameDelay is how long a slow consumer sits on each frame — one
// round's worth of frames takes it ~a dozen intervals to clear, so its
// queue must overflow and coalesce.
const slowFrameDelay = 5 * time.Millisecond

// runStreamMix builds a fresh live server, subscribes the mix's clients at
// the broker level, drives `rounds` free-run stop events through
// StreamRound, and reads the verdict out of the broker's health snapshot
// plus the latencies the fast consumers recorded.
func runStreamMix(opts kernelsim.Options, fast, slow, rounds int) (StreamMixRow, error) {
	row := StreamMixRow{
		Mix: fmt.Sprintf("%dfast+%dslow", fast, slow), Fast: fast, Slow: slow, Rounds: rounds,
	}
	k := kernelsim.Build(opts)
	o := obs.NewObserver()
	figs := vclstdlib.Figures()
	x := core.NewIncrementalExtractor(k, k.Target(), figs, o)
	if _, err := x.Round(); err != nil {
		return row, err
	}
	srv := server.New(x.Session)
	b := srv.Broker()

	ctx := context.Background()
	var wg sync.WaitGroup
	fastIDs := make(map[int]bool, fast)
	fastLats := make([][]time.Duration, fast)
	clients := make([]*stream.Client, 0, fast+slow)
	for i := 0; i < fast; i++ {
		c := b.Subscribe("json", nil)
		fastIDs[c.ID] = true
		clients = append(clients, c)
		wg.Add(1)
		go func(i int, c *stream.Client) {
			defer wg.Done()
			var lats []time.Duration
			for {
				f, ok := c.Next(ctx)
				if !ok {
					break
				}
				lats = append(lats, time.Since(f.Published()))
			}
			fastLats[i] = lats // distinct index per goroutine; read after Wait
		}(i, c)
	}
	for i := 0; i < slow; i++ {
		c := b.Subscribe("json", nil)
		clients = append(clients, c)
		wg.Add(1)
		go func(c *stream.Client) {
			defer wg.Done()
			for {
				if _, ok := c.Next(ctx); !ok {
					break
				}
				time.Sleep(slowFrameDelay)
			}
		}(c)
	}

	w := kernelsim.NewWorkload(k)
	for i := 0; i < rounds; i++ {
		if err := srv.StreamRound(func() error {
			w.Step()
			x.Advance()
			_, err := x.Round()
			return err
		}); err != nil {
			return row, err
		}
		time.Sleep(roundInterval)
	}

	// Let the fast consumers drain before reading the health snapshot, so
	// their sent counters cover every enqueued frame.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		settled := true
		for _, c := range b.Health().Clients {
			if fastIDs[c.ID] && c.QueueDepth > 0 {
				settled = false
				break
			}
		}
		if settled {
			break
		}
		time.Sleep(time.Millisecond)
	}
	health := b.Health()
	row.Frames = b.Seq()
	row.FastDeliveryRatio = 1
	for _, c := range health.Clients {
		if fastIDs[c.ID] {
			if total := c.FramesSent + c.FramesDropped; total > 0 {
				if r := float64(c.FramesSent) / float64(total); r < row.FastDeliveryRatio {
					row.FastDeliveryRatio = r
				}
			}
		} else {
			row.SlowCoalesced += c.FramesCoalesced
			row.SlowDropped += c.FramesDropped
		}
	}
	for _, c := range clients {
		b.Unsubscribe(c)
	}
	wg.Wait()

	var pooled []time.Duration
	for _, lats := range fastLats {
		pooled = append(pooled, lats...)
		if p := percentileMS(lats, 95); p > row.FastP95PushMS {
			row.FastP95PushMS = p
		}
	}
	row.FastP50PushMS = percentileMS(pooled, 50)
	return row, nil
}

// percentileMS is the pth percentile of the samples in milliseconds, 0 when
// there are none.
func percentileMS(samples []time.Duration, p int) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return ms(sorted[(len(sorted)*p)/100])
}

// FormatStream renders the report as the console table perfbench prints.
func FormatStream(rep *StreamReport) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s | %10s %10s %9s | %9s %9s | %8s\n",
		"mix", "p50(ms)", "p95(ms)", "delivery", "coalesced", "dropped", "frames")
	for _, r := range rep.Rows {
		fmt.Fprintf(&sb, "%-14s | %10.2f %10.2f %9.4f | %9d %9d | %8d\n",
			r.Mix, r.FastP50PushMS, r.FastP95PushMS, r.FastDeliveryRatio,
			r.SlowCoalesced, r.SlowDropped, r.Frames)
	}
	fmt.Fprintf(&sb, "worst fast p95 %.2f ms; min fast delivery %.4f; %d slow frames coalesced (queue cap %d, %d rounds/mix)\n",
		rep.P95PushMS, rep.FastDeliveryRatio, rep.SlowCoalesced, rep.QueueCap, rep.Rounds)
	return sb.String()
}
