package main

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"

	"crn/internal/telemetry"
)

// The -watch dashboard: poll a crnserve /metrics endpoint, parse the
// Prometheus text exposition with the telemetry package's own reader, and
// render one compact frame per tick — QPS and outcome mix, per-request SQL
// parse time and per-stage latency quantiles, statement-cache, rep-cache,
// estimate-memo and index hit rates, breaker state, and the live per-arm q-error
// distributions. Rates and stage quantiles are windowed between consecutive
// polls (the first frame shows cumulative values); q-error is cumulative,
// since feedback joins arrive sparsely.

// watchStages is the render order of the stage breakdown.
var watchStages = []string{
	telemetry.StageAdmission,
	telemetry.StageCoalesceWait,
	telemetry.StageCacheLookup,
	telemetry.StageCandidateSelection,
	telemetry.StageNNForward,
	telemetry.StageFinalize,
}

// watchLoop polls url every interval and writes one frame per poll to out;
// iterations <= 0 loops forever.
func watchLoop(url string, interval time.Duration, iterations int, out io.Writer) error {
	client := &http.Client{Timeout: 10 * time.Second}
	var prev map[string]*telemetry.ParsedFamily
	var prevAt time.Time
	for i := 0; iterations <= 0 || i < iterations; i++ {
		if i > 0 {
			time.Sleep(interval)
		}
		fams, err := fetchMetrics(client, url)
		if err != nil {
			return err
		}
		now := time.Now()
		fmt.Fprint(out, renderFrame(fams, prev, now.Sub(prevAt)))
		prev, prevAt = fams, now
	}
	return nil
}

func fetchMetrics(client *http.Client, url string) (map[string]*telemetry.ParsedFamily, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return telemetry.ParseText(resp.Body)
}

// sampleOr returns the value of name{key=value} or 0.
func sampleOr(fams map[string]*telemetry.ParsedFamily, name, key, value string) float64 {
	v, _ := fams[name].Sample(key, value)
	return v
}

// counterDelta returns the windowed (or, without prev, cumulative) value
// of name{key=value}.
func counterDelta(cur, prev map[string]*telemetry.ParsedFamily, name, key, value string) float64 {
	d := sampleOr(cur, name, key, value)
	if prev != nil {
		d -= sampleOr(prev, name, key, value)
	}
	if d < 0 {
		d = 0 // counter reset (server restart): show the new epoch
	}
	return d
}

// windowHist returns the stage/latency histogram for the current window.
func windowHist(cur, prev map[string]*telemetry.ParsedFamily, name, key, value string) *telemetry.ParsedHist {
	h := cur[name].Hist(key, value)
	if h == nil {
		return nil
	}
	if p := prev[name].Hist(key, value); p != nil {
		return h.Sub(p)
	}
	return h
}

// rate renders hits/(hits+misses) as a percentage, "-" when idle.
func rate(hit, miss float64) string {
	if hit+miss == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", hit/(hit+miss)*100)
}

func breakerName(state float64) string {
	switch state {
	case 1:
		return "OPEN"
	case 2:
		return "half-open"
	default:
		return "closed"
	}
}

// renderFrame formats one dashboard frame from the current parse and the
// previous one (nil on the first poll; elapsed is then ignored).
func renderFrame(cur, prev map[string]*telemetry.ParsedFamily, elapsed time.Duration) string {
	var b strings.Builder
	const reqFam = "crn_estimate_requests_total"

	var total float64
	outcomes := map[string]float64{}
	if f := cur[reqFam]; f != nil {
		for _, s := range f.Samples {
			d := counterDelta(cur, prev, reqFam, "outcome", s.Labels["outcome"])
			outcomes[s.Labels["outcome"]] = d
			total += d
		}
	}
	window := "cumulative"
	qps := "-"
	if prev != nil && elapsed > 0 {
		window = elapsed.Round(time.Millisecond).String() + " window"
		qps = fmt.Sprintf("%.1f", total/elapsed.Seconds())
	}
	up := sampleOr(cur, "crn_process_uptime_seconds", "", "")
	fmt.Fprintf(&b, "crn %s  up %s  qps %s  breaker %s  (%s)\n",
		time.Now().Format("15:04:05"),
		(time.Duration(up) * time.Second).String(),
		qps,
		breakerName(sampleOr(cur, "crn_breaker_state", "", "")),
		window)

	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b.WriteString("  requests ")
	for _, k := range keys {
		fmt.Fprintf(&b, " %s %.0f", k, outcomes[k])
	}
	b.WriteByte('\n')

	b.WriteString("  stages µs")
	if h := windowHist(cur, prev, "crn_parse_duration_seconds", "", ""); h != nil && h.Count > 0 {
		// Per request, ahead of the estimator's own spans: a batch parses all
		// its queries in one observation.
		fmt.Fprintf(&b, "  parse p50 %.1f p99 %.1f", h.Quantile(0.50)*1e6, h.Quantile(0.99)*1e6)
	}
	for _, stage := range watchStages {
		h := windowHist(cur, prev, "crn_estimate_stage_duration_seconds", "stage", stage)
		if h == nil || h.Count == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %s p50 %.1f p99 %.1f", stage,
			h.Quantile(0.50)*1e6, h.Quantile(0.99)*1e6)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "  cache stmt %s hit  rep %s hit  memo %s hit (%.0f probes)  index %s indexed  coalesce %s avg batch\n",
		rate(counterDelta(cur, prev, "crn_stmtcache_lookups_total", "result", "hit"),
			counterDelta(cur, prev, "crn_stmtcache_lookups_total", "result", "miss")),
		rate(counterDelta(cur, prev, "crn_repcache_lookups_total", "result", "hit"),
			counterDelta(cur, prev, "crn_repcache_lookups_total", "result", "miss")),
		rate(counterDelta(cur, prev, "crn_estimate_memo_lookups_total", "result", "hit"),
			counterDelta(cur, prev, "crn_estimate_memo_lookups_total", "result", "miss")),
		sampleOr(cur, "crn_estimate_memo_entries", "", ""),
		rate(counterDelta(cur, prev, "crn_pool_selections_total", "path", "indexed"),
			counterDelta(cur, prev, "crn_pool_selections_total", "path", "fallback")),
		avgBatch(cur, prev))

	b.WriteString("  qerror  ")
	for _, arm := range []string{"crn", "fallback"} {
		h := cur["crn_accuracy_qerror"].Hist("arm", arm)
		if h == nil || h.Count == 0 {
			fmt.Fprintf(&b, " %s -", arm)
			continue
		}
		fmt.Fprintf(&b, " %s p50 %.2f p95 %.2f (n=%d)", arm,
			h.Quantile(0.50), h.Quantile(0.95), h.Count)
	}
	b.WriteString("\n\n")
	return b.String()
}

// avgBatch renders the mean coalesced batch size over the window, "-"
// when no batch ran.
func avgBatch(cur, prev map[string]*telemetry.ParsedFamily) string {
	h := windowHist(cur, prev, "crn_coalesce_batch_size", "", "")
	if h == nil || h.Count == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", h.Sum/float64(h.Count))
}
