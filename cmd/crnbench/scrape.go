package main

import (
	"fmt"

	"crn/internal/telemetry"
)

// This file turns two scrapes of a server — taken immediately before and
// after the measured window (or warm-up) — into the per-layer metrics that
// are deltas of the server's own counters.

// scrapeSet is one coherent read of everything the server exposes.
type scrapeSet struct {
	fam families
	ms  memStats
	h   health
}

func scrape(s *server) (scrapeSet, error) {
	var set scrapeSet
	var err error
	if set.fam, err = s.metrics(); err != nil {
		return set, err
	}
	if set.ms, err = s.memStats(); err != nil {
		return set, err
	}
	set.h, err = s.health()
	return set, err
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// sumLabels adds one counter family's delta over the given label values.
func sumLabels(before, after families, name, key string, vals ...string) float64 {
	var sum float64
	for _, v := range vals {
		sum += delta(before, after, name, key, v)
	}
	return sum
}

// scrapeMetrics fills the scrape-based per-layer lines of a run.
func scrapeMetrics(res *runResult, w workloadSpec, before, after scrapeSet, ws *windowSample, warm warmStats, seconds float64) {
	b, a := before.fam, after.fam
	set := func(name string, v float64) { res.Layer[name] = single(v) }

	queries := 0
	for _, n := range ws.queries {
		queries += n
	}
	q := float64(queries)

	// crnserve: allocation and GC cost per estimated query, from MemStats.
	set("crnserve.allocs_per_query", ratio(float64(after.ms.Mallocs-before.ms.Mallocs), q))
	set("crnserve.alloc_bytes_per_query", ratio(float64(after.ms.TotalAlloc-before.ms.TotalAlloc), q))
	set("crnserve.gc_cycles_per_s", ratio(float64(after.ms.NumGC-before.ms.NumGC), seconds))
	set("crnserve.gc_pause_ms", after.ms.pauseMsSince(before.ms))

	// The server's own mean estimate duration over the window: the ledger
	// subtracts it from the socket's p50 to get the HTTP overhead.
	hist := "crn_estimate_duration_seconds"
	if w.Name == wlBatchScan {
		hist = "crn_estimate_batch_duration_seconds"
	}
	if h := histDelta(b, a, hist, "", ""); h.Count > 0 {
		res.serverMeanUs = h.Sum / float64(h.Count) * 1e6
	}

	set("guard.shed", delta(b, a, "crn_gate_requests_total", "decision", "shed")+
		delta(b, a, "crn_ingest_requests_total", "decision", "shed"))
	set("serve.solo_share", ratio(delta(b, a, "crn_coalesce_calls_total", "kind", "solo"),
		delta(b, a, "crn_coalesce_calls_total", "kind", "call")))

	selections := sumLabels(b, a, "crn_pool_selections_total", "path", "indexed", "fallback")
	set("pool.scanned_per_selection", ratio(sumLabels(b, a, "crn_pool_scanned_total", "path", "indexed", "fallback"), selections))
	set("pool.index_fallback_share", ratio(delta(b, a, "crn_pool_selections_total", "path", "fallback"), selections))
	set("pool.evictions", delta(b, a, "crn_pool_evictions_total", "", ""))

	hits := delta(b, a, "crn_repcache_lookups_total", "result", "hit")
	set("crn.repcache_hit_share", ratio(hits, hits+delta(b, a, "crn_repcache_lookups_total", "result", "miss")))
	set("crn.repcache_resident", a.sample("crn_repcache_resident", "", ""))
	res.Info["window_promotions"] = fmt.Sprint(after.h.RepCache.Promoted - before.h.RepCache.Promoted)
	// What warming the rep cache cost: promotions into the resident tier
	// (each republishes the resident snapshot copy-on-write) and the bytes
	// allocated per warm-up query.
	set("crn.repcache_promote_count", float64(warm.after.h.RepCache.Promoted-warm.before.h.RepCache.Promoted))
	set("crn.repcache_promote_bytes_per_query",
		ratio(float64(warm.after.ms.TotalAlloc-warm.before.ms.TotalAlloc), float64(warm.queries)))

	accepted := delta(b, a, "crn_feedback_total", "result", "accepted")
	set("online.accept_share", ratio(accepted,
		sumLabels(b, a, "crn_feedback_total", "result", "accepted", "duplicate", "corrected", "invalid", "overflow")))
	set("durable.fsyncs", delta(b, a, "crn_wal_records_total", "kind", "sync"))
	set("durable.fsync_p99_ms", histDelta(b, a, "crn_wal_fsync_duration_seconds", "", "").Quantile(0.99)*1e3)

	// Does the server's own ledger close? Stage spans are meant to partition
	// the estimate, so their sums over the estimate sums should be 1.
	var stages float64
	for _, st := range []string{telemetry.StageAdmission, telemetry.StageCoalesceWait, telemetry.StageCacheLookup,
		telemetry.StageCandidateSelection, telemetry.StageNNForward, telemetry.StageFinalize} {
		stages += histDelta(b, a, "crn_estimate_stage_duration_seconds", "stage", st).Sum
	}
	set("telemetry.stage_sum_share", ratio(stages,
		histDelta(b, a, "crn_estimate_duration_seconds", "", "").Sum+
			histDelta(b, a, "crn_estimate_batch_duration_seconds", "", "").Sum))
}
