package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"crn/internal/telemetry"
)

// BenchmarkServeStages drives the full HTTP estimate path — mux, JSON
// codec, gate, coalescer, estimator — under parallel load and, when the
// CRN_STAGE_REPORT environment variable names a file, writes the
// per-stage latency breakdown observed during the run there as JSON.
// CI runs it once and prints the report; the quantiles come from a
// windowed snapshot delta so traffic from other tests sharing the package
// server is excluded.
func BenchmarkServeStages(b *testing.B) {
	srv := testServer(b)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	body := []byte(`{"query":"SELECT * FROM title WHERE title.production_year > 1975"}`)
	url := ts.URL + "/estimate"
	before := stageSnapshots(srv.tel)

	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := http.Post(url, "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
				return
			}
		}
	})
	b.StopTimer()

	if path := os.Getenv("CRN_STAGE_REPORT"); path != "" && !b.Failed() {
		if err := writeStageReport(path, before, stageSnapshots(srv.tel)); err != nil {
			b.Fatalf("stage report: %v", err)
		}
	}
}

// stageSnapshots captures the six stage histograms plus end-to-end in one
// pass, keyed by stage name.
func stageSnapshots(t *telemetry.Telemetry) map[string]telemetry.HistSnapshot {
	s := t.Stages
	return map[string]telemetry.HistSnapshot{
		telemetry.StageAdmission:          s.Admission.Snapshot(),
		telemetry.StageCoalesceWait:       s.CoalesceWait.Snapshot(),
		telemetry.StageCacheLookup:        s.CacheLookup.Snapshot(),
		telemetry.StageCandidateSelection: s.CandidateSelection.Snapshot(),
		telemetry.StageNNForward:          s.NNForward.Snapshot(),
		telemetry.StageFinalize:           s.Finalize.Snapshot(),
		"e2e":                             t.E2E.Snapshot(),
	}
}

// writeStageReport subtracts the pre-run snapshots and writes
// {stage: {count, p50_us, p99_us}} for every stage that recorded spans
// during the benchmark window.
func writeStageReport(path string, before, after map[string]telemetry.HistSnapshot) error {
	type row struct {
		Count    uint64  `json:"count"`
		P50Us    float64 `json:"p50_us"`
		P99Us    float64 `json:"p99_us"`
		AvgUs    float64 `json:"avg_us"`
		ShareE2E float64 `json:"share_of_e2e"`
	}
	window := make(map[string]telemetry.HistSnapshot, len(after))
	for stage, snap := range after {
		window[stage] = snap.Sub(before[stage])
	}
	e2eSum := window["e2e"].ApproxSum()
	report := make(map[string]row, len(window))
	for stage, w := range window {
		n := w.Total()
		if n == 0 {
			continue
		}
		r := row{
			Count: n,
			P50Us: w.Quantile(0.50) * 1e6,
			P99Us: w.Quantile(0.99) * 1e6,
			AvgUs: w.ApproxSum() / float64(n) * 1e6,
		}
		if stage != "e2e" && e2eSum > 0 {
			r.ShareE2E = w.ApproxSum() / e2eSum
		}
		report[stage] = r
	}
	if len(report) == 0 {
		return fmt.Errorf("no stage spans recorded during benchmark window")
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
