package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"crn/internal/telemetry"
)

// fakeExposition builds a minimal but lint-clean exposition with the
// families -watch consumes, scaled by n so consecutive polls see moving
// counters.
func fakeExposition(n uint64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP crn_estimate_requests_total Estimate requests by outcome.\n# TYPE crn_estimate_requests_total counter\n")
	fmt.Fprintf(&b, "crn_estimate_requests_total{outcome=\"ok\"} %d\n", 100*n)
	fmt.Fprintf(&b, "crn_estimate_requests_total{outcome=\"fallback\"} %d\n", 2*n)
	fmt.Fprintf(&b, "# HELP crn_process_uptime_seconds Uptime.\n# TYPE crn_process_uptime_seconds gauge\ncrn_process_uptime_seconds %d\n", 60*n)
	fmt.Fprintf(&b, "# HELP crn_breaker_state Breaker state.\n# TYPE crn_breaker_state gauge\ncrn_breaker_state 0\n")
	fmt.Fprintf(&b, "# HELP crn_estimate_stage_duration_seconds Stage spans.\n# TYPE crn_estimate_stage_duration_seconds histogram\n")
	for _, stage := range []string{"admission", "nn_forward"} {
		fmt.Fprintf(&b, "crn_estimate_stage_duration_seconds_bucket{stage=%q,le=\"0.001\"} %d\n", stage, 90*n)
		fmt.Fprintf(&b, "crn_estimate_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", stage, 100*n)
		fmt.Fprintf(&b, "crn_estimate_stage_duration_seconds_sum{stage=%q} %f\n", stage, float64(n)/10)
		fmt.Fprintf(&b, "crn_estimate_stage_duration_seconds_count{stage=%q} %d\n", stage, 100*n)
	}
	fmt.Fprintf(&b, "# HELP crn_parse_duration_seconds Parse time per request.\n# TYPE crn_parse_duration_seconds histogram\n")
	fmt.Fprintf(&b, "crn_parse_duration_seconds_bucket{le=\"0.0001\"} %d\ncrn_parse_duration_seconds_bucket{le=\"+Inf\"} %d\n", 95*n, 100*n)
	fmt.Fprintf(&b, "crn_parse_duration_seconds_sum %f\ncrn_parse_duration_seconds_count %d\n", float64(n)/100, 100*n)
	fmt.Fprintf(&b, "# HELP crn_stmtcache_lookups_total Statement-cache lookups.\n# TYPE crn_stmtcache_lookups_total counter\n")
	fmt.Fprintf(&b, "crn_stmtcache_lookups_total{result=\"hit\"} %d\ncrn_stmtcache_lookups_total{result=\"miss\"} %d\n", 99*n, n)
	fmt.Fprintf(&b, "# HELP crn_repcache_lookups_total Cache lookups.\n# TYPE crn_repcache_lookups_total counter\n")
	fmt.Fprintf(&b, "crn_repcache_lookups_total{result=\"hit\"} %d\ncrn_repcache_lookups_total{result=\"miss\"} %d\n", 75*n, 25*n)
	fmt.Fprintf(&b, "# HELP crn_estimate_memo_lookups_total Estimate-memo lookups.\n# TYPE crn_estimate_memo_lookups_total counter\n")
	fmt.Fprintf(&b, "crn_estimate_memo_lookups_total{result=\"hit\"} %d\ncrn_estimate_memo_lookups_total{result=\"miss\"} %d\n", 90*n, 10*n)
	fmt.Fprintf(&b, "# HELP crn_estimate_memo_entries Memoized probes.\n# TYPE crn_estimate_memo_entries gauge\ncrn_estimate_memo_entries %d\n", 640*n)
	fmt.Fprintf(&b, "# HELP crn_accuracy_qerror Live q-error.\n# TYPE crn_accuracy_qerror histogram\n")
	fmt.Fprintf(&b, "crn_accuracy_qerror_bucket{arm=\"crn\",le=\"2\"} %d\n", 8*n)
	fmt.Fprintf(&b, "crn_accuracy_qerror_bucket{arm=\"crn\",le=\"+Inf\"} %d\n", 10*n)
	fmt.Fprintf(&b, "crn_accuracy_qerror_sum{arm=\"crn\"} %d\ncrn_accuracy_qerror_count{arm=\"crn\"} %d\n", 20*n, 10*n)
	return b.String()
}

// TestWatchLoopFrames: two -watch frames against a canned exposition — the
// first renders cumulative values, the second a windowed delta with a QPS
// figure, and broken-pipe-free termination after -n frames.
func TestWatchLoopFrames(t *testing.T) {
	var polls atomic.Uint64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := polls.Add(1)
		w.Header().Set("Content-Type", telemetry.ExpositionContentType)
		fmt.Fprint(w, fakeExposition(n))
	}))
	defer ts.Close()

	var out strings.Builder
	if err := watchLoop(ts.URL, 0, 2, &out); err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimRight(out.String(), "\n"), "\n\n")
	if len(frames) != 2 {
		t.Fatalf("got %d frames, want 2:\n%s", len(frames), out.String())
	}
	if !strings.Contains(frames[0], "(cumulative)") {
		t.Errorf("first frame not cumulative:\n%s", frames[0])
	}
	if !strings.Contains(frames[1], "window)") || !strings.Contains(frames[1], "qps ") {
		t.Errorf("second frame not windowed:\n%s", frames[1])
	}
	for _, want := range []string{"breaker closed", "ok 100", "parse p50", "nn_forward p50", "stmt 99.0% hit", "rep 75.0% hit", "memo 90.0% hit (1280 probes)", "crn p50"} {
		if !strings.Contains(frames[1], want) {
			t.Errorf("second frame missing %q:\n%s", want, frames[1])
		}
	}
}

// TestWatchLoopErrorStatus: a non-200 metrics endpoint fails the loop with
// a useful error rather than rendering garbage.
func TestWatchLoopErrorStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	var out strings.Builder
	err := watchLoop(ts.URL, 0, 1, &out)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("err = %v, want status 503 error", err)
	}
}
