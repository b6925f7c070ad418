package main

// Kill-switch and hardening coverage for the HTTP surface: liveness vs
// readiness semantics, admission-control status mapping, and the full
// kill-switch demo — disk full plus truth-oracle outage plus an
// estimate-path error storm under sustained concurrent load, during which
// crnserve must keep answering every request (fallback or shed, never a
// hang or crash) and must recover on its own once the faults clear.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"crn"
	"crn/internal/guard/failpoint"
)

// TestLivezReadyzLifecycle pins the probe split: /livez is 200 whenever the
// process serves HTTP; /readyz tracks the serving lifecycle (unready until
// startup completes, unready again once shutdown begins).
func TestLivezReadyzLifecycle(t *testing.T) {
	srv := newTestServer(t, testServer(t).sys.NewQueriesPool())
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/livez"); got != http.StatusOK {
		t.Errorf("/livez before ready = %d, want 200 (liveness is process-up, not readiness)", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz before ready = %d, want 503", got)
	}
	srv.setReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Errorf("/readyz after startup = %d, want 200", got)
	}
	srv.setReady(false) // shutdown drain begins
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("/readyz during shutdown = %d, want 503", got)
	}
	if got := get("/livez"); got != http.StatusOK {
		t.Errorf("/livez during shutdown = %d, want 200", got)
	}
}

// TestOverloadMapsTo429 floods a 1-slot server: overflow must come back as
// 429 with a Retry-After header, admitted requests as 200, and the guard
// counters on /healthz and the route counters on /metrics must account
// for the shed.
func TestOverloadMapsTo429(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	base := testServer(t)
	fb, err := base.sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, base.pool, crn.WithFallback(fb), crn.WithMaxInflight(1))
	srv.setReady(true)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	// Hold each admitted estimate long enough that the flood overlaps it.
	failpoint.Enable(failpoint.EstimateCards, func() error {
		time.Sleep(30 * time.Millisecond)
		return nil
	})

	body, _ := json.Marshal(map[string]string{
		"query": "SELECT * FROM title WHERE title.production_year > 1970",
	})
	const workers = 12
	type outcome struct {
		status     int
		retryAfter string
	}
	outcomes := make(chan outcome, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("estimate under overload: %v", err)
				return
			}
			resp.Body.Close()
			outcomes <- outcome{resp.StatusCode, resp.Header.Get("Retry-After")}
		}()
	}
	close(start)
	wg.Wait()
	close(outcomes)

	var ok, shed int
	for o := range outcomes {
		switch o.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
			if o.retryAfter != "1" {
				t.Errorf("429 without Retry-After: 1 (got %q)", o.retryAfter)
			}
		default:
			t.Errorf("unexpected status %d under overload", o.status)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("overload split ok=%d shed=%d, want both > 0", ok, shed)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hr healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	if hr.Guard.Gate.MaxInflight != 1 || hr.Guard.Gate.Shed < uint64(shed) {
		t.Errorf("guard gate counters = %+v, want ceiling 1 and >= %d shed", hr.Guard.Gate, shed)
	}
	fams := scrape(t, ts.URL)
	requests := sampleOf(t, fams, "crn_http_requests_total", "route", "estimate")
	shedCount := sampleOf(t, fams, "crn_http_shed_total", "route", "estimate")
	if requests < workers || shedCount < float64(shed) {
		t.Errorf("estimate route: %v requests, %v shed, want >= %d and >= %d", requests, shedCount, workers, shed)
	}
}

// TestKillSwitch is the acceptance demo of the hardening layer: with the
// disk full (WAL append fails), the truth oracle down, and the learned
// estimate path erroring on every call, a durable adaptive crnserve under
// sustained concurrent load must answer every request terminally — 200 via
// the fallback, 429 via admission control, never a hang, crash, or 500 —
// flip durability_degraded on, and after the faults clear recover to full
// durability and a closed breaker on its own.
func TestKillSwitch(t *testing.T) {
	t.Cleanup(failpoint.DisableAll)
	fb, err := testServer(t).sys.AnalyzeBaseline()
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer(t, seededPool(t), append(retrainOpts,
		crn.WithDataDir(t.TempDir()),
		crn.WithWALSync("always"),
		crn.WithFallback(fb),
		crn.WithMaxInflight(8),
		crn.WithBreaker(crn.BreakerConfig{
			Window: 16, MinSamples: 4, ErrorRate: 0.5,
			Cooldown: 50 * time.Millisecond, ProbeQuota: 2,
		}))...)
	srv.setIngestLimit(8)
	srv.setReady(true)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	// A hang anywhere fails the test via the client deadline instead of the
	// suite timeout.
	client := &http.Client{Timeout: 10 * time.Second}
	post := func(path string, payload any) (int, error) {
		buf, err := json.Marshal(payload)
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	health := func() healthzResponse {
		t.Helper()
		resp, err := client.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr healthzResponse
		if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}

	// Happy path first: the deployment serves before the faults arrive.
	if status, err := post("/estimate", map[string]string{
		"query": "SELECT * FROM title WHERE title.production_year > 1970",
	}); err != nil || status != http.StatusOK {
		t.Fatalf("pre-fault estimate: status %d err %v", status, err)
	}

	// Throw the kill switch: disk full, oracle down, learned path erroring.
	failpoint.EnableError(failpoint.WALAppend, errors.New("no space left on device"))
	failpoint.EnableError(failpoint.OracleCardinality, errors.New("oracle down"))
	failpoint.EnableError(failpoint.OracleContainment, errors.New("oracle down"))
	failpoint.EnableError(failpoint.EstimateCards, errors.New("injected estimate-path failure"))

	const workers = 6
	const perWorker = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				year := 1900 + (w*perWorker+i)%100
				status, err := post("/estimate", map[string]string{
					"query": fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", year),
				})
				if err != nil {
					t.Errorf("/estimate during outage: %v", err)
				} else if status != http.StatusOK && status != http.StatusTooManyRequests {
					t.Errorf("/estimate during outage: status %d, want 200 (fallback) or 429 (shed)", status)
				}
				status, err = post("/feedback", map[string]any{
					"query":       fmt.Sprintf("SELECT * FROM title WHERE title.production_year > %d", year),
					"cardinality": 10 + i,
				})
				if err != nil {
					t.Errorf("/feedback during outage: %v", err)
				} else if status != http.StatusOK && status != http.StatusTooManyRequests {
					t.Errorf("/feedback during outage: status %d, want 200 (degraded accept) or 429", status)
				}
			}
		}(w)
	}
	wg.Wait()

	// The deployment is visibly degraded, not broken: durability flag up,
	// breaker open (diverting to the fallback), liveness still green.
	hr := health()
	if hr.Durable == nil || !hr.Durable.Degraded {
		t.Fatalf("durability_degraded not set during outage: %+v", hr.Durable)
	}
	if hr.Guard.Breaker.Trips < 1 {
		t.Errorf("breaker never tripped during the error storm: %+v", hr.Guard.Breaker)
	}
	resp, err := client.Get(ts.URL + "/livez")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/livez during outage = %d, want 200", resp.StatusCode)
	}

	// Clear the faults: the re-probe loop re-journals staged feedback and
	// drops the degraded flag with no operator action.
	failpoint.DisableAll()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if hr = health(); hr.Durable != nil && !hr.Durable.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("durability never re-upgraded after the outage: %+v", hr.Durable)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hr.Durable.Reupgrades < 1 {
		t.Errorf("re-upgrade not recorded: %+v", hr.Durable)
	}

	// Breaker recovery: after the cooldown, healthy traffic probes the
	// primary path closed and /readyz goes green again.
	time.Sleep(60 * time.Millisecond)
	for i := 0; i < 4; i++ {
		if status, err := post("/estimate", map[string]string{
			"query": "SELECT * FROM title WHERE title.production_year > 1970",
		}); err != nil || status != http.StatusOK {
			t.Fatalf("recovery estimate %d: status %d err %v", i, status, err)
		}
	}
	resp, err = client.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz after recovery = %d, want 200 (%+v)", resp.StatusCode, health().Guard.Breaker)
	}
}
