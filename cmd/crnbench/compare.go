package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// This file is the report format and the one function that decides whether
// a set of runs regressed against another: each gated metric's bound applied
// per (metric, workload).

// runReport is one full run of the benchmark.
type runReport struct {
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Sizes     sizes              `json:"sizes"`
	PrepS     float64            `json:"prep_s"`
	Workloads []*runResult       `json:"workloads"`
	Layers    map[string]value   `json:"layers,omitempty"` // workload-independent per-layer lines
	Ledgers   map[string]*ledger `json:"ledgers,omitempty"`
	Info      map[string]string  `json:"info,omitempty"`
}

// report is a set of runs of the same code; -out appends to it.
type report struct {
	Runs []*runReport `json:"runs"`
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &r, nil
}

// appendRun adds one run to the report file at path, creating it if absent.
func appendRun(path string, run *runReport) error {
	r := &report{}
	if _, err := os.Stat(path); err == nil {
		if r, err = readReport(path); err != nil {
			return err
		}
	}
	r.Runs = append(r.Runs, run)
	raw, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return writeAtomic(path, append(raw, '\n'))
}

// Verdicts of compare.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
	// verdictMissing: one of the two reports has no sample of a gated metric
	// on a workload the other measured. It fails -compare like a regression:
	// a report that lost a workload or a metric proves nothing about it.
	verdictMissing = "missing"
)

// verdict is compare's finding for one (metric, workload).
type verdict struct {
	Metric   string
	Workload string
	Base     value // median, range and spread over the baseline runs
	Cand     value
	Worse    float64 // share of the baseline median the candidate is worse by (negative: better)
	Bound    float64
	Verdict  string
}

// samplesOf collects one metric's per-run values for a workload. With a
// single run the run's own slice range stands in for the run-to-run range.
func samplesOf(r *report, workload, metric string) value {
	var vs []value
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if w.Workload != workload {
				continue
			}
			if v, ok := w.E2E[metric]; ok {
				vs = append(vs, v)
			} else if v, ok := w.Layer[metric]; ok {
				vs = append(vs, v)
			}
		}
	}
	switch len(vs) {
	case 0:
		return value{}
	case 1:
		return vs[0]
	}
	medians := make([]float64, len(vs))
	for i, v := range vs {
		medians[i] = v.V
	}
	return summarize(medians)
}

// failedShare is failed/attempted over every phase of every run of a
// workload.
func failedShare(r *report, workload string) value {
	attempted, failed := 0, 0
	for _, run := range r.Runs {
		for _, w := range run.Workloads {
			if w.Workload == workload {
				a, f := w.totals()
				attempted, failed = attempted+a, failed+f
			}
		}
	}
	return value{V: ratio(float64(failed), float64(attempted)), N: attempted}
}

// judge applies one bound. A metric whose spread (in either set) exceeds its
// bound cannot be called unchanged: it is unresolved unless the two sets'
// ranges do not overlap, in which case the ranges themselves decide.
func judge(m metricSpec, base, cand value) verdict {
	v := verdict{Metric: m.Name, Base: base, Cand: cand, Bound: m.Bound, Verdict: verdictOK}
	if base.V == 0 {
		// No share of zero can be taken: any move in the bad direction counts.
		if (m.Better == "lower" && cand.V > 0) || (m.Better == "higher" && cand.V < 0) {
			v.Worse, v.Verdict = math.Inf(1), verdictRegressed
		}
		return v
	}
	v.Worse = (cand.V - base.V) / math.Abs(base.V)
	if m.Better == "higher" {
		v.Worse = -v.Worse
	}
	overlap := base.Min <= cand.Max && cand.Min <= base.Max
	noisy := base.Spread > m.Bound || cand.Spread > m.Bound
	switch {
	case noisy && overlap:
		v.Verdict = verdictUnresolved
	case v.Worse > m.Bound:
		v.Verdict = verdictRegressed
	}
	return v
}

// compare judges every gated metric on every workload, plus the failed
// share, which may not increase at all. A workload neither report ran is
// skipped; a (metric, workload) only one of them measured is "missing".
func compare(base, cand *report) []verdict {
	var out []verdict
	for _, w := range workloads {
		fb, fc := failedShare(base, w.Name), failedShare(cand, w.Name)
		if fb.N == 0 && fc.N == 0 {
			continue
		}
		for _, m := range gated() {
			if m.Only != "" && m.Only != w.Name {
				continue
			}
			b, c := samplesOf(base, w.Name, m.Name), samplesOf(cand, w.Name, m.Name)
			if b.N == 0 && c.N == 0 {
				continue
			}
			v := verdict{Metric: m.Name, Base: b, Cand: c, Bound: m.Bound, Verdict: verdictMissing}
			if b.N > 0 && c.N > 0 {
				v = judge(m, b, c)
			}
			v.Workload = w.Name
			out = append(out, v)
		}
		v := verdict{Metric: "failed_share", Workload: w.Name, Base: fb, Cand: fc, Verdict: verdictOK}
		switch {
		case fb.N == 0 || fc.N == 0:
			v.Verdict = verdictMissing
		case fc.V > fb.V:
			v.Verdict = verdictRegressed
		}
		out = append(out, v)
	}
	return out
}

// printVerdicts renders compare's findings and returns how many fail the
// comparison: regressed or missing.
func printVerdicts(w io.Writer, vs []verdict) (failing int) {
	fmt.Fprintf(w, "%-12s %-26s %12s %12s %8s %6s  %s\n", "workload", "metric", "baseline", "candidate", "worse", "bound", "verdict")
	for _, v := range vs {
		fmt.Fprintf(w, "%-12s %-26s %12.4g %12.4g %+7.1f%% %5.0f%%  %s\n",
			v.Workload, v.Metric, v.Base.V, v.Cand.V, 100*v.Worse, 100*v.Bound, v.Verdict)
		if v.Verdict == verdictRegressed || v.Verdict == verdictMissing {
			failing++
		}
	}
	return failing
}
