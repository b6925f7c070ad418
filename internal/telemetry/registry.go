package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe so disabled telemetry costs a nil check and nothing else.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count (0 on nil).
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// MaxSeriesPerFamily bounds how many distinct label values a labeled
// family materializes. Labels past the bound share one overflow series
// (label value "_other") and bump crn_telemetry_dropped_series_total, so a
// label sourced from unbounded input can never grow the registry without
// bound.
const MaxSeriesPerFamily = 32

// overflowLabel is the shared label value for past-the-bound series.
const overflowLabel = "_other"

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Emit delivers one sample from a collector callback; labelValue is
// ignored by unlabeled families.
type Emit func(value float64, labelValue string)

// sample is one collected (labelValue, value) pair.
type sample struct {
	label string
	value float64
}

// family is one registered metric family: owned instruments (counters or
// histograms the hot path writes), a GaugeFunc, or a collector callback
// gathered at exposition time (the migration path for subsystems that
// already keep their own atomic stats — /healthz and /metrics then render
// from the same underlying source).
type family struct {
	name     string
	help     string
	typ      string
	labelKey string // "" = unlabeled
	histOpts HistogramOpts

	mu       sync.Mutex
	order    []string        // label values in registration order
	members  map[string]bool // membership index over order
	counters map[string]*Counter
	hists    map[string]*Histogram

	collect func(Emit)     // collector family: invoked per gather
	fn      func() float64 // GaugeFunc
}

// Registry holds metric families for one serving process. Registration
// takes a mutex (it happens at startup); the instruments it hands out are
// lock-free. Family names are unique per registry — a duplicate
// registration panics, which keeps /metrics free of duplicate series by
// construction.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family

	// droppedSeries counts label values refused by MaxSeriesPerFamily.
	droppedSeries *Counter
}

// NewRegistry returns an empty registry with its self-metrics registered.
func NewRegistry() *Registry {
	r := &Registry{fams: make(map[string]*family)}
	r.droppedSeries = r.Counter("crn_telemetry_dropped_series_total",
		"Label values refused by the per-family series bound.")
	return r
}

// validName reports whether name is a legal Prometheus metric name.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (r *Registry) register(f *family) *family {
	if !validName(f.name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", f.name))
	}
	if f.typ == typeCounter && !strings.HasSuffix(f.name, "_total") {
		panic(fmt.Sprintf("telemetry: counter %q must end in _total", f.name))
	}
	if f.typ == typeHistogram && f.histOpts.Seconds && !strings.HasSuffix(f.name, "_seconds") {
		panic(fmt.Sprintf("telemetry: duration histogram %q must end in _seconds", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric family %q", f.name))
	}
	r.fams[f.name] = f
	return f
}

// childKey resolves labelValue to the series it materializes under the
// cardinality bound: itself while the family has room, the shared
// overflow series after.
func (f *family) childKey(labelValue string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.members == nil {
		f.members = make(map[string]bool, len(f.order))
		for _, v := range f.order {
			f.members[v] = true
		}
	}
	if f.members[labelValue] {
		return labelValue
	}
	if len(f.order) >= MaxSeriesPerFamily {
		if !f.members[overflowLabel] {
			f.members[overflowLabel] = true
			f.order = append(f.order, overflowLabel)
		}
		return overflowLabel
	}
	f.members[labelValue] = true
	f.order = append(f.order, labelValue)
	return labelValue
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	f := &family{name: name, help: help, typ: typeCounter,
		counters: map[string]*Counter{"": c}, order: []string{""}}
	r.register(f)
	return c
}

// GaugeFunc registers a gauge whose value is read by fn at gather time —
// the zero-cost way to expose a value an existing subsystem already
// maintains.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeGauge, fn: fn})
}

// Histogram registers and returns an unlabeled histogram.
func (r *Registry) Histogram(name, help string, o HistogramOpts) *Histogram {
	h := NewHistogram(o)
	f := &family{name: name, help: help, typ: typeHistogram, histOpts: o,
		hists: map[string]*Histogram{"": h}, order: []string{""}}
	r.register(f)
	return h
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	r *Registry
	f *family
}

// CounterVec registers a counter family with one label key.
func (r *Registry) CounterVec(name, help, labelKey string) *CounterVec {
	f := &family{name: name, help: help, typ: typeCounter, labelKey: labelKey,
		counters: map[string]*Counter{}}
	r.register(f)
	return &CounterVec{r: r, f: f}
}

// With returns the counter for labelValue, creating it under the series
// bound (past the bound, the shared overflow counter). Resolve children
// once at setup and keep the *Counter — With takes the family mutex.
// Nil-safe: a nil vec returns a nil (no-op) counter.
func (v *CounterVec) With(labelValue string) *Counter {
	if v == nil {
		return nil
	}
	key := v.f.childKey(labelValue)
	if key != labelValue {
		v.r.droppedSeries.Inc()
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	c, ok := v.f.counters[key]
	if !ok {
		c = &Counter{}
		v.f.counters[key] = c
	}
	return c
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	r *Registry
	f *family
}

// HistogramVec registers a histogram family with one label key.
func (r *Registry) HistogramVec(name, help, labelKey string, o HistogramOpts) *HistogramVec {
	if o.Seconds && !strings.HasSuffix(name, "_seconds") {
		panic(fmt.Sprintf("telemetry: duration histogram %q must end in _seconds", name))
	}
	f := &family{name: name, help: help, typ: typeHistogram, labelKey: labelKey,
		histOpts: o, hists: map[string]*Histogram{}}
	r.register(f)
	return &HistogramVec{r: r, f: f}
}

// With returns the histogram for labelValue (see CounterVec.With).
func (v *HistogramVec) With(labelValue string) *Histogram {
	if v == nil {
		return nil
	}
	key := v.f.childKey(labelValue)
	if key != labelValue {
		v.r.droppedSeries.Inc()
	}
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	h, ok := v.f.hists[key]
	if !ok {
		h = NewHistogram(v.f.histOpts)
		v.f.hists[key] = h
	}
	return h
}

// CollectCounter registers a counter family whose samples are produced by
// fn at gather time — the bridge that migrates a subsystem's existing
// atomic counters onto the registry without rewriting its hot path.
// fn must emit cumulative values; labelKey "" makes the family unlabeled
// (fn then emits exactly one sample).
func (r *Registry) CollectCounter(name, help, labelKey string, fn func(Emit)) {
	r.register(&family{name: name, help: help, typ: typeCounter,
		labelKey: labelKey, collect: fn})
}

// families returns the registered families sorted by name.
func (r *Registry) families() []*family {
	r.mu.Lock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		out = append(out, f)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// gatherSamples materializes a family's current samples in stable order.
// Histogram families are returned separately via gatherHists.
func (f *family) gatherSamples() []sample {
	if f.fn != nil {
		return []sample{{label: "", value: f.fn()}}
	}
	if f.collect != nil {
		var out []sample
		f.collect(func(v float64, label string) {
			out = append(out, sample{label: label, value: v})
		})
		return out
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]sample, 0, len(f.order))
	for _, lv := range f.order {
		if c := f.counters[lv]; c != nil {
			out = append(out, sample{label: lv, value: float64(c.Load())})
		}
	}
	return out
}

// gatherHists snapshots a histogram family's children in stable order.
func (f *family) gatherHists() (labels []string, snaps []HistSnapshot) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, lv := range f.order {
		if h := f.hists[lv]; h != nil {
			labels = append(labels, lv)
			snaps = append(snaps, h.Snapshot())
		}
	}
	return labels, snaps
}
