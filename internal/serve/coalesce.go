// Package serve provides serving-side concurrency utilities for the §5.2
// deployment scenario: a DBMS answering many concurrent estimation requests
// over one shared model and queries pool.
//
// Its centerpiece is the Coalescer, a dynamic micro-batcher: concurrent
// single-item calls are aggregated into one batched execution, so N
// in-flight requests pay one pool scan, one cache resolution and one
// matrix-batched head pass instead of N. Batching changes scheduling, never
// results — the batch runner is required to be item-independent (the
// estimator's batched entry points are bit-identical to per-item calls by
// construction), so coalesced answers equal uncoalesced answers exactly.
//
// The batches a Coalescer forms are also the unit the estimator's batched
// pass amortizes its rate inference over. The Coalescer itself stays
// result-agnostic.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crn/internal/telemetry"
)

// Coalescer aggregates concurrent Do calls into batched executions of at
// most maxBatch items. One dispatcher runs at a time: while it executes a
// batch, newly arriving calls queue up and form the next batch, so batch
// size adapts to load — single requests on an idle server run immediately
// (no artificial delay), and under concurrency the batch naturally grows
// toward the number of in-flight requests. A positive maxWait additionally
// holds a non-full batch open, trading latency for larger batches on
// lightly loaded servers; maxWait = 0 never waits.
//
// An optional key function deduplicates within a batch: calls whose items
// share a key are executed once and fanned out to every caller.
//
// Callers share per-batch bookkeeping (one group struct, one completion
// channel), so the steady-state overhead is a fraction of an allocation
// per call. The zero value is not usable; construct with NewCoalescer.
// Safe for concurrent use.
type Coalescer[T, R any] struct {
	run      func(context.Context, []T) ([]R, error)
	key      func(T) string
	maxBatch int
	maxWait  time.Duration

	mu      sync.Mutex
	cur     *group[T, R]   // forming batch (nil when none)
	sealed  []*group[T, R] // full batches awaiting execution
	running bool
	kick    chan struct{} // pokes a filling dispatcher when a batch fills

	calls, batches, batched   atomic.Uint64
	maxSeen, deduped, dropped atomic.Uint64
	solo                      atomic.Uint64

	// Optional telemetry (nil = off): waitHist records how long a
	// shared-batch caller waited between submitting and its batch starting
	// to execute (the coalesce-wait stage) — sampled, like every stage
	// span, so the per-request cost of the extra clock read amortizes;
	// sizeHist records executed batch sizes. Set before serving traffic
	// (SetTelemetry).
	waitHist *telemetry.Histogram
	sizeHist *telemetry.Histogram
}

// group is one batch shared by all its callers: items are appended under
// the coalescer's mutex, outs/err are published before done is closed, and
// each caller reads its slot after <-done (the close is the happens-before
// edge).
type group[T, R any] struct {
	items []T
	done  chan struct{}
	outs  []R
	err   error
	// execNs is stamped by exec (monotonic nanos, telemetry only) before
	// results are published; the close of done is the happens-before edge
	// that makes it readable by every caller.
	execNs int64
}

// NewCoalescer builds a coalescer over a batch runner. maxBatch bounds the
// items per execution (values < 1 are treated as 1); maxWait ≥ 0 is how
// long a non-full batch is held open for stragglers once the dispatcher is
// free (0: run with whatever has queued). key, when non-nil, deduplicates
// items within a batch. run receives the (deduplicated) items and must
// return one result per item, position-aligned. The context passed to run
// is Background for shared batches (the work outlives any single caller)
// and the caller's own context for solo fast-path executions, whose work
// belongs to exactly one caller.
func NewCoalescer[T, R any](maxBatch int, maxWait time.Duration, key func(T) string, run func(context.Context, []T) ([]R, error)) *Coalescer[T, R] {
	if run == nil {
		panic("serve: NewCoalescer needs a batch runner")
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	if maxWait < 0 {
		maxWait = 0
	}
	return &Coalescer[T, R]{
		run:      run,
		key:      key,
		maxBatch: maxBatch,
		maxWait:  maxWait,
		kick:     make(chan struct{}, 1),
	}
}

// Do submits one item and blocks until its batch has executed (or ctx is
// done). On the shared path the error is the whole batch's error: a failing
// item fails every call that shared its execution, so callers wanting
// per-item error fidelity should retry individually on error — unless the
// error is a SoloError, which marks a solo fast-path failure that already
// ran the item alone. If ctx ends while waiting on a shared batch, Do
// returns ctx.Err() immediately; the batch still executes for the other
// callers and the abandoned result is discarded. A solo execution instead
// receives ctx directly, so cancellation propagates into the runner itself.
func (c *Coalescer[T, R]) Do(ctx context.Context, v T) (R, error) {
	c.mu.Lock()
	if c.maxWait == 0 && !c.running && c.cur == nil && len(c.sealed) == 0 {
		// Solo fast path: nothing is in flight and nothing is queued, so
		// there is no one to share a batch with. Run the item synchronously
		// on the caller's goroutine — no group allocation, no dispatcher
		// goroutine, no gather yield — which removes the coalescing overhead
		// from isolated requests entirely. Marking running keeps concurrent
		// arrivals queueing behind us exactly as behind a dispatcher. A
		// positive maxWait opts out: it explicitly asks for batches to be
		// held open for stragglers, which only the dispatcher can do.
		c.running = true
		c.mu.Unlock()
		return c.doSolo(ctx, v)
	}
	var submitNs int64
	var submitW uint64
	if c.waitHist != nil {
		if submitW = telemetry.SampleWeight(); submitW != 0 {
			submitNs = telemetry.Now()
		}
	}
	g := c.cur
	if g == nil {
		g = &group[T, R]{items: make([]T, 0, c.maxBatch), done: make(chan struct{})}
		c.cur = g
	}
	slot := len(g.items)
	g.items = append(g.items, v)
	full := len(g.items) >= c.maxBatch
	if full {
		// Seal: the next arrival starts a fresh group, and a filling
		// dispatcher can take this one immediately.
		c.sealed = append(c.sealed, g)
		c.cur = nil
	}
	start := !c.running
	if start {
		c.running = true
	}
	c.mu.Unlock()
	c.calls.Add(1)
	if start {
		go c.dispatch()
	} else if full {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	select {
	case <-g.done:
		if submitW != 0 && g.execNs != 0 {
			c.waitHist.ObserveN(float64(g.execNs-submitNs)*1e-9, submitW)
		}
		if g.err != nil {
			var zero R
			return zero, g.err
		}
		return g.outs[slot], nil
	case <-ctx.Done():
		c.dropped.Add(1)
		var zero R
		return zero, ctx.Err()
	}
}

// doSolo executes one item synchronously for the caller that found the
// coalescer idle. The caller owns the dispatcher role (running is set), so
// on the way out it must hand queued work — requests that arrived while the
// solo item ran — to a real dispatcher, or clear the flag. The handoff runs
// in a defer: the runner executes on the caller's goroutine here, and if it
// panics into a recovering caller (net/http handlers recover), a skipped
// handoff would leave running set forever and wedge every future call.
func (c *Coalescer[T, R]) doSolo(ctx context.Context, v T) (R, error) {
	defer func() {
		c.mu.Lock()
		n, full := c.pendingLocked()
		if n == 0 && !full {
			c.running = false
			c.mu.Unlock()
			return
		}
		c.mu.Unlock()
		go c.dispatch()
	}()
	c.calls.Add(1)
	var out R
	var err error
	if err = ctx.Err(); err != nil {
		// Cancelled before execution: an abandoned slot, minus the batch
		// that would have run for nobody.
		c.dropped.Add(1)
	} else {
		c.solo.Add(1)
		c.sizeHist.Observe(1)
		c.batches.Add(1)
		c.batched.Add(1)
		if c.maxSeen.Load() == 0 {
			c.maxSeen.CompareAndSwap(0, 1)
		}
		var outs []R
		single := [1]T{v}
		// The caller's own context: a solo run serves exactly this caller,
		// so its cancellation must reach the runner (the shared-batch path
		// cannot honor one caller's deadline; this path can and does).
		outs, err = c.run(ctx, single[:])
		if err == nil && len(outs) != 1 {
			err = fmt.Errorf("serve: batch runner returned %d results for 1 item", len(outs))
		}
		if err == nil {
			out = outs[0]
		} else {
			// Mark the failure as solo: the item already ran alone, so a
			// caller's error-isolation retry would repeat identical work.
			err = &SoloError{Err: err}
		}
	}
	return out, err
}

// SoloError wraps an error from a solo fast-path execution. The failed run
// served exactly the one caller that receives it, so retrying the item
// alone (the error-isolation strategy for shared batches) would repeat the
// identical work for the identical result. Unwrap exposes the underlying
// error to errors.Is/As.
type SoloError struct{ Err error }

func (e *SoloError) Error() string { return e.Err.Error() }
func (e *SoloError) Unwrap() error { return e.Err }

// take pops the next batch to execute: the oldest sealed group, else the
// forming group. Returns nil when nothing is pending. Callers hold c.mu.
func (c *Coalescer[T, R]) take() *group[T, R] {
	if len(c.sealed) > 0 {
		g := c.sealed[0]
		c.sealed = append(c.sealed[:0], c.sealed[1:]...)
		return g
	}
	g := c.cur
	c.cur = nil
	return g
}

// pendingLocked reports the forming group's size and whether a batch is
// ready to run at full size. Callers hold c.mu.
func (c *Coalescer[T, R]) pendingLocked() (n int, full bool) {
	if c.cur != nil {
		n = len(c.cur.items)
	}
	return n, len(c.sealed) > 0 || n >= c.maxBatch
}

// dispatch drains forming and sealed batches, then exits; Do starts a new
// dispatcher when calls arrive on an idle coalescer, so no goroutine
// lingers while the coalescer is unused.
func (c *Coalescer[T, R]) dispatch() {
	for {
		c.mu.Lock()
		n, full := c.pendingLocked()
		if n == 0 && !full {
			c.running = false
			c.mu.Unlock()
			return
		}
		if !full {
			c.mu.Unlock()
			c.gather()
			c.mu.Lock()
		}
		g := c.take()
		c.mu.Unlock()
		if g != nil && len(g.items) > 0 {
			c.exec(g)
		}
	}
}

// gather lets a non-full forming batch grow before it is taken. First it
// yields the processor while the queue keeps growing: callers woken by the
// previous batch's delivery are runnable but may not have re-enqueued yet,
// and without the yield the dispatcher would race ahead of them and degrade
// to batches of one under saturation (most visible when hardware threads
// are scarce). Yielding costs nanoseconds when nothing is runnable, so an
// isolated request is still served immediately. Then, if a positive
// maxWait is configured, it additionally holds the batch open on the clock.
func (c *Coalescer[T, R]) gather() {
	prev := -1
	for i := 0; i < 8; i++ {
		c.mu.Lock()
		n, full := c.pendingLocked()
		c.mu.Unlock()
		if full {
			return
		}
		if n == prev {
			break
		}
		prev = n
		runtime.Gosched()
	}
	if c.maxWait > 0 {
		c.fill()
	}
}

// fill holds the forming batch open for up to maxWait, returning early when
// a batch is ready at full size.
func (c *Coalescer[T, R]) fill() {
	timer := time.NewTimer(c.maxWait)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			return
		case <-c.kick:
			c.mu.Lock()
			_, full := c.pendingLocked()
			c.mu.Unlock()
			if full {
				return
			}
		}
	}
}

// SetTelemetry attaches the coalesce-wait and batch-size histograms
// (nil = off). Call before the coalescer serves traffic: the fields are
// read without synchronization on the hot path.
func (c *Coalescer[T, R]) SetTelemetry(wait, size *telemetry.Histogram) {
	if c == nil {
		return
	}
	c.waitHist = wait
	c.sizeHist = size
}

// exec runs one batch and publishes its results before closing done.
func (c *Coalescer[T, R]) exec(g *group[T, R]) {
	if c.waitHist != nil || c.sizeHist != nil {
		g.execNs = telemetry.Now() // once per batch, amortized over its callers
		c.sizeHist.Observe(float64(len(g.items)))
	}
	c.batches.Add(1)
	c.batched.Add(uint64(len(g.items)))
	for {
		m := c.maxSeen.Load()
		if uint64(len(g.items)) <= m || c.maxSeen.CompareAndSwap(m, uint64(len(g.items))) {
			break
		}
	}
	items := g.items
	var dups int
	var seen map[string]int
	if c.key != nil && len(items) > 1 {
		seen = make(map[string]int, len(items))
		for _, v := range items {
			k := c.key(v)
			if _, ok := seen[k]; ok {
				dups++
			} else {
				seen[k] = -1
			}
		}
	}
	if dups == 0 {
		// Common case: no duplicates — run on the group's own items and
		// publish the runner's result slice directly, no remapping.
		out, err := c.run(context.Background(), items)
		if err == nil && len(out) != len(items) {
			err = fmt.Errorf("serve: batch runner returned %d results for %d items", len(out), len(items))
		}
		g.outs, g.err = out, err
		close(g.done)
		return
	}
	c.deduped.Add(uint64(dups))
	uniq := make([]T, 0, len(items)-dups)
	slot := make([]int, len(items))
	for i, v := range items {
		k := c.key(v)
		if j := seen[k]; j >= 0 {
			slot[i] = j
			continue
		}
		seen[k] = len(uniq)
		slot[i] = len(uniq)
		uniq = append(uniq, v)
	}
	out, err := c.run(context.Background(), uniq)
	if err == nil && len(out) != len(uniq) {
		err = fmt.Errorf("serve: batch runner returned %d results for %d items", len(out), len(uniq))
	}
	if err != nil {
		g.err = err
		close(g.done)
		return
	}
	outs := make([]R, len(items))
	for i := range items {
		outs[i] = out[slot[i]]
	}
	g.outs = outs
	close(g.done)
}

// Stats is a point-in-time snapshot of coalescing effectiveness.
type Stats struct {
	Calls        uint64 `json:"calls"`         // Do invocations
	Batches      uint64 `json:"batches"`       // batch executions (solo runs included)
	BatchedItems uint64 `json:"batched_items"` // sum of batch sizes (= Calls delivered)
	MaxBatch     uint64 `json:"max_batch"`     // largest batch executed
	Deduped      uint64 `json:"deduped"`       // calls answered by another call's slot
	Abandoned    uint64 `json:"abandoned"`     // calls that left early (ctx done)
	Solo         uint64 `json:"solo"`          // calls served on the idle fast path (no batching machinery)
}

// Stats returns the coalescer's counters. Safe on a nil coalescer (all
// zeros), so callers can expose stats without checking whether coalescing
// is configured.
func (c *Coalescer[T, R]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Calls:        c.calls.Load(),
		Batches:      c.batches.Load(),
		BatchedItems: c.batched.Load(),
		MaxBatch:     c.maxSeen.Load(),
		Deduped:      c.deduped.Load(),
		Abandoned:    c.dropped.Load(),
		Solo:         c.solo.Load(),
	}
}
