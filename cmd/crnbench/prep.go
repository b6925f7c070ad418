package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"crn"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/workload"
)

// This file is the once-per-run preparation: the database, the trained
// model, the generated request streams with their exact truths, and the
// crnserve binary under test. Everything except the request streams is a
// fixed constant of the benchmark; only -seed moves the inputs.

// sizes are the benchmark's fixed constants, recorded in every report.
type sizes struct {
	Titles    int   `json:"titles"`
	DBSeed    int64 `json:"db_seed"`
	Pairs     int   `json:"pairs"`
	Epochs    int   `json:"epochs"`
	Hidden    int   `json:"hidden"`
	TrainSeed int64 `json:"train_seed"`
	PoolSeed  int64 `json:"pool_seed"`
	Hot       int   `json:"hot_probes"`
	Eval      int   `json:"eval_probes"`
	Batch     int   `json:"batch_size"`
	WriteRate int   `json:"writes_per_s"`
	// ColdRate sizes the never-repeating cold stream: probes generated per
	// second of window. One request in four is cold, so 6000 lets topk_pool
	// run at 24k req/s: eight times its rate at this commit, and more than
	// three times single_hot's 7.3k req/s, which has no miss path, a pool of
	// 300 and no ranking — 45 µs of every round trip there is spent outside
	// the estimator. Running out is a harness error, not a failed request.
	ColdRate int `json:"cold_probes_per_s"`
	// PoolScale divides every workload's pool size (1 at full size).
	PoolScale int `json:"pool_scale"`
}

var (
	fullSizes  = sizes{Titles: 4000, DBSeed: 1, Pairs: 5000, Epochs: 30, Hidden: 64, TrainSeed: 1, PoolSeed: 7, Hot: 1000, Eval: 1000, Batch: 64, WriteRate: 200, ColdRate: 6000, PoolScale: 1}
	quickSizes = sizes{Titles: 400, DBSeed: 1, Pairs: 200, Epochs: 2, Hidden: 8, TrainSeed: 1, PoolSeed: 7, Hot: 192, Eval: 48, Batch: 16, WriteRate: 100, ColdRate: 8000, PoolScale: 8}
)

// scaled returns the workload with its pool sizes (and with them the
// candidate bound) divided for -quick.
func (w workloadSpec) scaled(sz sizes) workloadSpec {
	if sz.PoolScale > 1 {
		w.Pool = max(w.Pool/sz.PoolScale, 40)
		if w.PoolCap > 0 {
			w.PoolCap = w.Pool
		}
		if w.MaxCandidates > 0 {
			w.MaxCandidates = max(w.MaxCandidates/sz.PoolScale, 2)
		}
	}
	return w
}

// serverFlags renders the crnserve flags of a workload (everything but the
// listen addresses and -model).
func (w workloadSpec) serverFlags(sz sizes, dataDir string) []string {
	f := []string{
		"-titles", fmt.Sprint(sz.Titles), "-db-seed", fmt.Sprint(sz.DBSeed),
		"-pool", fmt.Sprint(w.Pool), "-pool-seed", fmt.Sprint(sz.PoolSeed),
	}
	if w.MaxCandidates > 0 {
		f = append(f, "-max-candidates", fmt.Sprint(w.MaxCandidates))
	}
	if w.PoolCap > 0 {
		f = append(f, "-pool-cap", fmt.Sprint(w.PoolCap))
	}
	if w.Guarded {
		f = append(f, "-max-inflight", "64", "-request-timeout", "1s", "-breaker-p99", "250ms")
	}
	if w.Durable {
		// Scheduled retraining is off: on two cores the background trainer
		// made estimate throughput swing by a third between identical runs.
		// The trainer is measured in the traced pass instead.
		f = append(f, "-data-dir", dataDir, "-wal-sync", "interval",
			"-feedback-buffer", "65536", "-retrain-interval", "-1s")
	}
	return f
}

// probe is one generated query with its rendered SQL.
type probe struct {
	SQL string
	Q   crn.Query
}

// write is one execution-feedback record: a query absent from the initial
// pool and its exact cardinality.
type write struct {
	probe
	Truth int64
}

// prepared is everything a run needs before the first server starts.
type prepared struct {
	sz   sizes
	seed int64
	root string // module root (holds go.mod)
	work string // .bench_build/crnbench under root: binary, caches, temp dirs
	key  string // cache key: hash of this executable

	sys       *crn.System
	modelBlob []byte
	modelPath string
	serveBin  string

	hot       []probe
	cold      []probe
	writes    []write
	eval      []probe // evaluation set: non-empty exact results, disjoint from hot
	evalTruth []int64 // aligned with eval

	trainS float64 // 0 when the model came from the cache
	prepS  float64
}

// moduleRoot walks up from the working directory to the directory holding
// this module's go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil {
			if strings.HasPrefix(string(raw), "module crn\n") {
				return dir, nil
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod of module crn above the working directory")
		}
		dir = parent
	}
}

// executableKey hashes the running binary: caches keyed by it are dropped
// whenever any linked package changes.
func executableKey() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// prepare builds the fixed parts of a run. forceTrain retrains even when a
// cached model exists (the traced pass reports crn.train_s from it) and
// checks the result against the cache byte for byte.
func prepare(ctx context.Context, sz sizes, seed int64, forceTrain bool) (*prepared, error) {
	start := time.Now()
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	key, err := executableKey()
	if err != nil {
		return nil, fmt.Errorf("hash executable: %w", err)
	}
	p := &prepared{sz: sz, seed: seed, root: root, key: key,
		work: filepath.Join(root, ".bench_build", "crnbench")}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return nil, err
	}
	p.dropStaleCaches()

	// The binary under test. go build is a no-op when nothing changed.
	p.serveBin = filepath.Join(p.work, "crnserve")
	build := exec.CommandContext(ctx, "go", "build", "-o", p.serveBin, "./cmd/crnserve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/crnserve: %v\n%s", err, out)
	}

	p.sys, err = crn.OpenSynthetic(ctx, crn.WithTitles(sz.Titles), crn.WithDataSeed(sz.DBSeed))
	if err != nil {
		return nil, fmt.Errorf("open database: %w", err)
	}
	if err := p.loadOrTrainModel(ctx, forceTrain); err != nil {
		return nil, err
	}
	if err := p.generateProbes(ctx); err != nil {
		return nil, err
	}
	p.prepS = time.Since(start).Seconds()
	return p, nil
}

// cachePath names a cached artifact of this executable and these constants.
func (p *prepared) cachePath(kind string, n int) string {
	return filepath.Join(p.work, fmt.Sprintf("%s-t%d-n%d-%s.bin", kind, p.sz.Titles, n, p.key))
}

// dropStaleCaches removes artifacts cached by other builds of the harness.
func (p *prepared) dropStaleCaches() {
	matches, _ := filepath.Glob(filepath.Join(p.work, "*.bin"))
	for _, m := range matches {
		if !strings.HasSuffix(m, "-"+p.key+".bin") {
			_ = os.Remove(m) // a leftover costs disk only
		}
	}
}

// writeAtomic publishes data under path via a rename, so an interrupted run
// never leaves a truncated cache file.
func writeAtomic(path string, data []byte) error {
	tmp := fmt.Sprintf("%s.%d.tmp", path, os.Getpid())
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadOrTrainModel trains the containment model through the facade with the
// same options crnserve's startup training uses, or loads the cached blob of
// an earlier run of this executable. Training is bit-reproducible, so the
// cache only skips work; forceTrain proves that by comparing blobs.
func (p *prepared) loadOrTrainModel(ctx context.Context, forceTrain bool) error {
	p.modelPath = p.cachePath("model", p.sz.Pairs)
	cached, cacheErr := os.ReadFile(p.modelPath)
	if cacheErr == nil && !forceTrain {
		if _, err := p.sys.LoadContainmentModel(cached); err == nil {
			p.modelBlob = cached
			return nil
		}
	}
	mcfg := crn.DefaultModelConfig()
	mcfg.Hidden = p.sz.Hidden
	mcfg.Epochs = p.sz.Epochs
	start := time.Now()
	model, err := p.sys.TrainContainmentModel(ctx,
		crn.WithPairs(p.sz.Pairs), crn.WithSeed(p.sz.TrainSeed), crn.WithModelConfig(mcfg))
	if err != nil {
		return fmt.Errorf("train model: %w", err)
	}
	p.trainS = time.Since(start).Seconds()
	blob, err := model.Save()
	if err != nil {
		return fmt.Errorf("save model: %w", err)
	}
	if cacheErr == nil && !bytes.Equal(blob, cached) {
		return fmt.Errorf("training is not reproducible: retrained model differs from the cached blob %s", p.modelPath)
	}
	p.modelBlob = blob
	return writeAtomic(p.modelPath, blob)
}

// seededPool returns the queries pool crnserve builds at startup for
// (-pool n, -pool-seed): seeded through the same facade call, cached on
// disk in insertion order so later runs skip the exact executions.
func (p *prepared) seededPool(ctx context.Context, n int, opts ...crn.PoolOption) (*crn.QueriesPool, error) {
	path := p.cachePath(fmt.Sprintf("pool-s%d", p.sz.PoolSeed), n)
	if raw, err := os.ReadFile(path); err == nil {
		if qp, err := pool.Load(p.sys.Schema(), bytes.NewReader(raw), opts...); err == nil && qp.Len() == n {
			return qp, nil
		}
	}
	qp := p.sys.NewQueriesPool(opts...)
	if err := p.sys.SeedPool(ctx, qp, n, p.sz.PoolSeed); err != nil {
		return nil, fmt.Errorf("seed pool: %w", err)
	}
	var buf bytes.Buffer
	if err := qp.Save(&buf); err != nil {
		return nil, err
	}
	return qp, writeAtomic(path, buf.Bytes())
}

// Stream identifiers: each request stream draws from its own generator, so
// lengthening one (a longer window needs more cold probes) never shifts
// another.
const (
	streamHot = iota + 1
	streamEval
	streamCold
	streamWrite
	streamLayer // fresh, never-seen queries consumed by the layer timing loops
)

// stream draws distinct queries for one request stream of this seed.
type stream struct {
	gen  *workload.Generator
	seen map[string]bool // shared across streams: no query appears twice anywhere
	i    int
}

func (p *prepared) newStream(id int, seen map[string]bool) *stream {
	return &stream{gen: workload.NewGenerator(p.sys.Schema(), p.sys.DB(), p.seed*16+int64(id)), seen: seen}
}

// next draws one query not seen before, cycling 0, 1 and 2 joins — the
// paper's cardinality-test construction (steps 1 and 2 of the generator).
func (s *stream) next() (probe, error) {
	for attempts := 0; attempts < 1000; attempts++ {
		q, err := s.gen.InitialQuery(s.i % 3)
		if err != nil {
			return probe{}, err
		}
		if (s.i/3+attempts)%2 == 1 {
			q = s.gen.Variant(q)
		}
		if key := q.Key(); !s.seen[key] {
			s.seen[key] = true
			s.i++
			return probe{SQL: q.SQL(), Q: q}, nil
		}
	}
	return probe{}, fmt.Errorf("generator exhausted after %d distinct queries", s.i)
}

func (s *stream) take(n int) ([]probe, error) {
	out := make([]probe, 0, n)
	for len(out) < n {
		pr, err := s.next()
		if err != nil {
			return nil, err
		}
		out = append(out, pr)
	}
	return out, nil
}

// generateProbes draws the hot set and the evaluation set. Evaluation
// probes are kept only when their exact result is non-empty: q-error against
// an empty result measures the clamp, not the estimator.
func (p *prepared) generateProbes(ctx context.Context) error {
	seen := map[string]bool{}
	hot, err := p.newStream(streamHot, seen).take(p.sz.Hot)
	if err != nil {
		return fmt.Errorf("hot set: %w", err)
	}
	p.hot = hot
	ev := p.newStream(streamEval, seen)
	for len(p.eval) < p.sz.Eval {
		pr, err := ev.next()
		if err != nil {
			return fmt.Errorf("evaluation set: %w", err)
		}
		truth, err := p.sys.TrueCardinality(ctx, pr.Q)
		if err != nil {
			return fmt.Errorf("exact cardinality of %q: %w", pr.SQL, err)
		}
		if truth > 0 {
			p.eval = append(p.eval, pr)
			p.evalTruth = append(p.evalTruth, truth)
		}
	}
	return nil
}

// hotKeys marks the hot and evaluation sets in a fresh seen-map, so cold and
// write streams never collide with them.
func (p *prepared) hotKeys() map[string]bool {
	seen := make(map[string]bool, len(p.hot)+len(p.eval))
	for _, pr := range p.hot {
		seen[pr.Q.Key()] = true
	}
	for _, pr := range p.eval {
		seen[pr.Q.Key()] = true
	}
	return seen
}

// generateCold draws n never-repeating probes disjoint from the hot set.
func (p *prepared) generateCold(n int) error {
	cold, err := p.newStream(streamCold, p.hotKeys()).take(n)
	if err != nil {
		return fmt.Errorf("cold stream: %w", err)
	}
	p.cold = cold
	return nil
}

// generateWrites draws n feedback records absent from the initial pool and
// from the hot set, each with its exact cardinality.
func (p *prepared) generateWrites(ctx context.Context, n int, initial *crn.QueriesPool) error {
	s := p.newStream(streamWrite, p.hotKeys())
	p.writes = make([]write, 0, n)
	for len(p.writes) < n {
		pr, err := s.next()
		if err != nil {
			return fmt.Errorf("write stream: %w", err)
		}
		if initial.Contains(pr.Q) {
			continue
		}
		truth, err := p.sys.TrueCardinality(ctx, pr.Q)
		if err != nil {
			return fmt.Errorf("exact cardinality of %q: %w", pr.SQL, err)
		}
		p.writes = append(p.writes, write{probe: pr, Truth: truth})
	}
	return nil
}

// --- Request rendering --------------------------------------------------------

// jsonBody marshals v without HTML escaping: SQL is full of < and >, and no
// real client sends them as \u003c.
func jsonBody(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(err) // strings and integers always marshal
	}
	return bytes.TrimRight(buf.Bytes(), "\n")
}

// httpRequest renders one complete HTTP/1.1 request. The Host header is a
// constant, so the bytes depend on the seed alone — not on the port the
// server happened to get.
func httpRequest(path, contentType string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: crnbench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		path, contentType, len(body))
	b.Write(body)
	return b.Bytes()
}

func estimateRequest(sql string) []byte {
	return httpRequest("/estimate", "application/json", jsonBody(map[string]string{"query": sql}))
}

func sqls(ps []probe) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.SQL
	}
	return out
}

func queries(ps []probe) []query.Query {
	out := make([]query.Query, len(ps))
	for i, p := range ps {
		out[i] = p.Q
	}
	return out
}
