// Package crn reproduces "Improved Cardinality Estimation by Learning
// Queries Containment Rates" (Hayek & Shmueli, EDBT 2020) as a
// self-contained Go library.
//
// The containment rate of query Q1 in query Q2 over a database D is the
// fraction of Q1's result rows that also appear in Q2's result. The paper
// (1) learns containment rates directly with a specialized deep model (CRN)
// and (2) turns any containment-rate estimator into a cardinality estimator
// with the help of a queries pool of previously executed queries — improving
// multi-join cardinality estimates by orders of magnitude over PostgreSQL
// and MSCN baselines.
//
// This package is the public facade, designed for serving: every entry
// point takes a context for cancellation and deadlines, configuration is
// functional options, estimation has first-class batch calls that amortize
// feature encoding and run the neural forward pass matrix-batched, and
// failures surface typed sentinel errors (ErrDialect, ErrNoPoolMatch,
// ErrDimMismatch) usable with errors.Is. A typical session:
//
//	ctx := context.Background()
//	sys, _ := crn.OpenSynthetic(ctx, crn.WithTitles(4000))
//	q1, _ := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1990")
//	q2, _ := sys.ParseQuery("SELECT * FROM title WHERE title.production_year > 1980")
//
//	model, _ := sys.TrainContainmentModel(ctx, crn.WithPairs(5000))
//	rate, _ := model.EstimateContainment(ctx, q1, q2) // ≈ 1.0: q1 ⊆ q2
//
//	pool := sys.NewQueriesPool()
//	sys.RecordExecuted(ctx, pool, q2) // executes q2, stores its true cardinality
//	est := sys.CardinalityEstimator(model, pool)
//	card, _ := est.EstimateCardinality(ctx, q1)
//	cards, _ := est.EstimateCardinalityBatch(ctx, []crn.Query{q1, q2})
//
// Deployments that keep executing queries can close the loop with an
// AdaptiveEstimator: execution feedback (query, true cardinality) streams
// in through RecordFeedback, a background trainer incrementally retrains
// the containment model on it, and improved model generations are
// hot-swapped atomically under live traffic (see adapt.go).
//
// Everything underneath — the synthetic IMDb-like database, the exact
// executor used for ground truth, the neural-network stack, the MSCN and
// PostgreSQL baselines, and the full experiment harness regenerating every
// table and figure of the paper — lives in internal/ packages and is
// exercised through cmd/repro and the root benchmarks. cmd/crnserve wraps
// this facade in an HTTP JSON service (the §5.2 deployment scenario).
package crn

import (
	"context"

	"crn/internal/algebra"
	"crn/internal/contain"
	"crn/internal/datagen"
	"crn/internal/db"
	"crn/internal/exec"
	"crn/internal/feature"
	"crn/internal/guard/failpoint"
	"crn/internal/optimizer"
	"crn/internal/pg"
	"crn/internal/pool"
	"crn/internal/query"
	"crn/internal/schema"
	"crn/internal/sqlparse"
	"crn/internal/workload"
)

// Query is a conjunctive SELECT * query (tables, equi-joins, column
// predicates); see ParseQuery.
type Query = query.Query

// System is an opened database with its exact executor: the substrate on
// which models are trained and queries are answered.
type System struct {
	schema *schema.Schema
	db     *db.Database
	exec   *exec.Executor
	enc    *feature.Encoder
	stmts  *sqlparse.Cache
}

// OpenSynthetic generates a synthetic IMDb-like database (see
// internal/datagen for the correlation structure) and opens it. Options
// size the database (WithTitles, WithDataSeed). Cancellation is observed at
// phase boundaries only — generation itself, once started, runs to
// completion (seconds at default sizes).
func OpenSynthetic(ctx context.Context, opts ...OpenOption) (*System, error) {
	dg := datagen.DefaultConfig()
	for _, o := range opts {
		o(&dg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, err := datagen.Generate(dg)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return Open(d)
}

// Open wraps an existing frozen database.
func Open(d *db.Database) (*System, error) {
	ex, err := exec.New(d)
	if err != nil {
		return nil, err
	}
	enc, err := feature.NewEncoder(d.Schema, d)
	if err != nil {
		return nil, err
	}
	return &System{schema: d.Schema, db: d, exec: ex, enc: enc, stmts: sqlparse.NewCache(d.Schema)}, nil
}

// Schema returns the database schema.
func (s *System) Schema() *schema.Schema { return s.schema }

// DB returns the underlying database snapshot.
func (s *System) DB() *db.Database { return s.db }

// ParseQuery parses the supported conjunctive SQL dialect, e.g.
// "SELECT * FROM title, cast_info WHERE title.id = cast_info.movie_id AND
// cast_info.role_id = 2". Failures wrap ErrDialect.
//
// A recurring request is recognised instead of re-derived: the System keeps
// a statement cache keyed by the exact bytes of sql (another spelling of the
// same query is another entry), so a text parsed before costs one hash and a
// string compare and allocates nothing. The contract:
//
//   - The returned Query may be the very value an earlier call returned. It
//     is shared and immutable: do not modify its Tables, Joins or Preds in
//     place. Appending to them is safe — they carry no spare capacity, so an
//     append copies.
//   - Only successful parses are cached; every error comes from the parser.
//   - The cache is bounded and never invalidated (a System's schema is
//     immutable): at most 8192 statements, each retaining an owned copy of
//     its text — never the caller's bytes — plus its canonical Query. Texts
//     longer than 1024 bytes are parsed and answered but not retained. An
//     entry is ~1 KB for the generated 0–2-join workload, so a full cache is
//     ~8 MB; the worst case (every text a maximal conjunction of distinct
//     minimal predicates) is under 50 MB.
//
// StatementCacheStats reports hits, misses and occupancy.
func (s *System) ParseQuery(sql string) (Query, error) {
	return s.stmts.Parse(sql)
}

// StatementCacheStats reports ParseQuery's statement cache: lookups by
// result, statements held, and well-formed texts too long to be admitted.
type StatementCacheStats = sqlparse.CacheStats

// StatementCacheStats returns a snapshot of the statement-cache counters.
func (s *System) StatementCacheStats() StatementCacheStats { return s.stmts.Stats() }

// TrueCardinality executes the query exactly and returns its result
// cardinality. The exact scan honors ctx cancellation.
func (s *System) TrueCardinality(ctx context.Context, q Query) (int64, error) {
	return s.exec.CardinalityCtx(ctx, q)
}

// TrueContainment executes both queries and returns the exact containment
// rate q1 ⊂% q2 in [0,1]. The queries must share a FROM clause.
func (s *System) TrueContainment(ctx context.Context, q1, q2 Query) (float64, error) {
	return s.exec.ContainmentRateCtx(ctx, q1, q2)
}

// ctxOracle threads a request context into the executor behind the
// context-free workload.Oracle interface used by generation and labeling.
// Both methods carry failpoints (oracle/cardinality, oracle/containment):
// the truth oracle is the adaptation loop's external dependency, and the
// fault-matrix suite must be able to make it time out or error en masse.
type ctxOracle struct {
	ctx context.Context
	ex  *exec.Executor
}

func (o ctxOracle) Cardinality(q query.Query) (int64, error) {
	if err := failpoint.Inject(failpoint.OracleCardinality); err != nil {
		return 0, err
	}
	return o.ex.CardinalityCtx(o.ctx, q)
}

func (o ctxOracle) ContainmentRate(q1, q2 query.Query) (float64, error) {
	if err := failpoint.Inject(failpoint.OracleContainment); err != nil {
		return 0, err
	}
	return o.ex.ContainmentRateCtx(o.ctx, q1, q2)
}

// QueriesPool is the paper's §5.2 pool of executed queries with known
// cardinalities. It is safe for concurrent use: the serving deployment
// appends every executed query while estimators read concurrently. A pool
// restored from Save's bytes, with the same generation, answers with the
// same estimate bits: the restore keeps the saved pool's candidate order,
// recency order and eviction order (checkpoint recovery relies on it).
type QueriesPool = pool.Pool

// NewQueriesPool creates an empty pool. Options bound it (WithPoolCap);
// the zero-option pool is unbounded, as in the paper.
func (s *System) NewQueriesPool(opts ...PoolOption) *QueriesPool { return pool.New(opts...) }

// RecordExecuted executes q, stores (q, |q|) in the pool, and returns the
// cardinality — the paper's "the DBMS continuously executes queries, we
// store them with their actual cardinalities". added reports whether the
// pool accepted the entry (false: an equivalent query was already pooled);
// it comes from the pool's own atomic insert, so concurrent recordings of
// the same query see exactly one true.
func (s *System) RecordExecuted(ctx context.Context, p *QueriesPool, q Query) (card int64, added bool, err error) {
	c, err := s.exec.CardinalityCtx(ctx, q)
	if err != nil {
		return 0, false, err
	}
	return c, p.Add(q, c), nil
}

// SeedPool fills the pool with n generated queries (equally distributed
// over all FROM clauses, each clause seeded with an empty-predicate query,
// random fills restricted to non-empty results) executed against the
// database — the §6.2 construction.
func (s *System) SeedPool(ctx context.Context, p *QueriesPool, n int, seed int64) error {
	gen := workload.NewGenerator(s.schema, s.db, seed)
	oracle := ctxOracle{ctx: ctx, ex: s.exec}
	labeled, err := gen.NonEmptyPoolQueries(oracle, n)
	if err != nil {
		return err
	}
	for _, lq := range labeled {
		p.Add(lq.Q, lq.Card)
	}
	return nil
}

// BaselineEstimator is any query-level cardinality model (the PostgreSQL-
// style profile, MSCN, ...).
type BaselineEstimator = contain.CardEstimator

// AnalyzeBaseline builds the PostgreSQL-style profiling estimator over the
// system's database.
func (s *System) AnalyzeBaseline() (BaselineEstimator, error) {
	return pg.Analyze(s.db, pg.DefaultConfig())
}

// --- Compound queries (§9 extensions) --------------------------------------

// Expr is a compound query expression (OR / EXCEPT / UNION over
// conjunctive queries with one shared FROM clause).
type Expr = algebra.Expr

// QueryExpr lifts a conjunctive query into an expression.
func QueryExpr(q Query) Expr { return algebra.Leaf{Q: q} }

// OrExpr is the set union of two expressions' results (the paper's OR).
func OrExpr(l, r Expr) Expr { return algebra.Or{L: l, R: r} }

// AndExpr is the set intersection of two expressions' results.
func AndExpr(l, r Expr) Expr { return algebra.And{L: l, R: r} }

// ExceptExpr is the set difference of two expressions' results.
func ExceptExpr(l, r Expr) Expr { return algebra.Except{L: l, R: r} }

// UnionExpr is the bag append of two results (top level only).
func UnionExpr(l, r Expr) Expr { return algebra.Union{L: l, R: r} }

// EstimateCompound estimates |e| with any base estimator via the §9
// inclusion-exclusion identities.
func (s *System) EstimateCompound(m BaselineEstimator, e Expr) (float64, error) {
	return algebra.Cardinality(m, e)
}

// TrueCompound computes |e| exactly from the executor.
func (s *System) TrueCompound(e Expr) (float64, error) {
	return algebra.Cardinality(contain.TruthCard{T: s.exec}, e)
}

// --- Join ordering (the paper's motivating application) --------------------

// OptimizeJoinOrder returns the cheapest left-deep join order for q under
// the given cardinality estimator, plus its estimated C_out cost.
func (s *System) OptimizeJoinOrder(m BaselineEstimator, q Query) (order []string, estimatedCost float64, err error) {
	plan, err := optimizer.New(m).Optimize(q)
	if err != nil {
		return nil, 0, err
	}
	return plan.Order, plan.EstimatedCost, nil
}

// TrueJoinCost evaluates a join order's actual C_out cost (the sum of true
// intermediate result cardinalities).
func (s *System) TrueJoinCost(q Query, order []string) (float64, error) {
	return optimizer.Cost(contain.TruthCard{T: s.exec}, q, order)
}
