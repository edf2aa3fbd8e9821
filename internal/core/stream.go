package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
)

// ErrNoQueryIndex is returned by Stream.Query before any successful
// TopK/TopKClusters run: there is no captured index to probe and no
// previous arguments to replay for a transparent build.
var ErrNoQueryIndex = errors.New("core: stream query before TopK (no index to probe)")

// CheckpointError reports that a TopKClusters run computed its result
// but the SetCheckpointEvery hook failed to persist it. The result the
// error rides along with is valid — only durability is degraded — so
// callers that can proceed without the checkpoint (a serving layer, a
// transparent Query rebuild) should unwrap this type with errors.As,
// use the result, and surface the persistence failure out of band
// (TopKClusters already bumps the checkpoint_failures obs counter).
type CheckpointError struct {
	// Records is the stream length when the checkpoint was attempted.
	Records int
	// Err is the hook's error.
	Err error
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("core: stream checkpoint at %d records: %v", e.Records, e.Err)
}

// Unwrap exposes the hook's error to errors.Is/As.
func (e *CheckpointError) Unwrap() error { return e.Err }

// defaultReplanGrowth is the dataset growth factor past which a stream
// re-designs its plan: when the stream holds at least this many times
// the records it had at design time, the next query re-runs scheme
// selection and cost calibration before filtering.
const defaultReplanGrowth = 2.0

// Stream answers top-k entity queries over a growing dataset — the
// online setting the paper sketches as future work in Section 9. The
// stream keeps one long-lived hash cache: base hash values computed for
// a record during one query are reused by every later query, so after
// records stop arriving the marginal cost of a query approaches the
// cost of re-clustering alone, with no re-hashing.
//
// The hashing plan is designed lazily at the first query (it needs
// records for vector dimensions and cost calibration). A plan designed
// on a small prefix goes stale as records accumulate — the calibrated
// cost model and the scheme budgets reflect the old dataset — so the
// stream re-designs it once the dataset grows past a configurable
// factor (default 2x) of its size at design time. Re-designs preserve
// the hash cache whenever the re-designed hashers are identical to the
// old ones (they are, for a fixed rule, seed and field layout: hasher
// descriptors depend only on those), so amortization survives
// re-planning. Stream is not safe for concurrent use.
type Stream struct {
	rule    distance.Rule
	cfg     SequenceConfig
	ds      *record.Dataset
	plan    *Plan
	cache   *Cache
	pool    *HashPool
	workers int
	shards  int
	hashMin int
	sink    obs.Sink

	// ckptEvery/ckptFn/ckptAt drive the periodic checkpoint hook
	// (SetCheckpointEvery): after a successful TopKClusters, fn runs
	// when at least ckptEvery records arrived since the last checkpoint.
	ckptEvery int
	ckptFn    func(*Stream) error
	ckptAt    int

	// replanGrowth is the growth factor that triggers a re-design (0
	// means defaultReplanGrowth; +Inf disables re-planning).
	replanGrowth float64
	// plannedAt is ds.Len() when the current plan was designed.
	plannedAt int
	// replans counts plan re-designs performed so far.
	replans int

	// qix is the point-lookup index captured by the latest TopKClusters
	// run (see Query); nil before the first run.
	qix *QueryIndex
	// qBuiltAt is ds.Len() when qix was built.
	qBuiltAt int
	// qLastK / qLastKhat replay the latest TopKClusters arguments when
	// Query must rebuild a stale index.
	qLastK, qLastKhat int
	// queryProbes is the per-table probe-key count for Query (0 means
	// DefaultQueryProbes).
	queryProbes int
	// queryRefresh is the add count past which Query rebuilds the
	// index (>0 absolute, 0 heuristic, <0 never; see SetQueryRefresh).
	queryRefresh int

	// engine, when non-nil, replaces the built-in filtering engine
	// (SetEngine): TopKClusters delegates each pass to it instead of
	// calling Filter. The stream then keeps no signature cache and no
	// point-query index of its own — the engine owns the expensive
	// state (the sharded engine keeps per-shard caches).
	engine FilterFunc
}

// FilterFunc is a pluggable filtering engine for a Stream: one
// filtering pass over the stream's dataset with the stream's current
// plan. Implementations must honor the core.Options semantics they
// support and return results equivalent to Filter (the sharded engine
// returns byte-identical ones). The Cache, HashPool and Capture fields
// of opts are nil when a Stream drives a custom engine: the engine
// owns its caching state across calls.
type FilterFunc func(ds *record.Dataset, plan *Plan, opts Options) (*Result, error)

// NewStream creates an empty stream for the given matching rule. The
// stream keeps one scratch pool alongside the hash cache, so the hash
// stage's bucket tables and key buffers are recycled across queries,
// not just across one query's rounds (Stream is not safe for
// concurrent use, which is exactly the pool's contract).
func NewStream(rule distance.Rule, cfg SequenceConfig) *Stream {
	return &Stream{rule: rule, cfg: cfg, ds: &record.Dataset{Name: "stream"}, pool: NewHashPool()}
}

// Add appends a record and returns its ID. The fields must follow the
// same layout as every other record in the stream.
func (s *Stream) Add(fields ...record.Field) int {
	return s.ds.Add(-1, fields...)
}

// AddWithTruth appends a record with a ground-truth entity label
// (useful in evaluation settings).
func (s *Stream) AddWithTruth(entity int, fields ...record.Field) int {
	return s.ds.Add(entity, fields...)
}

// SetWorkers sets the worker-pool size used by subsequent queries
// (Options.Workers semantics: 0 means GOMAXPROCS, 1 forces the serial
// paths) and optionally the bucket-map shard count of the parallel
// hash stage (Options.HashShards semantics: 0 means workers). Query
// results are identical for every combination.
func (s *Stream) SetWorkers(workers, hashShards int) {
	s.workers = workers
	s.shards = hashShards
}

// SetHashMinParallel sets the cluster-size floor below which hashing
// rounds stay serial (Options.HashMinParallel semantics: 0 keeps the
// built-in production floor). Results are identical for every value —
// the knob exists for tuning and for exercising the parallel hash path
// on small datasets in tests.
func (s *Stream) SetHashMinParallel(n int) { s.hashMin = n }

// SetObs attaches an observability sink: each query is reported as a
// StageStream span wrapping the filter run's own spans and counters,
// and plan re-designs bump the replans counter. A nil sink detaches.
func (s *Stream) SetObs(sink obs.Sink) { s.sink = sink }

// SetEngine replaces the stream's built-in filtering engine with fn
// (internal/shard attaches its sharded engine this way; the import
// points from shard to core, so the hook lives here). A nil fn
// restores the built-in engine.
//
// With a custom engine attached the stream stops maintaining its own
// signature cache and point-query index: the engine owns signature
// state (and must keep it consistent with the growing dataset), and
// Query returns ErrNoQueryIndex — point lookups need the built-in
// engine's bucket capture. Plan design, growth-triggered re-planning
// and checkpoint hooks behave unchanged.
func (s *Stream) SetEngine(fn FilterFunc) {
	s.engine = fn
	if fn != nil {
		s.cache = nil
	}
}

// Engine reports whether a custom filtering engine is attached.
func (s *Stream) Engine() bool { return s.engine != nil }

// Obs reports the stream's observability sink (nil when detached);
// snapshot codecs use it to report save/restore spans on the stream's
// own sink.
func (s *Stream) Obs() obs.Sink { return s.sink }

// SetCheckpointEvery registers a periodic checkpoint hook: after every
// successful TopKClusters, fn runs when at least every records were
// added since the last checkpoint (or since the hook was registered). A
// typical fn snapshots the stream to durable storage (e.g.
// snapio.SaveFile). When fn fails, TopKClusters returns the query's
// result together with a *CheckpointError — the computation succeeded;
// only its persistence did not. every < 1 or a nil fn disables the
// hook.
//
// Registration counts the records already present as checkpointed:
// hook state is deliberately not persisted, so the standard pattern is
// RestoreStream followed by SetCheckpointEvery, and re-checkpointing
// the entire just-restored (unchanged) session on the very next TopK
// would be pure waste. Only records added after registration count
// toward the cadence.
func (s *Stream) SetCheckpointEvery(every int, fn func(*Stream) error) {
	if every < 1 || fn == nil {
		s.ckptEvery, s.ckptFn = 0, nil
		return
	}
	s.ckptEvery, s.ckptFn = every, fn
	s.ckptAt = s.ds.Len()
}

// SetReplanGrowth sets the dataset growth factor past which a query
// re-designs the plan. The accepted range is (1, +Inf]: pass
// math.Inf(1) to pin the first plan for the stream's lifetime.
// Anything else — values <= 1, NaN, or other non-finite garbage —
// resets to the default (2) instead of silently poisoning the growth
// comparison (NaN <= 1 is false, so NaN used to slip through and
// disable re-planning forever).
func (s *Stream) SetReplanGrowth(factor float64) {
	if math.IsNaN(factor) || factor <= 1 {
		factor = 0
	}
	s.replanGrowth = factor
}

func (s *Stream) effReplanGrowth() float64 {
	if s.replanGrowth == 0 {
		return defaultReplanGrowth
	}
	return s.replanGrowth
}

// Replans reports how many times the stream has re-designed its plan.
func (s *Stream) Replans() int { return s.replans }

// Rule reports the matching rule the stream was created with (serving
// layers echo it back in session metadata).
func (s *Stream) Rule() distance.Rule { return s.rule }

// Len reports the number of records in the stream.
func (s *Stream) Len() int { return s.ds.Len() }

// Dataset exposes the stream's accumulated dataset (read-only use).
func (s *Stream) Dataset() *record.Dataset { return s.ds }

// TopK returns the records of the k largest entities among everything
// added so far. The first call designs the hashing plan; subsequent
// calls reuse it (and all previously computed hash values) until the
// dataset outgrows it.
func (s *Stream) TopK(k int) (*Result, error) {
	return s.TopKClusters(k, 0)
}

// TopKClusters is TopK with an explicit k-hat (number of clusters to
// return). Every successful run also rebuilds the stream's point-query
// index (see Query).
func (s *Stream) TopKClusters(k, returnClusters int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: stream k = %d, want >= 1", k)
	}
	if returnClusters < 0 {
		return nil, fmt.Errorf("core: stream returnClusters = %d, want >= 0", returnClusters)
	}
	if s.ds.Len() == 0 {
		return nil, fmt.Errorf("core: stream has no records")
	}
	if err := s.ds.Validate(); err != nil {
		return nil, err
	}
	// The span ends on every path below: error paths end it with the
	// Errored marker, so span-pairing sinks (JSONL) stay balanced.
	qt := obs.StartStage(s.sink, obs.StageStream)
	if err := s.ensurePlan(); err != nil {
		qt.Errored = true
		qt.End()
		return nil, err
	}
	var res *Result
	var err error
	if s.engine != nil {
		res, err = s.engine(s.ds, s.plan, Options{
			K: k, ReturnClusters: returnClusters,
			Workers: s.workers, HashShards: s.shards, HashMinParallel: s.hashMin,
			Obs: s.sink,
		})
	} else {
		s.cache.Grow(s.ds.Len())
		if s.qix == nil {
			s.qix = &QueryIndex{}
		}
		s.qix.Release(s.pool)
		res, err = Filter(s.ds, s.plan, Options{
			K: k, ReturnClusters: returnClusters, Cache: s.cache, HashPool: s.pool,
			Workers: s.workers, HashShards: s.shards, HashMinParallel: s.hashMin,
			Obs: s.sink, Capture: s.qix,
		})
	}
	if err != nil {
		qt.Errored = true
		qt.End()
		return nil, err
	}
	s.qBuiltAt = s.ds.Len()
	s.qLastK, s.qLastKhat = k, returnClusters
	qt.Workers = res.Stats.Workers
	qt.Items = s.ds.Len()
	qt.End()
	if s.ckptFn != nil && s.ds.Len()-s.ckptAt >= s.ckptEvery {
		if err := s.ckptFn(s); err != nil {
			obs.Count(s.sink, obs.CtrCheckpointFailures, 1)
			return res, &CheckpointError{Records: s.ds.Len(), Err: err}
		}
		s.ckptAt = s.ds.Len()
	}
	return res, nil
}

// SetQueryProbes sets the per-table probe-key count used by Query
// (QueryOptions.Probes semantics: 1 probes exact buckets only, higher
// values add perturbed keys in ascending penalty; 0 resets to
// DefaultQueryProbes).
func (s *Stream) SetQueryProbes(probes int) { s.queryProbes = probes }

// SetQueryRefresh sets how many Adds after an index build Query
// tolerates before rebuilding: records added after a build are
// invisible to point queries until the next rebuild, so the threshold
// trades staleness against rebuild cost. n > 0 rebuilds after n adds;
// n == 0 (the default) uses a heuristic — a quarter of the indexed
// size, at least 16; n < 0 never rebuilds automatically (queries run
// against the last build until TopK/TopKClusters is called again).
func (s *Stream) SetQueryRefresh(n int) { s.queryRefresh = n }

// queryStale reports whether enough records arrived since the last
// index build to warrant a rebuild.
func (s *Stream) queryStale() bool {
	if s.queryRefresh < 0 {
		return false
	}
	threshold := s.queryRefresh
	if threshold == 0 {
		threshold = s.qBuiltAt / 4
		if threshold < 16 {
			threshold = 16
		}
	}
	return s.ds.Len()-s.qBuiltAt >= threshold
}

// Query answers an online point lookup: which of the stream's entities
// does record q belong to? It probes the point-query index the latest
// TopKClusters run captured — multi-probe bucket lookups under H_1
// plus prepared-kernel verification of the bucket candidates — and
// returns at most m candidate clusters, best first. No global
// filtering pass runs: after the index is built, a query costs
// microseconds and reports only a StageQuery span.
//
// The index goes stale as records arrive (new records are invisible
// to it); Query transparently rebuilds it — re-running the last
// TopKClusters — once the adds since the last build exceed the
// SetQueryRefresh threshold. TopK or TopKClusters must have succeeded
// at least once before the first Query. Like the rest of Stream,
// Query is not safe for concurrent use with Add or TopK; concurrent
// Query calls against a fresh (non-stale) index are safe.
func (s *Stream) Query(q *record.Record, m int) (*QueryResult, error) {
	if m < 1 {
		return nil, fmt.Errorf("core: query m = %d, want >= 1", m)
	}
	if s.engine != nil {
		// Custom engines (the sharded one) keep no bucket capture to
		// probe; point lookups are a built-in-engine feature.
		return nil, ErrNoQueryIndex
	}
	if !s.qix.Built() {
		if s.qLastK == 0 {
			return nil, ErrNoQueryIndex
		}
		if err := s.rebuildForQuery(); err != nil {
			return nil, err
		}
	} else if s.queryStale() {
		if err := s.rebuildForQuery(); err != nil {
			return nil, err
		}
	}
	return s.qix.Query(q, m, QueryOptions{Probes: s.queryProbes, Obs: s.sink})
}

// rebuildForQuery transparently re-runs the last TopKClusters to
// refresh the point-query index. A *CheckpointError from the run is
// not fatal here: the rebuild itself succeeded and the fresh index is
// in place — only the checkpoint hook's persistence failed — so the
// lookup must still be answered. TopKClusters already surfaced the
// failure through the checkpoint_failures obs counter.
func (s *Stream) rebuildForQuery() error {
	_, err := s.TopKClusters(s.qLastK, s.qLastKhat)
	if err == nil {
		return nil
	}
	var ce *CheckpointError
	if errors.As(err, &ce) {
		return nil
	}
	return err
}

// QueryFresh reports whether the point-query index is built and not
// stale: the next Query will probe it directly without mutating the
// stream. This is the lock-safety hook for serving layers — a fresh
// index admits concurrent Query calls (they only read), while a Query
// against a stale or absent index triggers a rebuild and must be
// serialized with Add/TopK like any other mutation.
func (s *Stream) QueryFresh() bool {
	return s.qix.Built() && !s.queryStale()
}

// QueryIndex exposes the stream's point-lookup index (nil before the
// first TopK/TopKClusters run) for direct QueryIndex.Query calls with
// custom options.
func (s *Stream) QueryIndex() *QueryIndex { return s.qix }

// ensurePlan designs the plan on first use and re-designs it when the
// dataset has outgrown the design-time size by the configured factor.
// Re-designs keep the hash cache when the new plan's hasher
// descriptors are identical to the old ones (the cached base hash
// values are then still valid — they depend only on the hashers).
func (s *Stream) ensurePlan() error {
	if s.plan != nil &&
		float64(s.ds.Len()) < s.effReplanGrowth()*float64(s.plannedAt) {
		return nil
	}
	plan, err := DesignPlan(s.ds, s.rule, s.cfg)
	if err != nil {
		return err
	}
	switch {
	case s.engine != nil:
		// A custom engine owns signature state; the stream keeps no
		// cache of its own. Replans still count below when one exists.
		if s.plan != nil {
			s.replans++
			obs.Count(s.sink, obs.CtrReplans, 1)
		}
	case s.plan == nil:
		s.cache = NewCache(s.ds, len(plan.Hashers))
	case reflect.DeepEqual(s.plan.HasherDescs, plan.HasherDescs):
		// Same hashers — the long-lived cache stays valid; only the
		// budgets/schemes and the re-calibrated cost model changed.
		s.replans++
		obs.Count(s.sink, obs.CtrReplans, 1)
	default:
		// The hasher set itself changed (e.g. a different rule-driven
		// descriptor after growth); cached values are for the old
		// functions and must be dropped.
		s.cache = NewCache(s.ds, len(plan.Hashers))
		s.replans++
		obs.Count(s.sink, obs.CtrReplans, 1)
	}
	s.plan = plan
	s.plannedAt = s.ds.Len()
	return nil
}

// Plan exposes the designed plan (nil before the first query).
func (s *Stream) Plan() *Plan { return s.plan }

// CachedHashEvals reports the cumulative number of base hash
// evaluations performed across all queries, per hasher. The amortizing
// effect of the stream shows as this growing sublinearly in the number
// of queries.
func (s *Stream) CachedHashEvals() []int64 {
	if s.cache == nil {
		return nil
	}
	return s.cache.HashEvals()
}
