// Package adalsh is a Go implementation of Adaptive Locality-Sensitive
// Hashing for top-k entity resolution (Verroios and Garcia-Molina,
// "Top-K Entity Resolution with Adaptive Locality-Sensitive Hashing").
//
// Given a dataset of records and a matching rule (a distance threshold
// over one or more record fields), the library finds the records of the
// k largest entities — the k largest connected components of the
// rule's match graph — without computing the full quadratic closure.
// It adaptively applies a sequence of increasingly expensive LSH-based
// clustering functions: records unlikely to belong to a top-k entity
// receive only a handful of hash evaluations, while the candidate top
// clusters are refined and finally verified with exact distances.
//
// # Quick start
//
//	ds := &adalsh.Dataset{Name: "articles"}
//	for _, doc := range docs {
//		ds.Add(-1, adalsh.NewSet(shingles(doc))) // -1: truth unknown
//	}
//	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.6)
//	res, err := adalsh.Filter(ds, rule, adalsh.Config{K: 10})
//	// res.Clusters[0] holds the records of the largest entity.
//
// The packages under internal/ implement the substrates (LSH families,
// scheme optimization, parent-pointer trees, baselines, synthetic
// datasets and the paper's experiment harness); this package is the
// stable public surface.
package adalsh

import (
	"io"

	"github.com/topk-er/adalsh/internal/blocking"
	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/planio"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/shard"
	"github.com/topk-er/adalsh/internal/snapio"
)

// Dataset is a collection of records with optional ground truth. Use
// (*Dataset).Add to append records; pass entity -1 when the truth is
// unknown (the usual case outside evaluation).
type Dataset = record.Dataset

// Record is a single item to resolve.
type Record = record.Record

// Field is one record attribute: a Vector, a Set or a Bits fingerprint.
type Field = record.Field

// Vector is a dense feature vector field (compared by cosine distance).
type Vector = record.Vector

// Set is a sorted set of 64-bit element hashes (compared by Jaccard
// distance). Build one with NewSet.
type Set = record.Set

// NewSet builds a Set from element hashes, sorting and de-duplicating.
func NewSet(elems []uint64) Set { return record.NewSet(elems) }

// Bits is a fixed-width binary fingerprint field (e.g. a SimHash),
// compared by normalized Hamming distance. Build one with NewBits.
type Bits = record.Bits

// NewBits builds a Bits field of the given width from packed 64-bit
// words (least significant word first).
func NewBits(words []uint64, width int) Bits { return record.NewBits(words, width) }

// Rule decides whether two records refer to the same entity.
type Rule = distance.Rule

// Metric is a normalized distance over one field kind.
type Metric = distance.Metric

// Cosine returns the cosine (angular) metric for Vector fields,
// normalized as angle/180deg.
func Cosine() Metric { return distance.Cosine{} }

// Jaccard returns the Jaccard distance metric for Set fields.
func Jaccard() Metric { return distance.Jaccard{} }

// JaccardOPH is Jaccard hashed with one-permutation MinHash instead of
// the classic one-hash-per-function family: signatures cost
// O(|S| + K) set-element hashes instead of O(|S| * K). Match decisions
// are identical to Jaccard (the metric is the same); only the LSH
// signatures differ statistically, with the same per-function collision
// law P(collide) = similarity.
func JaccardOPH() Metric { return distance.Jaccard{OPH: true} }

// WithJaccardOPH returns a copy of rule with every Jaccard leaf
// switched to the one-permutation MinHash family (JaccardOPH). Rules
// without Jaccard leaves are returned unchanged.
func WithJaccardOPH(r Rule) Rule { return distance.WithJaccardOPH(r) }

// Hamming returns the normalized Hamming distance metric for Bits
// fields (differing bits / width), hashed by bit sampling.
func Hamming() Metric { return distance.Hamming{} }

// Euclidean returns the scaled L2 metric for Vector fields:
// ||a-b||/scale, clamped to 1, hashed by p-stable projections (E2LSH).
// Pick scale around 2-4x the match threshold distance.
func Euclidean(scale float64) Metric { return distance.Euclidean{Scale: scale} }

// EuclideanWithBucket is Euclidean with an explicit projection bucket
// width (as a fraction of scale; the default is 0.25). Larger buckets
// collide more per function; the scheme optimizer compensates with
// more functions per table.
func EuclideanWithBucket(scale, bucketFraction float64) Metric {
	return distance.Euclidean{Scale: scale, BucketFraction: bucketFraction}
}

// Degrees converts an angle in degrees to a normalized cosine distance
// threshold.
func Degrees(deg float64) float64 { return distance.Degrees(deg) }

// SimilarityAtLeast converts a minimum similarity (e.g. "Jaccard
// similarity at least 0.4") to the corresponding distance threshold.
func SimilarityAtLeast(sim float64) float64 { return distance.Similarity(sim) }

// MatchThreshold matches two records when the metric distance on one
// field is at most maxDistance.
func MatchThreshold(field int, m Metric, maxDistance float64) Rule {
	return distance.Threshold{Field: field, Metric: m, MaxDistance: maxDistance}
}

// MatchAll matches when every sub-rule matches (AND).
func MatchAll(rules ...Rule) Rule { return distance.And(rules) }

// MatchAny matches when at least one sub-rule matches (OR).
func MatchAny(rules ...Rule) Rule { return distance.Or(rules) }

// MatchWeightedAverage matches when the weighted average of per-field
// distances is at most maxDistance. Weights must sum to 1.
func MatchWeightedAverage(fields []int, ms []Metric, weights []float64, maxDistance float64) Rule {
	return distance.WeightedAverage{Fields: fields, Metrics: ms, Weights: weights, MaxDistance: maxDistance}
}

// PreparedRule is a match kernel specialized to a fixed record slice:
// per-record invariants (vector norms, popcounts, intersection
// budgets) are computed once, and each MatchIdx call pays only for the
// threshold-aware decision — with exactly the decision Rule.Match
// would make. The filtering, recovery and baseline pipelines prepare
// kernels internally; PrepareRule is for callers running their own
// comparison loops. MatchIdx is safe for concurrent use.
type PreparedRule = distance.PreparedRule

// PreparedRuleStats reports a prepared kernel's effectiveness: pairs
// decided from per-record invariants alone, and comparisons abandoned
// early once the outcome was decided.
type PreparedRuleStats = distance.PreparedStats

// PrepareRule builds the prepared match kernel for rule over
// ds.Records[ids[i]]; the returned kernel's MatchIdx(i, j) takes local
// indices into ids. Rule shapes or metrics outside the built-in set
// degrade to calling Rule.Match per pair, so decisions never change.
func PrepareRule(ds *Dataset, rule Rule, ids []int32) PreparedRule {
	return distance.Prepare(ds, rule, ids)
}

// SequenceConfig controls the design of the hashing function sequence;
// the zero value reproduces the paper's default (Exponential growth
// from 20 hash functions, 8 levels, epsilon 0.001).
type SequenceConfig = core.SequenceConfig

// Budget growth modes for SequenceConfig.Mode.
const (
	Exponential = core.Exponential
	Linear      = core.Linear
)

// Plan is a designed filtering configuration: the hashing function
// sequence, the underlying LSH families and the calibrated cost model.
// Design is deterministic given the seed and happens offline; reuse a
// Plan across Filter calls on the same dataset and rule.
type Plan = core.Plan

// Cluster is one final output cluster.
type Cluster = core.Cluster

// Stats describes the work a filtering run performed.
type Stats = core.Stats

// Result is a filtering outcome: the k-hat largest clusters (largest
// first) and their record union.
type Result = core.Result

// RoundInfo is the per-round progress snapshot passed to
// Config.OnRound.
type RoundInfo = core.RoundInfo

// Config controls a Filter run.
type Config struct {
	// K is the number of top entities to find. Required.
	K int
	// ReturnClusters is the number of largest clusters to return
	// (k-hat >= K); returning more trades precision for recall
	// (Section 6.1.2 of the paper). Zero means K.
	ReturnClusters int
	// Sequence configures the hashing sequence; the zero value is the
	// paper's default.
	Sequence SequenceConfig
	// Workers is the worker-pool size for the parallel stages (the
	// pairwise verification of candidate clusters, the bucket-key
	// precompute of large hashing rounds, and their sharded bucket
	// insertion). 0 uses every CPU (runtime.GOMAXPROCS); 1 forces the
	// serial paths. The filtering output is identical for every value —
	// only wall-clock time and the Stats wall/work split change.
	Workers int
	// HashShards is the number of bucket-map shards of the parallel
	// hash stage; 0 derives it from Workers. The output is identical
	// for every value — tune it only when profiling shows shard-map
	// contention or imbalance.
	HashShards int
	// Shards > 1 runs the scale-out engine (internal/shard): records
	// are partitioned across that many independent engine shards, each
	// hashing its own records with its own signature cache, and a
	// deterministic cross-shard reconcile pass merges the per-shard
	// bucket state. The output is byte-identical to the single-engine
	// run for every shard count; Workers bounds how many shards hash,
	// and how many reconcile probe workers run, concurrently. 0 or 1
	// uses the single engine.
	Shards int
	// OnRound, when non-nil, receives a progress snapshot after every
	// adaptive round — hook for logging or progress display.
	OnRound func(RoundInfo)
	// Obs, when non-nil, receives per-stage spans (wall/busy time,
	// worker and wave counts) and work counters (hash evaluations,
	// bucket collisions, pair comparisons, merges, ...) as the run
	// progresses. Use NewStatsCollector for in-memory aggregation or
	// NewStatsWriter for JSON-lines streaming; nil costs nothing.
	Obs StatsSink
}

// options converts the public config to core options.
func (c Config) options() core.Options {
	return core.Options{
		K: c.K, ReturnClusters: c.ReturnClusters,
		Workers: c.Workers, HashShards: c.HashShards,
		OnRound: c.OnRound, Obs: c.Obs,
	}
}

// StatsSink receives stage spans and counter deltas from instrumented
// runs. Implementations must be safe for concurrent use; a nil sink
// disables reporting at (near) zero cost.
type StatsSink = obs.Sink

// StatsSpan is one completed stage-scoped measurement: wall time,
// cumulative busy (work) time, worker and wave counts, input size.
type StatsSpan = obs.Span

// StatsCounter identifies one monotonic work counter (its String is the
// stable snake_case name used in JSON output).
type StatsCounter = obs.Counter

// StatsCollector is the in-memory StatsSink: atomic counters plus a
// span log, with per-stage aggregation helpers.
type StatsCollector = obs.Collector

// NewStatsCollector creates an empty in-memory stats collector.
func NewStatsCollector() *StatsCollector { return obs.NewCollector() }

// StatsWriter is the streaming StatsSink: one JSON object per span or
// counter event, written to the underlying writer as it happens.
type StatsWriter = obs.JSONL

// NewStatsWriter creates a JSON-lines stats sink over w.
func NewStatsWriter(w io.Writer) *StatsWriter { return obs.NewJSONL(w) }

// TeeStats combines several sinks into one, dropping nils (e.g. an
// in-memory collector plus a JSON-lines stream).
func TeeStats(sinks ...StatsSink) StatsSink { return obs.Tee(sinks...) }

// NewPlan designs the Adaptive LSH plan for a dataset and rule. The
// rule may be a single MatchThreshold, a MatchWeightedAverage, or a
// flat MatchAll/MatchAny over two or more of those.
func NewPlan(ds *Dataset, rule Rule, cfg SequenceConfig) (*Plan, error) {
	return core.DesignPlan(ds, rule, cfg)
}

// SavePlan serializes a designed plan as JSON. The design step
// (scheme optimization, hasher seeding, cost calibration) is offline;
// saving its outcome lets production processes load an identical plan
// with LoadPlan instead of re-designing.
func SavePlan(w io.Writer, plan *Plan) error { return planio.Write(w, plan) }

// LoadPlan reads a plan saved with SavePlan. The loaded plan behaves
// identically to the saved one (hashers are rebuilt deterministically
// from their descriptors). It applies to any dataset with the same
// field layout as the design-time dataset.
func LoadPlan(r io.Reader) (*Plan, error) { return planio.Read(r) }

// Filter runs Adaptive LSH (Algorithm 1) end to end: designs the plan
// and returns the records of the k largest entities. For repeated runs
// on the same dataset and rule, design once with NewPlan and call
// FilterWithPlan.
func Filter(ds *Dataset, rule Rule, cfg Config) (*Result, error) {
	plan, err := NewPlan(ds, rule, cfg.Sequence)
	if err != nil {
		return nil, err
	}
	return FilterWithPlan(ds, plan, cfg)
}

// FilterWithPlan runs Adaptive LSH with a pre-designed plan. When
// cfg.Shards > 1 the run goes through the sharded scale-out engine
// with byte-identical results.
func FilterWithPlan(ds *Dataset, plan *Plan, cfg Config) (*Result, error) {
	if cfg.Shards > 1 {
		o := cfg.options()
		sopts := shard.Options{
			Shards: cfg.Shards, K: o.K, ReturnClusters: o.ReturnClusters,
			Workers: o.Workers, OnRound: o.OnRound, Obs: o.Obs,
		}
		return shard.Filter(ds, plan, sopts)
	}
	return core.Filter(ds, plan, cfg.options())
}

// FilterIncremental streams final clusters as they are found, largest
// entities first (the incremental mode of Section 4.2). emit may
// return false to stop early.
func FilterIncremental(ds *Dataset, plan *Plan, cfg Config, emit func(Cluster) bool) error {
	return core.FilterIncremental(ds, plan, cfg.options(), emit, nil)
}

// FilterPipeline runs Adaptive LSH in a goroutine and delivers final
// clusters on a channel as they are found, largest entity first — the
// filtering-to-ER pipelining sketched in the paper's Section 9. A
// downstream ER or aggregation stage can start consuming the biggest
// entity while the filter is still working on the rest.
//
// The clusters channel is closed when filtering completes or aborts;
// the error channel then yields the terminal error (nil on success).
// Abandoning the pipeline early leaks the filtering goroutine until it
// finds the next cluster, so drain the channel or read it fully.
func FilterPipeline(ds *Dataset, plan *Plan, cfg Config) (<-chan Cluster, <-chan error) {
	clusters := make(chan Cluster)
	errc := make(chan error, 1)
	go func() {
		defer close(clusters)
		err := core.FilterIncremental(ds, plan, cfg.options(), func(c Cluster) bool {
			clusters <- c
			return true
		}, nil)
		errc <- err
	}()
	return clusters, errc
}

// FilterLSH runs the one-shot LSH-X blocking baseline: x hash
// functions on every record, then pairwise verification.
func FilterLSH(ds *Dataset, rule Rule, x int, cfg Config) (*Result, error) {
	return blocking.LSHX(ds, rule, blocking.LSHXOptions{
		X: x, K: cfg.K, ReturnClusters: cfg.ReturnClusters,
		Workers: cfg.Workers, HashShards: cfg.HashShards, Seed: cfg.Sequence.Seed,
		Obs: cfg.Obs,
	})
}

// FilterPairs runs the exact baseline: all pairwise distances with
// transitive skipping. Quadratic; intended for evaluation.
func FilterPairs(ds *Dataset, rule Rule, cfg Config) (*Result, error) {
	return blocking.PairsObs(ds, rule, cfg.K, cfg.ReturnClusters, cfg.Workers, cfg.Obs)
}

// Stream answers repeated top-k queries over a growing dataset,
// reusing hash values across queries (the online setting of the
// paper's Section 9). Create with NewStream, feed with Add, query with
// TopK; after any TopK, Query answers online point lookups ("which
// entity does this record belong to?") in microseconds by probing the
// retained round-one bucket state instead of re-clustering.
type Stream = core.Stream

// NewStream creates an empty record stream for the given matching
// rule. The hashing plan is designed at the first TopK call.
func NewStream(rule Rule, cfg SequenceConfig) *Stream {
	return core.NewStream(rule, cfg)
}

// ShardStream attaches the sharded scale-out engine to a stream:
// subsequent TopK/TopKClusters calls partition records across the
// given number of engine shards (byte-identical output, per-shard
// signature caches that persist across queries). Attach before the
// first TopK. Point queries (Stream.Query) are unavailable on a
// sharded stream and return an error. Save still snapshots records
// and plan, but the per-shard signature caches stay process-local —
// a restored stream re-hashes on its next query (and restores
// unsharded; call ShardStream again after Restore).
func ShardStream(s *Stream, shards int) error {
	_, err := shard.Attach(s, shards)
	return err
}

// Save snapshots a live stream — records, designed plan with its
// calibrated cost model, and every cached hash signature — into a
// versioned binary format. A session restored with Restore continues
// exactly where the saved one stopped: continued queries return
// byte-identical clusters and work counters to a never-interrupted
// run, and already-hashed records are never re-hashed. The write is
// not atomic by itself; to checkpoint to a file, prefer
// Stream.SetCheckpointEvery with a write-to-temp-then-rename helper
// so a crash mid-save cannot corrupt the previous checkpoint.
func Save(w io.Writer, s *Stream) error { return snapio.Snapshot(w, s) }

// Restore rebuilds a stream from a snapshot written by Save. Truncated
// or corrupted snapshots are rejected (the format carries a checksum),
// as are snapshots from builds with an incompatible format version.
// Runtime tuning (SetWorkers, SetObs, ...) is process-local and must
// be re-applied.
func Restore(r io.Reader) (*Stream, error) { return snapio.Restore(r) }

// SaveFile snapshots a stream to a file crash-safely: the bytes go to
// a temp file in the target directory and are atomically renamed over
// path, so a crash mid-save leaves any previous snapshot at that path
// intact. This is the natural Stream.SetCheckpointEvery hook.
func SaveFile(path string, s *Stream) error { return snapio.SaveFile(path, s) }

// LoadFile restores a stream from a file written by SaveFile (or Save).
func LoadFile(path string) (*Stream, error) { return snapio.LoadFile(path) }

// QueryIndex is the point-lookup index a TopK/TopKClusters run
// captures: the round-one bucket state of the filter plus the final
// cluster assignment. Stream.Query probes it transparently; use
// Stream.QueryIndex for direct QueryIndex.Query calls with custom
// QueryOptions.
type QueryIndex = core.QueryIndex

// QueryOptions tunes one point lookup (probe count, stats sink).
type QueryOptions = core.QueryOptions

// QueryMatch is one candidate cluster of a point lookup, with its
// verified and candidate record counts.
type QueryMatch = core.QueryMatch

// QueryResult is the outcome of one point lookup: candidate clusters
// best first, plus the raw candidate and verified-match record IDs.
type QueryResult = core.QueryResult

// RecoveryResult is the outcome of the recovery process.
type RecoveryResult = core.RecoveryResult

// Recover runs the paper's recovery process (Section 6.1.2) on a
// filtering result: every record left out of the output is compared
// against the output clusters and attached to the cluster it matches
// best. Use it to repair recall when the filtering output missed part
// of a top-k entity; the cost is |output| x |rest| rule evaluations.
func Recover(ds *Dataset, rule Rule, res *Result) *RecoveryResult {
	clusters := make([][]int32, len(res.Clusters))
	for i := range res.Clusters {
		clusters[i] = res.Clusters[i].Records
	}
	return core.Recover(ds, rule, clusters)
}
