package core

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
)

// Options controls one Adaptive LSH filtering run.
type Options struct {
	// K is the number of top entities to find.
	K int
	// ReturnClusters is the paper's k-hat (Section 6.1.2): how many of
	// the largest final clusters to return. Returning more than K
	// clusters trades precision for recall. Zero means K.
	ReturnClusters int

	// Workers is the worker-pool size for the parallel stages: the
	// pairwise computation function P shards its candidate-pair space
	// across this many workers, and the transitive hashing functions
	// precompute bucket keys and run sharded bucket insertion with the
	// same pool. 0 means runtime.GOMAXPROCS(0); 1 forces the serial
	// paths. The output is identical for every value — only Stats'
	// wall/work split moves.
	Workers int

	// HashShards is the number of bucket-map shards of the parallel
	// hash stage (HashOptions.Shards semantics): 0 means Workers. The
	// output is identical for every value.
	HashShards int
	// HashMinParallel overrides the cluster-size floor below which the
	// hash stage stays serial (0 means the built-in default). Mainly
	// for tests and tuning.
	HashMinParallel int
	// PairwiseMinPairs overrides the candidate-pair floor below which
	// the pairwise stage stays serial (PairwiseOptions.MinPairs
	// semantics; 0 means the built-in default). Pin it above any
	// cluster's pair count to keep PairsComputed byte-identical to a
	// serial run while the hash stage still fans out.
	PairwiseMinPairs int64

	// HashPool, when non-nil, supplies a long-lived scratch pool so
	// bucket tables and key buffers survive across Filter calls (the
	// Stream type uses this). A nil pool is created per run — the hash
	// stage's scratch memory is then still recycled across all of the
	// run's rounds. Pools must not be shared by concurrent runs.
	HashPool *HashPool

	// MemSample turns on per-span memory sampling: every reported span
	// (the whole-run filter span and each hash/pairwise round) carries
	// the runtime allocation delta across it (obs.Span.Mem —
	// alloc_bytes, mallocs, gc_pause_ns). Off by default: each sample
	// costs a runtime.ReadMemStats, and the counters are process-wide,
	// so samples are only meaningful when the run is the sole workload
	// (the experiments.Bench harness). Ignored when Obs is nil.
	MemSample bool

	// Obs, when non-nil, receives stage-scoped spans and work counters
	// (hash evaluations, cache hits/misses, bucket collisions, pair
	// comparisons, merges, re-hash rounds) as the run progresses. The
	// nil default is free; see internal/obs for the sinks.
	Obs obs.Sink

	// Ablation knobs — these disable individual design choices so
	// their contribution can be measured (see the Ablation benchmarks
	// in bench_test.go). Production callers leave them false.

	// DisableHashCache turns off incremental computation: every
	// transitive hashing function recomputes all of its base hash
	// values from scratch (Section 2.2, property 4, removed).
	DisableHashCache bool
	// DisableTransitiveSkip makes the pairwise function P compute all
	// pair distances, including pairs already connected transitively
	// (Section 6.1's optimization (2), removed).
	DisableTransitiveSkip bool

	// Cache, when non-nil, supplies a long-lived hash cache so that
	// base hash values survive across Filter calls (the Stream type
	// uses this to amortize hashing over a growing dataset). The cache
	// must have been created for the same dataset and plan hashers.
	// Ignored when DisableHashCache is set.
	Cache *Cache

	// OnRound, when non-nil, is invoked after every Algorithm 1 round
	// with a progress snapshot — hook for logging, tracing or UI.
	// Keep it fast; it runs inside the filtering loop.
	OnRound func(RoundInfo)

	// Capture, when non-nil, populates a point-lookup index as the run
	// proceeds: round 1's bucket state (H_1 over the whole dataset —
	// the only full-coverage round) is retained instead of recycled,
	// and every emitted cluster is registered, so QueryIndex.Query can
	// answer "which entity is this record?" afterwards without another
	// filtering pass. The run's output is unaffected. Any bucket state
	// the index retained from a previous run should be released first
	// (QueryIndex.Release); Stream does this automatically.
	Capture *QueryIndex
}

// RoundInfo is the per-round progress snapshot passed to
// Options.OnRound.
type RoundInfo struct {
	// Round counts Algorithm 1 iterations, starting at 1 (the initial
	// H_1 application over the whole dataset).
	Round int
	// ClusterSize is the size of the cluster processed this round
	// (the whole dataset in round 1).
	ClusterSize int
	// Action describes what happened: "hash" (a transitive hashing
	// function was applied), "pairwise" (P verified the cluster) or
	// "final" (the cluster was emitted as a top-k result).
	Action string
	// Level is the sequence position of the hashing function applied
	// (Action "hash"), or of the function that produced the cluster
	// (Action "final"; 0 when P produced it).
	Level int
	// Emitted counts final clusters emitted so far.
	Emitted int
	// Pending counts clusters still queued.
	Pending int
}

func (o Options) khat() int {
	if o.ReturnClusters > o.K {
		return o.ReturnClusters
	}
	return o.K
}

// Cluster is one final cluster of the filtering output.
type Cluster struct {
	// Records holds the dataset record IDs, ascending.
	Records []int32
	// Level is the sequence position (1-based) of the transitive
	// hashing function that produced the cluster; 0 when the cluster
	// is an outcome of the pairwise computation function P.
	Level int
	// ByPairwise reports whether P produced (verified) the cluster.
	ByPairwise bool
}

// Size reports the cluster's record count.
func (c *Cluster) Size() int { return len(c.Records) }

// Stats aggregates the work a filtering run performed.
type Stats struct {
	// HashEvals counts base hash evaluations per plan hasher.
	HashEvals []int64
	// PairsComputed counts exact distance evaluations by P.
	PairsComputed int64
	// PrefilterRejects and EarlyExits aggregate the prepared match
	// kernel's effectiveness across P's rounds
	// (PairwiseStats.PrefilterRejects/EarlyExits semantics).
	PrefilterRejects, EarlyExits int64
	// HashRounds and PairwiseRounds count Algorithm 1 iterations by
	// the function they applied.
	HashRounds, PairwiseRounds int
	// ModelCost is the Definition 3 cost of the run:
	// sum_i n_i*cost_i + n_P*cost_P. With the hash cache disabled,
	// every hash round is charged the full Cost(H_{t+1}) instead of
	// the incremental Cost(H_{t+1}) - Cost(H_t), matching the work a
	// from-scratch recomputation actually performs.
	ModelCost float64
	// Elapsed is the wall-clock filtering time.
	Elapsed time.Duration

	// Per-stage parallel accounting, so speedup curves stay honest
	// when Workers > 1: *Wall is the stage's elapsed wall-clock time
	// summed over rounds; *Work is the matching cumulative busy time
	// (concurrent sections summed across workers, sequential sections
	// counted once). Work stays roughly constant as Workers grows
	// while Wall shrinks; Work/Wall is the stage's effective
	// parallel speedup, and Work == Wall on serial runs.
	HashWall, HashWork         time.Duration
	PairwiseWall, PairwiseWork time.Duration
	// Workers is the resolved worker-pool size of the run
	// (Options.Workers, with 0 resolved to GOMAXPROCS).
	Workers int
}

// Result is the output of a filtering run.
type Result struct {
	// Clusters holds the k-hat largest final clusters, largest first.
	Clusters []Cluster
	// Output is the union of the cluster records, ascending (the
	// filtering output set O of Section 2.1).
	Output []int32
	// Stats describes the work performed.
	Stats Stats
}

// workCluster is a cluster in flight through Algorithm 1's rounds.
type workCluster struct {
	recs  []int32
	level int
	final bool
	byP   bool
}

// Size implements ppt.Sized.
func (c *workCluster) Size() int { return len(c.recs) }

// Filter runs Algorithm 1: find the plan-rule connected components of
// the k(hat) largest entities in ds. See FilterIncremental for the
// streaming variant.
func Filter(ds *record.Dataset, plan *Plan, opts Options) (*Result, error) {
	res := &Result{}
	err := FilterIncremental(ds, plan, opts, func(c Cluster) bool {
		res.Clusters = append(res.Clusters, c)
		return true
	}, &res.Stats)
	if err != nil {
		return nil, err
	}
	for _, c := range res.Clusters {
		res.Output = append(res.Output, c.Records...)
	}
	sort.Slice(res.Output, func(i, j int) bool { return res.Output[i] < res.Output[j] })
	return res, nil
}

// FilterIncremental is the incremental output mode of Section 4.2: it
// invokes emit for each final cluster the moment the cluster becomes
// the largest remaining one — largest entities stream out first, and by
// Theorem 2 each k' <= k prefix is produced with minimal cost. emit may
// return false to stop early. stats may be nil.
func FilterIncremental(ds *record.Dataset, plan *Plan, opts Options, emit func(Cluster) bool, stats *Stats) error {
	if opts.K < 1 {
		return fmt.Errorf("core: K = %d, want >= 1", opts.K)
	}
	if opts.ReturnClusters < 0 {
		return fmt.Errorf("core: ReturnClusters = %d, want >= 0", opts.ReturnClusters)
	}
	if len(plan.Funcs) == 0 {
		return fmt.Errorf("core: plan has no hashing functions")
	}
	if err := plan.CompatibleWith(ds); err != nil {
		return err
	}
	memSample := opts.MemSample && opts.Obs != nil
	startStage := func(stage obs.Stage) obs.Timer {
		if memSample {
			return obs.StartStageMem(opts.Obs, stage)
		}
		return obs.StartStage(opts.Obs, stage)
	}
	runTimer := startStage(obs.StageFilter)
	khat := opts.khat()
	L := plan.L()
	var cache *Cache
	if !opts.DisableHashCache {
		cache = opts.Cache
		if cache == nil {
			cache = NewCache(ds, len(plan.Hashers))
		}
	}
	pool := opts.HashPool
	if pool == nil {
		pool = NewHashPool()
	}
	var st Stats
	if stats == nil {
		stats = &st
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	stats.Workers = workers
	popts := PairwiseOptions{Workers: workers, NoSkip: opts.DisableTransitiveSkip, MinPairs: opts.PairwiseMinPairs}
	hopts := HashOptions{
		Workers: workers, Shards: opts.HashShards, MinParallel: opts.HashMinParallel,
		Pool: pool,
	}
	var hashStats HashStats
	hashStats.Evals = make([]int64, len(plan.Hashers))

	// Observability baselines: counters report per-run deltas even when
	// the cache is long-lived (the Stream reuses one across queries).
	evalsTotal := func() int64 {
		if cache != nil {
			return cache.TotalEvals()
		}
		var t int64
		for _, n := range hashStats.Evals {
			t += n
		}
		return t
	}
	var baseHits, baseMisses, baseElems int64
	if cache != nil {
		baseHits, baseMisses = cache.Lookups()
		baseElems = cache.SigElemsHashed()
	}
	// hashRound runs one transitive hashing round under a StageHash
	// span, feeding both Stats (wall/work/rounds) and the sink's
	// counters — the span timer is the single source of the round's
	// wall time.
	hashRound := func(recs []int32, hf *HashFunc) [][]int32 {
		prevWork := hashStats.Work
		prevColl, prevMerges := hashStats.Collisions, hashStats.Merges
		prevEvals := evalsTotal()
		ht := startStage(obs.StageHash)
		subs := ApplyHashOpt(ds, plan, hf, cache, recs, hopts, &hashStats)
		ht.Workers = workers
		ht.Items = len(recs)
		ht.Work = hashStats.Work - prevWork
		stats.HashWall += ht.End()
		stats.HashRounds++
		obs.Count(opts.Obs, obs.CtrHashEvals, evalsTotal()-prevEvals)
		obs.Count(opts.Obs, obs.CtrBucketCollisions, hashStats.Collisions-prevColl)
		obs.Count(opts.Obs, obs.CtrMerges, hashStats.Merges-prevMerges)
		return subs
	}

	// Round 0: H_1 over the whole dataset (Algorithm 1 line 1).
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	bins := ppt.NewBins[*workCluster](ds.Len())
	round := 0
	emitted := 0
	notify := func(action string, clusterSize, level int) {
		if opts.OnRound == nil {
			return
		}
		round++
		opts.OnRound(RoundInfo{
			Round: round, ClusterSize: clusterSize, Action: action,
			Level: level, Emitted: emitted, Pending: bins.Len(),
		})
	}
	if ds.Len() > 0 {
		if opts.Capture != nil {
			hopts.Capture = opts.Capture.beginCapture(ds, plan, all)
		}
		first := hashRound(all, plan.Funcs[0])
		hopts.Capture = nil // only round 1 covers the whole dataset
		stats.ModelCost += plan.Cost.StepCost(plan.Funcs[0], nil) * float64(ds.Len())
		for _, recs := range first {
			bins.Add(&workCluster{recs: recs, level: 1, final: L == 1})
		}
		notify("hash", ds.Len(), 1)
	}
	for emitted < khat {
		c, ok := bins.PopLargest()
		if !ok {
			break
		}
		if c.final {
			// Termination bookkeeping of Appendix B.5: the largest
			// remaining cluster is an outcome of H_L or P — it is a
			// final top cluster.
			out := Cluster{Records: c.recs, ByPairwise: c.byP}
			if !c.byP {
				out.Level = c.level
			}
			emitted++
			obs.Count(opts.Obs, obs.CtrClustersEmitted, 1)
			notify("final", len(c.recs), out.Level)
			if opts.Capture != nil {
				opts.Capture.registerCluster(out)
			}
			if !emit(out) {
				break
			}
			continue
		}
		t := c.level // last function applied, 1-based; t < L here
		if plan.Cost.PreferPairwise(plan, t, len(c.recs)) {
			var pmem obs.MemSnapshot
			if memSample {
				pmem = obs.TakeMemSnapshot()
			}
			subs, pst := ApplyPairwiseOpt(ds, plan.Rule, c.recs, popts)
			stats.PairwiseRounds++
			stats.PairsComputed += pst.PairsComputed
			stats.PrefilterRejects += pst.PrefilterRejects
			stats.EarlyExits += pst.EarlyExits
			stats.PairwiseWall += pst.Wall
			stats.PairwiseWork += pst.Work
			stats.ModelCost += float64(pst.PairsComputed) * plan.Cost.CostP
			if opts.Obs != nil {
				// ApplyPairwiseOpt measured itself; forward its stats as
				// the round's span rather than timing it twice.
				span := obs.Span{
					Stage: obs.StagePairwise, Wall: pst.Wall, Work: pst.Work,
					Workers: pst.Workers, Waves: pst.Waves, Items: len(c.recs),
				}
				if pmem.Valid() {
					span.Mem, span.MemSampled = pmem.Delta(), true
				}
				opts.Obs.Span(span)
				opts.Obs.Count(obs.CtrPairComparisons, pst.PairsComputed)
				opts.Obs.Count(obs.CtrMerges, pst.Merges)
				obs.Count(opts.Obs, obs.CtrKernelPrefilterRejects, pst.PrefilterRejects)
				obs.Count(opts.Obs, obs.CtrKernelEarlyExits, pst.EarlyExits)
			}
			for _, recs := range subs {
				bins.Add(&workCluster{recs: recs, final: true, byP: true})
			}
			notify("pairwise", len(c.recs), t)
		} else {
			next := plan.Funcs[t] // H_{t+1} (0-based index t)
			subs := hashRound(c.recs, next)
			obs.Count(opts.Obs, obs.CtrRehashRounds, 1)
			// Incremental computation pays only for the prefix
			// extension H_t -> H_{t+1}; with the cache disabled every
			// base hash of H_{t+1} is recomputed from scratch and the
			// model charges the full cost (StepCost with a nil
			// predecessor).
			var from *HashFunc
			if cache != nil {
				from = plan.Funcs[t-1]
			}
			stats.ModelCost += plan.Cost.StepCost(next, from) * float64(len(c.recs))
			for _, recs := range subs {
				bins.Add(&workCluster{recs: recs, level: t + 1, final: t+1 == L})
			}
			notify("hash", len(c.recs), t+1)
		}
	}
	if cache != nil {
		stats.HashEvals = cache.HashEvals()
		hits, misses := cache.Lookups()
		obs.Count(opts.Obs, obs.CtrCacheHits, hits-baseHits)
		obs.Count(opts.Obs, obs.CtrCacheMisses, misses-baseMisses)
		obs.Count(opts.Obs, obs.CtrSigElemsHashed, cache.SigElemsHashed()-baseElems)
	} else {
		// Streaming runs (DisableHashCache) did real hashing work too:
		// the per-worker scratches counted every streamed base-hash
		// evaluation.
		stats.HashEvals = hashStats.Evals
		obs.Count(opts.Obs, obs.CtrSigElemsHashed, hashStats.SigElems)
	}
	stats.HashWork = hashStats.Work
	// The whole-run span charges the concurrent stages by busy time and
	// everything else (design lookups, bin maintenance, reduction) once.
	runTimer.Workers = workers
	runTimer.Items = ds.Len()
	runTimer.Work = runTimer.Elapsed() - (stats.HashWall + stats.PairwiseWall) + (stats.HashWork + stats.PairwiseWork)
	stats.Elapsed = runTimer.End()
	if opts.Capture != nil && ds.Len() > 0 {
		opts.Capture.finish()
	}
	return nil
}
