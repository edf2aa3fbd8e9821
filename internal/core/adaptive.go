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
	// compute bucket keys over record chunks and then fill up to
	// min(Workers, tables) whole bucket tables at once
	// (HashOptions.Workers). 0 means runtime.GOMAXPROCS(0); 1 forces
	// the serial paths. The output is identical for every value — only
	// Stats' wall/work split moves.
	Workers int

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
	// bucket tables and key scratches survive across Filter calls (the
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
	// PairwiseMerges counts the parent-pointer merges of P's rounds
	// (PairwiseStats.Merges semantics); the merges obs counter adds the
	// hash rounds' merges to it.
	PairwiseMerges int64
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

// AddPairwise accounts one P round over items records: pst goes into
// the Stats fields it feeds (the round count, the pairs, merges and
// kernel counts, wall and work), and pst.PairsComputed*costP into
// ModelCost. On sink it reports the round as a StagePairwise span built
// from pst, carrying mem's allocation delta when mem was taken, plus
// the pair-comparison, merge and kernel counters.
func (st *Stats) AddPairwise(pst PairwiseStats, items int, costP float64, mem obs.MemSnapshot, sink obs.Sink) {
	st.PairwiseRounds++
	st.PairsComputed += pst.PairsComputed
	st.PairwiseMerges += pst.Merges
	st.PrefilterRejects += pst.PrefilterRejects
	st.EarlyExits += pst.EarlyExits
	st.PairwiseWall += pst.Wall
	st.PairwiseWork += pst.Work
	st.ModelCost += float64(pst.PairsComputed) * costP
	if sink == nil {
		return
	}
	// ApplyPairwiseOpt measured itself; its stats are the round's span
	// rather than a second timing.
	span := obs.Span{
		Stage: obs.StagePairwise, Wall: pst.Wall, Work: pst.Work,
		Workers: pst.Workers, Waves: pst.Waves, Items: items,
	}
	if mem.Valid() {
		span.Mem, span.MemSampled = mem.Delta(), true
	}
	sink.Span(span)
	sink.Count(obs.CtrPairComparisons, pst.PairsComputed)
	sink.Count(obs.CtrMerges, pst.Merges)
	obs.Count(sink, obs.CtrKernelPrefilterRejects, pst.PrefilterRejects)
	obs.Count(sink, obs.CtrKernelEarlyExits, pst.EarlyExits)
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
	return Collect(func(emit func(Cluster) bool, stats *Stats) error {
		return FilterIncremental(ds, plan, opts, emit, stats)
	})
}

// Collect runs an incremental filter to completion and gathers what it
// emits into a Result: the clusters in emission order, their records'
// ascending union, and the run's stats.
func Collect(run func(emit func(Cluster) bool, stats *Stats) error) (*Result, error) {
	res := &Result{}
	err := run(func(c Cluster) bool {
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

// HashRounder executes the hashing rounds of Algorithm 1 for
// FilterRounds. It is the one step the engines differ in: the single
// engine applies H_t with ApplyHashOpt against one signature cache,
// while internal/shard's Engine hashes each shard's records
// concurrently and reconciles the shards' buckets. Everything else,
// from the bins and the choice between hashing further, verifying with
// P and emitting, to ModelCost, the stage spans and the counters,
// belongs to the loop. A rounder may live across runs (a Stream holds
// one); each run calls Begin once, then HashRound per hashing round,
// then End.
type HashRounder interface {
	// Begin readies the rounder for one run of plan over the dataset it
	// is bound to, before the first round: the caches Caches reports
	// are ready for plan, and the rounds take opts' sink and worker
	// bound (Workers is already resolved to at least 1).
	Begin(plan *Plan, opts Options)
	// HashRound applies hf to recs (dataset record IDs, ascending) and
	// returns the partition in CollectClusters' canonical order. It
	// adds the round's busy time, bucket collisions and merges to st,
	// and, when the round hashes without a signature cache, the
	// evaluations and element hashes it streamed.
	HashRound(recs []int32, hf *HashFunc, st *HashStats) [][]int32
	// Caches reports the signature caches the rounds fill, none when
	// they hash without one. The loop calls it once, after Begin,
	// reports the caches' cumulative counters as per-run deltas and
	// their per-hasher evaluations as Stats.HashEvals, charges the
	// incremental step cost only when there is a cache, and compacts
	// the caches after the last round (Cache.Compact).
	Caches() []*Cache
	// End closes the run after the caches are compacted: the rounder
	// drops what only the run's rounds read.
	End()
}

// engineRounds is the single engine's HashRounder: ApplyHashOpt over
// one signature cache (nil when the run streams its signatures) with
// the run's hash options. Round one, over all, also fills the options'
// capture.
type engineRounds struct {
	ds    *record.Dataset
	all   []int32
	plan  *Plan
	cache *Cache
	hopts HashOptions
}

// Begin takes opts.Cache (a cache of the run's own when nil, none with
// DisableHashCache) and opts.HashPool (likewise), and binds
// opts.Capture to round one.
func (r *engineRounds) Begin(plan *Plan, opts Options) {
	r.plan = plan
	r.hopts = HashOptions{Workers: opts.Workers, MinParallel: opts.HashMinParallel, Pool: opts.HashPool}
	if r.hopts.Pool == nil {
		r.hopts.Pool = NewHashPool()
	}
	if !opts.DisableHashCache {
		r.cache = opts.Cache
		if r.cache == nil {
			r.cache = NewCache(r.ds, len(plan.Hashers))
		}
	}
	if opts.Capture != nil && r.ds.Len() > 0 {
		r.hopts.Capture = opts.Capture.beginCapture(r.ds, plan, r.all)
	}
}

func (r *engineRounds) HashRound(recs []int32, hf *HashFunc, st *HashStats) [][]int32 {
	subs := ApplyHashOpt(r.ds, r.plan, hf, r.cache, recs, r.hopts, st)
	r.hopts.Capture = nil // only round 1 covers the whole dataset
	return subs
}

func (r *engineRounds) Caches() []*Cache {
	if r.cache == nil {
		return nil
	}
	return []*Cache{r.cache}
}

func (r *engineRounds) End() {}

// FilterIncremental is the incremental output mode of Section 4.2: it
// invokes emit for each final cluster the moment the cluster becomes
// the largest remaining one — largest entities stream out first, and by
// Theorem 2 each k' <= k prefix is produced with minimal cost. emit may
// return false to stop early. stats may be nil.
func FilterIncremental(ds *record.Dataset, plan *Plan, opts Options, emit func(Cluster) bool, stats *Stats) error {
	return FilterRounds(ds, plan, opts, nil, emit, stats)
}

// FilterRounds is FilterIncremental with its hashing rounds executed
// by rounds, and the one implementation of Algorithm 1's loop. A nil
// rounds runs the single engine: ApplyHashOpt over opts.Cache (or a
// cache of the run's own, or none with DisableHashCache) and
// opts.HashPool. Those options, HashMinParallel and Capture configure
// the single engine's rounds only; Capture with a non-nil rounds is an
// error. Inside the filter span it begins rounds' run before the first
// round and, after the last, compacts the caches rounds reports
// (Cache.Compact) and ends the run.
func FilterRounds(ds *record.Dataset, plan *Plan, opts Options, rounds HashRounder, emit func(Cluster) bool, stats *Stats) error {
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
	if rounds != nil && opts.Capture != nil {
		return fmt.Errorf("core: Capture needs the single engine's hash rounds")
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
	var st Stats
	if stats == nil {
		stats = &st
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	opts.Workers = workers
	stats.Workers = workers
	popts := PairwiseOptions{Workers: workers, NoSkip: opts.DisableTransitiveSkip, MinPairs: opts.PairwiseMinPairs}
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	if rounds == nil {
		rounds = &engineRounds{ds: ds, all: all}
	}
	rounds.Begin(plan, opts)
	caches := rounds.Caches()
	var hashStats HashStats
	hashStats.Evals = make([]int64, len(plan.Hashers))

	// Observability baselines: counters report per-run deltas even when
	// the caches are long-lived (the Stream and the sharded engine reuse
	// theirs across queries). Rounds without a cache count their
	// streamed evaluations in hashStats instead.
	evalsTotal := func() int64 {
		var t int64
		for _, c := range caches {
			t += c.TotalEvals()
		}
		for _, n := range hashStats.Evals {
			t += n
		}
		return t
	}
	baseHits, baseMisses, baseElems := cacheLookups(caches)
	// hashRound runs one transitive hashing round under a StageHash
	// span, feeding both Stats (wall/work/rounds) and the sink's
	// counters — the span timer is the single source of the round's
	// wall time.
	hashRound := func(recs []int32, hf *HashFunc) [][]int32 {
		prevWork := hashStats.Work
		prevColl, prevMerges := hashStats.Collisions, hashStats.Merges
		prevEvals := evalsTotal()
		ht := startStage(obs.StageHash)
		subs := rounds.HashRound(recs, hf, &hashStats)
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
		first := hashRound(all, plan.Funcs[0])
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
			stats.AddPairwise(pst, len(c.recs), plan.Cost.CostP, pmem, opts.Obs)
			for _, recs := range subs {
				bins.Add(&workCluster{recs: recs, final: true, byP: true})
			}
			notify("pairwise", len(c.recs), t)
		} else {
			next := plan.Funcs[t] // H_{t+1} (0-based index t)
			subs := hashRound(c.recs, next)
			obs.Count(opts.Obs, obs.CtrRehashRounds, 1)
			// Incremental computation pays only for the prefix
			// extension H_t -> H_{t+1}; without a cache every base hash
			// of H_{t+1} is recomputed from scratch and the model
			// charges the full cost (StepCost with a nil predecessor).
			var from *HashFunc
			if len(caches) > 0 {
				from = plan.Funcs[t-1]
			}
			stats.ModelCost += plan.Cost.StepCost(next, from) * float64(len(c.recs))
			for _, recs := range subs {
				bins.Add(&workCluster{recs: recs, level: t + 1, final: t+1 == L})
			}
			notify("hash", len(c.recs), t+1)
		}
	}
	hits, misses, elems := cacheLookups(caches)
	obs.Count(opts.Obs, obs.CtrCacheHits, hits-baseHits)
	obs.Count(opts.Obs, obs.CtrCacheMisses, misses-baseMisses)
	obs.Count(opts.Obs, obs.CtrSigElemsHashed, elems-baseElems+hashStats.SigElems)
	// HashEvals is cumulative per hasher: the caches' lifetime counts
	// or, without a cache, the evaluations this run streamed.
	sumHashEvals(hashStats.Evals, caches)
	stats.HashEvals = hashStats.Evals
	stats.HashWork = hashStats.Work
	// The capture's finishing work (bucket runs, kernel prepare) is part
	// of the run: it counts in Elapsed and the filter span.
	if opts.Capture != nil && ds.Len() > 0 {
		opts.Capture.finish()
	}
	compactCaches(caches, workers)
	rounds.End()
	// The whole-run span charges the concurrent stages by busy time and
	// everything else (design lookups, bin maintenance, reduction,
	// finishing the capture, compacting the caches) once.
	runTimer.Workers = workers
	runTimer.Items = ds.Len()
	runTimer.Work = runTimer.Elapsed() - (stats.HashWall + stats.PairwiseWall) + (stats.HashWork + stats.PairwiseWork)
	stats.Elapsed = runTimer.End()
	return nil
}

// compactCaches runs Cache.Compact on every cache of a finished run, up
// to workers caches at once (a sharded run's shard caches slide
// concurrently). No view the run's rounds took is read afterwards.
func compactCaches(caches []*Cache, workers int) {
	n := min(workers, len(caches))
	fanOut(n, func(i int) {
		for j := i; j < len(caches); j += n {
			caches[j].Compact()
		}
	})
}

// cacheLookups sums the caches' cumulative lookup and element-hash
// counters.
func cacheLookups(caches []*Cache) (hits, misses, elems int64) {
	for _, c := range caches {
		h, m := c.Lookups()
		hits += h
		misses += m
		elems += c.SigElemsHashed()
	}
	return hits, misses, elems
}
