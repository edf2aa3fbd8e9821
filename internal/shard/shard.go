// Package shard is the horizontal scale-out layer: it partitions a
// dataset across P independent engine shards — each with its own
// signature cache, arenas and scratch pool — runs every adaptive
// hashing round on all shards concurrently, and reconciles the
// per-shard partitions into one global partition through a
// deterministic boundary-bucket exchange.
//
// The design keeps Algorithm 1's control loop global and shards only
// the data-parallel work inside it. Every cost-model decision (hash
// further vs. verify pairwise vs. emit) depends on global cluster
// sizes, so per-shard adaptive loops would diverge from the
// single-engine run; the global loop instead pops the same clusters in
// the same order as core.FilterIncremental, and each hashing round is
// executed as P concurrent serial scans (core.ApplyHashExport) over
// the round's records, split by owning shard. Records are owned by
// shard SplitMix64(record id) % P for the engine's lifetime.
//
// Reconciliation is a probe exchange over the shards' own bucket
// tables. Each scan keeps its tables for the round and reports one
// representative record per non-empty bucket. Every representative of
// a shard s >= 1 is looked up, read-only, in the kept tables of shards
// s-1 down to 0: the nearest lower shard holding the same (table, key)
// supplies one edge into the round's global parent-pointer forest, and
// the key counts as a boundary key at its second-lowest holder only.
// Because the lookups only read, the representatives are probed by
// Workers-bounded goroutines, and the coordinator applies their edges
// in fixed (shard, chunk) order. Per-bucket collision counts then
// satisfy sum_s(members_s - 1) + (shards_present - 1) = members - 1:
// exactly the single-engine count, which is what makes the engine's
// counters possible. Which edge joins two components does not matter:
// component counts are order-independent, and core.CollectClusters
// emits the canonical cluster order, so output is byte-identical to
// the single engine. Pairwise verification rounds need no
// reconciliation at all: they run on global record IDs through the
// unchanged core.ApplyPairwiseOpt.
package shard

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// Owner reports the shard owning record id under shards partitions:
// SplitMix64(id) % shards. The finalizer mix keeps ownership balanced
// even for the dense sequential IDs datasets use.
func Owner(id int32, shards int) int {
	return int(xhash.SplitMix64(uint64(id)) % uint64(shards))
}

// Options controls a sharded filtering run. The exported knobs mirror
// core.Options where they exist there; ablation switches
// (DisableHashCache, DisableTransitiveSkip) and query capture are
// deliberately absent — ablations are single-engine experiments, and
// point-query indexes are per-bucket state the sharded engine does not
// retain.
type Options struct {
	// Shards is the partition count P. 1 is valid (a degenerate but
	// fully functional single-shard engine, used by the differential
	// tests); use core.Filter directly when no partitioning is wanted.
	Shards int

	// K and ReturnClusters follow core.Options semantics.
	K              int
	ReturnClusters int

	// Workers bounds the number of concurrently hashing shards and of
	// concurrent reconcile probe workers, and is the pairwise stage's
	// worker-pool size (core.Options.Workers semantics: 0 means
	// GOMAXPROCS, 1 runs shards and probes one after another — output is
	// identical for every value).
	Workers int
	// PairwiseMinPairs follows core.Options.PairwiseMinPairs.
	PairwiseMinPairs int64

	// MemSample and Obs follow core.Options semantics. Each hashing
	// round reports one StageHash span for the whole round plus one
	// StageShard span per participating shard; the reconcile pass's
	// work shows up in the boundary_keys / boundary_pairs /
	// reconcile_merges counters.
	MemSample bool
	Obs       obs.Sink

	// OnRound follows core.Options.OnRound.
	OnRound func(core.RoundInfo)
}

func (o Options) khat() int {
	if o.ReturnClusters > o.K {
		return o.ReturnClusters
	}
	return o.K
}

// ShardStats describes one shard's work during the engine's most
// recent Filter run.
type ShardStats struct {
	// Shard is the shard index (0-based).
	Shard int `json:"shard"`
	// Records is the number of records the shard owned at the end of
	// the run.
	Records int `json:"records"`
	// RoundRecords sums the shard's per-round hashing inputs: a record
	// re-hashed in three rounds counts three times.
	RoundRecords int64 `json:"round_records"`
	// HashEvals counts the base hash evaluations the shard's cache
	// performed during the run.
	HashEvals int64 `json:"hash_evals"`
	// Collisions and Merges are the shard's local bucket collisions
	// and parent-pointer merges during the run.
	Collisions int64 `json:"collisions"`
	Merges     int64 `json:"merges"`
	// Busy is the shard's summed hashing busy time across rounds (the
	// concurrent portion of the run's hash work).
	Busy time.Duration `json:"busy_ns"`
	// CacheBytes is the approximate resident size of the shard's
	// signature cache after the run.
	CacheBytes int64 `json:"cache_bytes"`
}

// BoundaryStats describes the cross-shard reconcile work of the most
// recent Filter run.
type BoundaryStats struct {
	// Keys counts distinct (table, bucket key) pairs populated by two
	// or more shards.
	Keys int64 `json:"keys"`
	// Pairs counts the cross-shard edges chained through boundary
	// buckets (one per extra shard per key).
	Pairs int64 `json:"pairs"`
	// Merges counts boundary edges that actually joined two still-
	// separate components.
	Merges int64 `json:"merges"`
	// Wall is the summed reconcile wall time across rounds (replaying
	// per-shard components, probing boundary buckets, applying their
	// edges, collecting clusters).
	Wall time.Duration `json:"wall_ns"`
}

// shardState is one shard's private engine state. Everything here is
// touched by at most one goroutine at a time: the coordinator between
// rounds, the shard's worker during a round.
type shardState struct {
	// lds is the shard's view of the dataset: records re-numbered
	// densely in global-ID order, field slices shared with the global
	// dataset (headers copied, payloads aliased).
	lds *record.Dataset
	// cache/pool are the shard's long-lived signature cache and
	// hashing scratch pool (sized by lds, not the global dataset).
	cache *core.Cache
	pool  *core.HashPool
	hst   core.HashStats
	// lrecs/posIdx are the current round's input: the shard's local
	// record IDs in ascending order, and for each the record's
	// position in the round's global record slice.
	lrecs  []int32
	posIdx []int32
	// subs/reps/tables are the current round's output from
	// ApplyHashExport; tables is empty when the shard had no records in
	// the round, and is released into pool when the round ends.
	subs   []([]int32)
	reps   []core.BucketRep
	tables core.BucketTables
	// busy is the shard's wall time inside the current round;
	// roundColl/roundMerges its collision and merge deltas.
	busy                   time.Duration
	roundColl, roundMerges int64
	// prevEvals snapshots the cache's eval counter at run start.
	prevEvals int64
	stats     ShardStats
}

// Engine is a sharded filtering engine bound to one growing dataset.
// Like core.Stream it is not safe for concurrent use; unlike a
// one-shot Filter call it keeps the per-shard caches and pools alive
// across runs, so repeated queries over a growing dataset amortize
// hashing exactly as the single-engine Stream does.
type Engine struct {
	ds *record.Dataset
	p  int

	opts Options

	shards []*shardState
	// synced is how many dataset records have been assigned to shards.
	synced int
	// localID[id] is record id's dense index within its owner shard.
	localID []int32
	// descs guards per-shard cache validity across replans (same
	// contract as core.Stream: caches survive a replan iff the hasher
	// descriptors are unchanged).
	descs      any
	numHashers int

	boundary BoundaryStats
	// pairwiseMerges counts the most recent run's merges by the
	// pairwise verification rounds (which run on global record IDs and
	// need no reconciliation). Together with the per-shard hash merges
	// and the reconcile merges it accounts for the run's full merges
	// counter.
	pairwiseMerges int64
}

// New creates a sharded engine over ds with opts.Shards partitions.
// The dataset may keep growing afterwards: each Filter call
// assimilates new records into their owner shards first.
func New(ds *record.Dataset, opts Options) (*Engine, error) {
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: Shards = %d, want >= 1", opts.Shards)
	}
	e := &Engine{ds: ds, p: opts.Shards, opts: opts, shards: make([]*shardState, opts.Shards)}
	for i := range e.shards {
		e.shards[i] = &shardState{
			lds:  &record.Dataset{Name: fmt.Sprintf("%s/shard%d", ds.Name, i)},
			pool: core.NewHashPool(),
		}
	}
	return e, nil
}

// SetOptions replaces the engine's run options. Shards is fixed at
// construction — a differing opts.Shards is rejected.
func (e *Engine) SetOptions(opts Options) error {
	if opts.Shards != e.p {
		return fmt.Errorf("shard: engine has %d shards, options want %d", e.p, opts.Shards)
	}
	e.opts = opts
	return nil
}

// PerShard reports per-shard statistics of the most recent Filter run
// (nil before the first run).
func (e *Engine) PerShard() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.stats
		out[i].Shard = i
		out[i].Records = s.lds.Len()
		if s.cache != nil {
			out[i].CacheBytes = s.cache.MemBytes()
		}
	}
	return out
}

// Boundary reports the reconcile statistics of the most recent Filter
// run.
func (e *Engine) Boundary() BoundaryStats { return e.boundary }

// PairwiseMerges reports the most recent run's parent-pointer merges
// performed by pairwise verification rounds. Summed per-shard merges +
// reconcile merges + pairwise merges equal the single-engine merges
// counter exactly (the counter-identity tests pin this down).
func (e *Engine) PairwiseMerges() int64 { return e.pairwiseMerges }

// sync assigns records added since the last call to their owner
// shards. Shard-local IDs are assigned in global-ID order, so each
// shard's local ordering agrees with the global one — the invariant
// the canonical cluster orderings rely on.
func (e *Engine) sync() {
	n := e.ds.Len()
	for id := e.synced; id < n; id++ {
		s := e.shards[Owner(int32(id), e.p)]
		truth := -1
		if id < len(e.ds.Truth) {
			truth = e.ds.Truth[id]
		}
		s.lds.Add(truth, e.ds.Records[id].Fields...)
		e.localID = append(e.localID, int32(s.lds.Len()-1))
	}
	e.synced = n
}

// ensureCaches creates (or grows) the per-shard signature caches for
// the plan. A plan whose hasher descriptors differ from the previous
// run's drops the caches, mirroring core.Stream.ensurePlan.
func (e *Engine) ensureCaches(plan *core.Plan) {
	fresh := e.descs == nil || !reflect.DeepEqual(e.descs, plan.HasherDescs)
	for _, s := range e.shards {
		if fresh || s.cache == nil {
			s.cache = core.NewCache(s.lds, len(plan.Hashers))
		} else {
			s.cache.Grow(s.lds.Len())
		}
	}
	e.descs = plan.HasherDescs
	e.numHashers = len(plan.Hashers)
}

// workCluster mirrors core's in-flight cluster representation so the
// global loop's bin behavior (insertion order, size classes, pop
// tie-breaks) is identical to the single engine's.
type workCluster struct {
	recs  []int32
	level int
	final bool
	byP   bool
}

func (c *workCluster) Size() int { return len(c.recs) }

// Filter runs Algorithm 1 over the sharded dataset and returns a
// result byte-identical — clusters, output, stats, counters — to
// core.Filter over the same dataset, plan and K (with the hash cache
// enabled, the single engine's default).
func Filter(ds *record.Dataset, plan *core.Plan, opts Options) (*core.Result, error) {
	e, err := New(ds, opts)
	if err != nil {
		return nil, err
	}
	return e.Filter(plan)
}

// Filter runs one sharded filtering pass with the engine's options.
func (e *Engine) Filter(plan *core.Plan) (*core.Result, error) {
	opts := e.opts
	if opts.K < 1 {
		return nil, fmt.Errorf("shard: K = %d, want >= 1", opts.K)
	}
	if opts.ReturnClusters < 0 {
		return nil, fmt.Errorf("shard: ReturnClusters = %d, want >= 0", opts.ReturnClusters)
	}
	if len(plan.Funcs) == 0 {
		return nil, fmt.Errorf("shard: plan has no hashing functions")
	}
	if err := plan.CompatibleWith(e.ds); err != nil {
		return nil, err
	}
	e.sync()
	e.ensureCaches(plan)

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
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &core.Result{}
	stats := &res.Stats
	stats.Workers = workers
	popts := core.PairwiseOptions{Workers: workers, MinPairs: opts.PairwiseMinPairs}

	// Per-run baselines: the per-shard caches are long-lived, so the
	// run's counters are deltas, exactly as in core.FilterIncremental.
	evalsTotal := func() int64 {
		var t int64
		for _, s := range e.shards {
			t += s.cache.TotalEvals()
		}
		return t
	}
	var baseHits, baseMisses, baseElems int64
	for _, s := range e.shards {
		h, m := s.cache.Lookups()
		baseHits += h
		baseMisses += m
		baseElems += s.cache.SigElemsHashed()
		s.prevEvals = s.cache.TotalEvals()
		s.stats = ShardStats{}
	}
	e.boundary = BoundaryStats{}
	e.pairwiseMerges = 0
	sem := make(chan struct{}, workers)

	hashRound := func(recs []int32, hf *core.HashFunc) [][]int32 {
		prevEvals := evalsTotal()
		ht := startStage(obs.StageHash)
		subs, work := e.shardedRound(recs, plan, hf, sem)
		ht.Workers = workers
		ht.Items = len(recs)
		ht.Work = work
		stats.HashWall += ht.End()
		stats.HashWork += work
		stats.HashRounds++
		obs.Count(opts.Obs, obs.CtrHashEvals, evalsTotal()-prevEvals)
		return subs
	}

	all := make([]int32, e.ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	bins := ppt.NewBins[*workCluster](e.ds.Len())
	round := 0
	emitted := 0
	notify := func(action string, clusterSize, level int) {
		if opts.OnRound == nil {
			return
		}
		round++
		opts.OnRound(core.RoundInfo{
			Round: round, ClusterSize: clusterSize, Action: action,
			Level: level, Emitted: emitted, Pending: bins.Len(),
		})
	}
	if e.ds.Len() > 0 {
		first := hashRound(all, plan.Funcs[0])
		stats.ModelCost += plan.Cost.StepCost(plan.Funcs[0], nil) * float64(e.ds.Len())
		for _, recs := range first {
			bins.Add(&workCluster{recs: recs, level: 1, final: L == 1})
		}
		notify("hash", e.ds.Len(), 1)
	}
	for emitted < khat {
		c, ok := bins.PopLargest()
		if !ok {
			break
		}
		if c.final {
			out := core.Cluster{Records: c.recs, ByPairwise: c.byP}
			if !c.byP {
				out.Level = c.level
			}
			emitted++
			obs.Count(opts.Obs, obs.CtrClustersEmitted, 1)
			notify("final", len(c.recs), out.Level)
			res.Clusters = append(res.Clusters, out)
			continue
		}
		t := c.level
		if plan.Cost.PreferPairwise(plan, t, len(c.recs)) {
			var pmem obs.MemSnapshot
			if memSample {
				pmem = obs.TakeMemSnapshot()
			}
			subs, pst := core.ApplyPairwiseOpt(e.ds, plan.Rule, c.recs, popts)
			e.pairwiseMerges += pst.Merges
			stats.PairwiseRounds++
			stats.PairsComputed += pst.PairsComputed
			stats.PrefilterRejects += pst.PrefilterRejects
			stats.EarlyExits += pst.EarlyExits
			stats.PairwiseWall += pst.Wall
			stats.PairwiseWork += pst.Work
			stats.ModelCost += float64(pst.PairsComputed) * plan.Cost.CostP
			if opts.Obs != nil {
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
			next := plan.Funcs[t]
			subs := hashRound(c.recs, next)
			obs.Count(opts.Obs, obs.CtrRehashRounds, 1)
			// The per-shard caches realize incremental computation just
			// like the single engine's global cache: charge only the
			// H_t -> H_{t+1} prefix extension.
			stats.ModelCost += plan.Cost.StepCost(next, plan.Funcs[t-1]) * float64(len(c.recs))
			for _, recs := range subs {
				bins.Add(&workCluster{recs: recs, level: t + 1, final: t+1 == L})
			}
			notify("hash", len(c.recs), t+1)
		}
	}
	stats.HashEvals = make([]int64, e.numHashers)
	var hits, misses, elems int64
	for _, s := range e.shards {
		for h, n := range s.cache.HashEvals() {
			stats.HashEvals[h] += n
		}
		sh, sm := s.cache.Lookups()
		hits += sh
		misses += sm
		elems += s.cache.SigElemsHashed()
		s.stats.HashEvals = s.cache.TotalEvals() - s.prevEvals
	}
	obs.Count(opts.Obs, obs.CtrCacheHits, hits-baseHits)
	obs.Count(opts.Obs, obs.CtrCacheMisses, misses-baseMisses)
	obs.Count(opts.Obs, obs.CtrSigElemsHashed, elems-baseElems)
	runTimer.Workers = workers
	runTimer.Items = e.ds.Len()
	runTimer.Work = runTimer.Elapsed() - (stats.HashWall + stats.PairwiseWall) + (stats.HashWork + stats.PairwiseWork)
	stats.Elapsed = runTimer.End()
	for _, c := range res.Clusters {
		res.Output = append(res.Output, c.Records...)
	}
	sort.Slice(res.Output, func(i, j int) bool { return res.Output[i] < res.Output[j] })
	return res, nil
}

// shardedRound executes one transitive hashing round: partition the
// round's records by owner, hash every shard's slice concurrently
// (each a serial ApplyHashExport against the shard's own cache and
// pool), then reconcile into one global partition over the round's
// records. The returned clusters hold global record IDs in the same
// canonical order core.ApplyHashOpt produces; work is the round's
// cumulative busy time (concurrent shard scans and boundary probes
// summed, sequential partitioning and forest work counted once).
func (e *Engine) shardedRound(recs []int32, plan *core.Plan, hf *core.HashFunc, sem chan struct{}) ([][]int32, time.Duration) {
	start := time.Now()
	numTables := len(hf.Tables)
	for _, s := range e.shards {
		s.lrecs = s.lrecs[:0]
		s.posIdx = s.posIdx[:0]
		// Clear last round's outputs up front: shards with no records
		// this round never enter the hashing goroutine, and stale
		// buckets or clusters must not leak into this round's reconcile.
		s.subs = nil
		s.reps = s.reps[:0]
		s.busy = 0
		s.roundColl, s.roundMerges = 0, 0
	}
	for i, id := range recs {
		s := e.shards[Owner(id, e.p)]
		s.lrecs = append(s.lrecs, e.localID[id])
		s.posIdx = append(s.posIdx, int32(i))
	}

	// Concurrent per-shard scans, at most cap(sem) in flight. Each
	// shard touches only its own state; determinism needs no ordering
	// here because reconciliation below walks shards in index order.
	parStart := time.Now()
	var wg sync.WaitGroup
	for _, s := range e.shards {
		if len(s.lrecs) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(s *shardState) {
			defer wg.Done()
			t0 := time.Now()
			s.reps = s.reps[:0]
			prevColl, prevMerges := s.hst.Collisions, s.hst.Merges
			s.subs, s.reps, s.tables = core.ApplyHashExport(s.lds, plan, hf, s.cache, s.lrecs, s.reps, s.pool, &s.hst)
			s.busy = time.Since(t0)
			s.roundColl = s.hst.Collisions - prevColl
			s.roundMerges = s.hst.Merges - prevMerges
			s.stats.Collisions += s.roundColl
			s.stats.Merges += s.roundMerges
			<-sem
		}(s)
	}
	wg.Wait()
	parWall := time.Since(parStart)

	var busySum time.Duration
	var roundColl, roundMerges int64
	for _, s := range e.shards {
		if len(s.lrecs) == 0 {
			continue
		}
		busySum += s.busy
		roundColl += s.roundColl
		roundMerges += s.roundMerges
		s.stats.RoundRecords += int64(len(s.lrecs))
		s.stats.Busy += s.busy
		if e.opts.Obs != nil {
			e.opts.Obs.Span(obs.Span{
				Stage: obs.StageShard, Wall: s.busy, Work: s.busy,
				Workers: 1, Items: len(s.lrecs),
			})
		}
	}

	// Reconcile: rebuild the global forest over the round's records.
	// Step 1 replays every shard's local components (their merges were
	// already counted by the shards); step 2 probes boundary buckets
	// concurrently and chains their edges in fixed (shard, chunk) order.
	// With numTables == 0 no record entered any bucket — mirror the
	// single engine, which drops every record of such a round.
	r0 := time.Now()
	var subs [][]int32
	var boundaryPairs, boundaryKeys, reconcileMerges int64
	var probeWall, probeBusy time.Duration
	if numTables > 0 {
		forest := ppt.NewForest(len(recs))
		for i := range recs {
			forest.MakeTree(i)
		}
		for _, s := range e.shards {
			for _, cl := range s.subs {
				p0 := int(s.posIdx[cl[0]])
				for _, li := range cl[1:] {
					ra, rb := forest.Root(p0), forest.Root(int(s.posIdx[li]))
					if ra != rb {
						forest.Merge(ra, rb)
					}
				}
			}
		}
		probeStart := time.Now()
		chunks := e.probeBoundary(sem)
		probeWall = time.Since(probeStart)
		for i := range chunks {
			c := &chunks[i]
			probeBusy += c.busy
			boundaryKeys += c.keys
			boundaryPairs += int64(len(c.edges))
			for _, ed := range c.edges {
				if ra, rb := forest.Root(int(ed.a)), forest.Root(int(ed.b)); ra != rb {
					forest.Merge(ra, rb)
					reconcileMerges++
				}
			}
		}
		subs = core.CollectClusters(forest, recs)
	}
	for _, s := range e.shards {
		s.tables.Release(s.pool)
	}
	reconWall := time.Since(r0)

	e.boundary.Keys += boundaryKeys
	e.boundary.Pairs += boundaryPairs
	e.boundary.Merges += reconcileMerges
	e.boundary.Wall += reconWall

	// Counter identities (see the package comment): shard-local
	// collisions plus boundary pairs equal the single engine's bucket
	// collisions, shard-local merges plus reconcile merges its merges.
	obs.Count(e.opts.Obs, obs.CtrBucketCollisions, roundColl+boundaryPairs)
	obs.Count(e.opts.Obs, obs.CtrMerges, roundMerges+reconcileMerges)
	obs.Count(e.opts.Obs, obs.CtrBoundaryKeys, boundaryKeys)
	obs.Count(e.opts.Obs, obs.CtrBoundaryPairs, boundaryPairs)
	obs.Count(e.opts.Obs, obs.CtrReconcileMerges, reconcileMerges)

	// Work: concurrent shard scans and probes by busy time, everything
	// else once.
	work := time.Since(start) - parWall - probeWall + busySum + probeBusy
	return subs, work
}

// boundaryEdge joins two round positions: a holds a bucket key in a
// lower shard, b is a higher shard's representative of the same key.
type boundaryEdge struct{ a, b int32 }

// probeChunk is one probe worker's share of a round's boundary
// exchange: a run of one shard's bucket representatives and what
// probing them found.
type probeChunk struct {
	shard int
	reps  []core.BucketRep
	edges []boundaryEdge
	keys  int64
	busy  time.Duration
}

// probeBoundary splits every shard s >= 1's bucket representatives into
// cap(sem) chunks and probes them concurrently, at most cap(sem) in
// flight, into the kept tables of the lower shards. The chunks come
// back in (shard, chunk) order.
func (e *Engine) probeBoundary(sem chan struct{}) []probeChunk {
	var chunks []probeChunk
	for si := 1; si < len(e.shards); si++ {
		reps := e.shards[si].reps
		size := (len(reps) + cap(sem) - 1) / cap(sem)
		for lo := 0; lo < len(reps); lo += size {
			chunks = append(chunks, probeChunk{shard: si, reps: reps[lo:min(lo+size, len(reps))]})
		}
	}
	var wg sync.WaitGroup
	for i := range chunks {
		wg.Add(1)
		sem <- struct{}{}
		go func(c *probeChunk) {
			defer wg.Done()
			t0 := time.Now()
			c.probe(e.shards)
			c.busy = time.Since(t0)
			<-sem
		}(&chunks[i])
	}
	wg.Wait()
	return chunks
}

// probe looks up each representative of the chunk in the kept tables
// of shards c.shard-1 down to 0. The nearest lower holder of the key
// supplies the one chained edge (any of its bucket members will do:
// the shard's replayed components already joined them), and the key is
// a boundary key exactly at its second-lowest holder — the same edges,
// up to component membership, and the same counts as chaining each
// holder to the previous one in shard order.
func (c *probeChunk) probe(shards []*shardState) {
	self := shards[c.shard]
	for _, rp := range c.reps {
		held := 0
		for h := c.shard - 1; h >= 0 && held < 2; h-- {
			li, ok := shards[h].tables.Lookup(int(rp.Table), rp.Key)
			if !ok {
				continue
			}
			if held == 0 {
				c.edges = append(c.edges, boundaryEdge{a: shards[h].posIdx[li], b: self.posIdx[rp.Rep]})
			}
			held++
		}
		if held == 1 {
			c.keys++
		}
	}
}
