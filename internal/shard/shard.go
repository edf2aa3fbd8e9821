// Package shard is the horizontal scale-out layer: it partitions a
// dataset across P independent engine shards — each with its own
// signature cache, arenas and scratch pool — runs every adaptive
// hashing round on all shards concurrently, and reconciles the
// per-shard partitions into one global partition through a
// deterministic boundary-bucket exchange.
//
// Algorithm 1's control loop is not here. Every cost-model decision
// (hash further vs. verify pairwise vs. emit) depends on global cluster
// sizes, so per-shard adaptive loops would diverge from the
// single-engine run. Instead Engine implements core.HashRounder, the
// seam of core's one loop (core.FilterRounds, which
// core.FilterIncremental runs): the loop pops the same clusters in the
// same order on both engines, and only its hashing rounds come here.
// Each is executed as P concurrent serial scans (core.ApplyHashExport)
// over the round's records, split by owning shard. Pairwise
// verification rounds stay in the loop, on global record IDs. Records
// are owned by shard SplitMix64(record id) % P for the engine's
// lifetime.
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
// the single engine.
package shard

import (
	"fmt"
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

// Options configures an engine: Shards fixes its partition count, and
// the remaining fields are Engine.Filter's run options, which it hands
// to core's loop as the core.Options fields of the same names.
// FilterIncremental takes core.Options directly. Ablation switches and
// query capture are absent: ablations are single-engine experiments,
// and the sharded rounds retain no per-bucket point-query state.
type Options struct {
	// Shards is the partition count P. 1 is valid (a degenerate but
	// fully functional single-shard engine, used by the differential
	// tests); use core.Filter directly when no partitioning is wanted.
	Shards int

	// K follows core.Options semantics.
	K int

	// Workers bounds the number of concurrently hashing shards and of
	// concurrent reconcile probe workers, and is the pairwise stage's
	// worker-pool size (core.Options.Workers semantics: 0 means
	// GOMAXPROCS, 1 runs shards and probes one after another — output is
	// identical for every value).
	Workers int

	// MemSample and Obs follow core.Options semantics. Each hashing
	// round reports one StageHash span for the whole round plus one
	// StageShard span per participating shard; the reconcile pass's
	// work shows up in the boundary_keys / boundary_pairs /
	// reconcile_merges counters.
	MemSample bool
	Obs       obs.Sink
}

// ShardStats describes one shard's work during the engine's most
// recent run (Filter or FilterIncremental).
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
	// signature cache after the run, and CacheDeadBytes the part of it
	// that relocated prefixes left behind and the run's compaction did
	// not release (core.Cache.DeadBytes).
	CacheBytes     int64 `json:"cache_bytes"`
	CacheDeadBytes int64 `json:"cache_dead_bytes"`
	// PoolBytes is what the shard's hashing scratch pool keeps for the
	// next run: its free bucket tables and merge-edge lists
	// (core.HashPool.MemBytes).
	PoolBytes int64 `json:"pool_bytes"`
}

// BoundaryStats describes the cross-shard reconcile work of the most
// recent run.
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
	// position in the round's global record slice. They and the
	// round's outputs below are reused across a run's rounds and
	// dropped when the run ends.
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
	// caches are the shards' signature caches, in shard order.
	caches []*core.Cache

	// plan, sink and sem are the current run's plan, stats sink and
	// concurrency bound (Workers slots), set by Begin for HashRound.
	plan *core.Plan
	sink obs.Sink
	sem  chan struct{}

	boundary BoundaryStats
}

// New creates a sharded engine over ds with opts.Shards partitions.
// The dataset may keep growing afterwards: each run assimilates new
// records into their owner shards first.
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

// PerShard reports per-shard statistics of the most recent run
// (nil before the first run).
func (e *Engine) PerShard() []ShardStats {
	out := make([]ShardStats, len(e.shards))
	for i, s := range e.shards {
		out[i] = s.stats
		out[i].Shard = i
		out[i].Records = s.lds.Len()
		out[i].CacheBytes = s.cache.MemBytes()
		out[i].CacheDeadBytes = s.cache.DeadBytes()
		out[i].PoolBytes = s.pool.MemBytes()
	}
	return out
}

// Boundary reports the reconcile statistics of the most recent run.
func (e *Engine) Boundary() BoundaryStats { return e.boundary }

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

// Filter runs one sharded filtering pass with the engine's options and
// returns a result byte-identical (clusters, output, stats, counters)
// to core.Filter's over the same dataset, plan and K with the hash
// cache on, the single engine's default.
func (e *Engine) Filter(plan *core.Plan) (*core.Result, error) {
	o := e.opts
	opts := core.Options{K: o.K, Workers: o.Workers, MemSample: o.MemSample, Obs: o.Obs}
	return core.Collect(func(emit func(core.Cluster) bool, stats *core.Stats) error {
		return e.FilterIncremental(plan, opts, emit, stats)
	})
}

// FilterIncremental runs core's Algorithm-1 loop (core.FilterRounds)
// over the sharded dataset with the engine as its hash rounds: clusters
// stream to emit as in core.FilterIncremental, and clusters, stats and
// counters are byte-identical to the single engine's with its hash
// cache on. The engine's own Options are not consulted. Of opts, the
// single engine's round knobs (Cache, HashPool, HashMinParallel,
// DisableHashCache) do not apply, and Capture is an error. Workers
// bounds the concurrent shard exports and boundary probes; each export
// fills its tables on one goroutine. stats may be nil.
func (e *Engine) FilterIncremental(plan *core.Plan, opts core.Options, emit func(core.Cluster) bool, stats *core.Stats) error {
	return core.FilterRounds(e.ds, plan, opts, e, emit, stats)
}

// Begin implements core.HashRounder: records added since the last run
// go to their owner shards, each shard's cache follows the plan
// (core.CacheFor), the rounds get opts' sink and at most opts.Workers
// concurrent shard scans and probe workers, and the per-run statistics
// restart.
func (e *Engine) Begin(plan *core.Plan, opts core.Options) {
	e.sync()
	e.caches = e.caches[:0]
	for _, s := range e.shards {
		s.cache = core.CacheFor(s.cache, s.lds, plan)
		e.caches = append(e.caches, s.cache)
		s.prevEvals = s.cache.TotalEvals()
		s.stats = ShardStats{}
	}
	e.plan, e.sink, e.sem = plan, opts.Obs, make(chan struct{}, opts.Workers)
	e.boundary = BoundaryStats{}
}

// Caches implements core.HashRounder: the shards' signature caches,
// in shard order.
func (e *Engine) Caches() []*core.Cache { return e.caches }

// End implements core.HashRounder: it sets the shards' per-run eval
// counts and drops their round buffers. Only a round reads its inputs
// and outputs: keeping round one's buffers would hold them at the
// whole shard's size.
func (e *Engine) End() {
	for _, s := range e.shards {
		s.stats.HashEvals = s.cache.TotalEvals() - s.prevEvals
		s.lrecs, s.posIdx, s.subs, s.reps = nil, nil, nil, nil
	}
}

// HashRound implements core.HashRounder: partition the round's records
// by owner, hash every shard's slice concurrently (each a serial
// ApplyHashExport against the shard's own cache and pool), then
// reconcile into one global partition over the round's records. The
// returned clusters hold global record IDs in the same canonical order
// core.ApplyHashOpt produces. st gains the round's busy time
// (concurrent shard scans and boundary probes summed, sequential
// partitioning and forest work counted once), its collisions
// (shard-local plus boundary pairs) and its merges (shard-local plus
// reconcile), which is exactly what the single engine counts. It is
// valid only inside a run Begin began.
func (e *Engine) HashRound(recs []int32, hf *core.HashFunc, st *core.HashStats) [][]int32 {
	start := time.Now()
	plan, sem := e.plan, e.sem
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
		if e.sink != nil {
			e.sink.Span(obs.Span{
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
		chunks := e.probeBoundary()
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

	obs.Count(e.sink, obs.CtrBoundaryKeys, boundaryKeys)
	obs.Count(e.sink, obs.CtrBoundaryPairs, boundaryPairs)
	obs.Count(e.sink, obs.CtrReconcileMerges, reconcileMerges)

	// Counter identities (see the package comment): shard-local
	// collisions plus boundary pairs equal the single engine's bucket
	// collisions, shard-local merges plus reconcile merges its merges.
	// Work: concurrent shard scans and probes by busy time, everything
	// else once.
	st.Work += time.Since(start) - parWall - probeWall + busySum + probeBusy
	st.Collisions += roundColl + boundaryPairs
	st.Merges += roundMerges + reconcileMerges
	return subs
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
// cap(e.sem) chunks and probes them concurrently, at most cap(e.sem) in
// flight, into the kept tables of the lower shards. The chunks come
// back in (shard, chunk) order.
func (e *Engine) probeBoundary() []probeChunk {
	sem := e.sem
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
