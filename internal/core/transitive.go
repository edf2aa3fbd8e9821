package core

import (
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// parallelHashThreshold is the cluster size from which the hash stage
// runs on several workers: worker waves compute the bucket keys, and
// whole tables are filled concurrently. Below it one goroutine wins on
// dispatch overhead. It is a var only so tests can exercise both sides
// of the boundary (see export_test.go and HashOptions.MinParallel);
// production code treats it as a constant.
var parallelHashThreshold = 4096

// HashOptions controls one invocation of a transitive hashing function.
type HashOptions struct {
	// Workers bounds the goroutines of an invocation of MinParallel
	// records or more: up to Workers compute bucket keys over disjoint
	// record chunks, then up to min(Workers, tables) fill whole bucket
	// tables at once. 0 means runtime.GOMAXPROCS(0); 1 runs everything
	// on the calling goroutine. The partition, the counters and any
	// capture are identical for every value.
	Workers int
	// MinParallel overrides the record-count floor below which the
	// invocation runs on the calling goroutine (0 means the built-in
	// 4096 default). Mainly for tests and tuning.
	MinParallel int
	// Pool recycles bucket tables and scratch buffers across
	// invocations (FilterIncremental threads one pool through a whole
	// run, Stream through a stream's lifetime). A nil Pool builds a
	// transient pool for this invocation. Pools must not be shared by
	// concurrently running invocations.
	Pool *HashPool
	// Capture, when non-nil, retains this invocation's bucket state
	// for online point lookups: the bucket tables are kept out of the
	// pool's free list and each record's bucket predecessor is
	// recorded, so full bucket chains stay reconstructable after the
	// invocation returns (see BucketCapture / QueryIndex). The
	// partition and every counter are identical with or without a
	// capture. Release the capture to return the tables to the pool.
	Capture *BucketCapture
}

func (o HashOptions) resolve() HashOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MinParallel <= 0 {
		o.MinParallel = parallelHashThreshold
	}
	return o
}

// HashStats accumulates the measured work of ApplyHashOpt invocations.
type HashStats struct {
	// Evals counts streamed base-hash evaluations per plan hasher.
	// Only the streaming (nil cache) path counts here; cached
	// invocations count through the Cache itself (Cache.HashEvals),
	// which is where the incremental-computation saving shows.
	Evals []int64
	// Work is the cumulative busy time: the key and table workers'
	// summed busy time plus the sequential portions counted once.
	// Work ~= wall on one goroutine; Work divided by the
	// caller-observed wall time is the effective parallel speedup.
	Work time.Duration
	// Collisions counts insertions into already-occupied buckets (the
	// candidate edges of the collision graph). Each occupied insertion
	// yields exactly one edge, so the count is identical for every
	// worker count.
	Collisions int64
	// Merges counts successful parent-pointer-tree merges. Like the
	// pairwise counter it is order-independent (trees built minus
	// components left), hence identical for every worker count.
	Merges int64
	// SigElems counts streamed set-element hashes (the
	// sig_elems_hashed obs counter). Like Evals, only the streaming
	// (nil cache) path counts here; cached invocations count through
	// Cache.SigElemsHashed.
	SigElems int64
}

// ApplyHashOpt applies transitive hashing function hf to the records
// in recs (dataset record IDs) and returns the resulting partition, one
// slice of record IDs per cluster (Definition 1: the connected
// components of the bucket-collision graph).
//
// Each invocation uses a fresh set of hash tables and a fresh
// parent-pointer forest, per Appendix B.2: reusing tables across
// invocations could merge clusters from different invocations. Base
// hash values, however, are reused through the cache, which is where
// the incremental-computation saving comes from. A nil cache streams
// instead — each record's hash values live only while its bucket keys
// are folded — which one-shot blocking baselines use to bound memory.
//
// When st is non-nil, streamed base-hash evaluations, cumulative busy
// time and the collision/merge counters are accumulated into it. The
// insertion is insertRound's, at every worker count; the partition is
// identical for every worker count because components are edge-order
// independent and CollectClusters emits a canonical ordering.
func ApplyHashOpt(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache, recs []int32, opts HashOptions, st *HashStats) [][]int32 {
	start := time.Now()
	forest := insertRound(ds, p, hf, cache, recs, opts, nil, st)
	out := CollectClusters(forest, recs)
	if st != nil {
		st.Work += time.Since(start)
	}
	return out
}

// bucketExport asks insertRound for what ApplyHashExport returns
// besides the partition: the round's tables, kept, and one
// representative per bucket, appended to reps.
type bucketExport struct {
	reps   []BucketRep
	tables []*oaTable
}

// insertRound is the one bucket-insertion loop: it applies hf to recs
// and returns the forest of the bucket-collision components, over
// indices into recs, adding evaluations, collisions, merges and the
// parallel sections' busy-minus-wall time to st (the caller adds its
// own wall time).
//
// Keys come first: every record's bucket key in every table, folded
// into a z × n table-major matrix by worker waves over record chunks.
// The matrix is allocated per call, not pooled, because a pool can
// outlive its runs (the sharded engine keeps one per shard). Then the
// tables: at most min(Workers, z) workers each fill one whole table in
// ascending record order, collecting its collision edges, and the
// edges reduce into the forest in table order before the table is
// recycled, so a round that keeps no tables holds only min(Workers, z)
// of them. Each bucket thus holds its last inserted record and every
// collision yields one edge to the previous occupant, as a map from
// key to last record would. A table holds one slot per distinct key,
// not per record, so tables are sized by the keys they hold: the first
// wave's start at the minimum size and grow as they fill, and every
// later table starts sized for the most distinct keys an earlier table
// of the round held. A capture's predecessor cell prev[t][li]
// is written only by the worker filling table t. An export fills its
// tables on the calling goroutine, records each bucket's first member
// as its representative, and keeps the tables, as a capture does.
func insertRound(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache, recs []int32, opts HashOptions, exp *bucketExport, st *HashStats) *ppt.Forest {
	opts = opts.resolve()
	pool := opts.Pool
	if pool == nil {
		pool = NewHashPool()
	}
	var evals []int64
	var selems *int64
	if st != nil {
		if st.Evals == nil {
			st.Evals = make([]int64, len(p.Hashers))
		}
		evals = st.Evals
		selems = &st.SigElems
	}
	n, z := len(recs), len(hf.Tables)
	workers := opts.Workers
	if n < opts.MinParallel || exp != nil {
		workers = 1
	}
	// parWall/parBusy track the wall time spent inside the parallel
	// sections and the matching summed worker busy time, so Work can
	// charge concurrent sections by busy time and sequential ones once.
	var parWall, parBusy time.Duration
	run := func(tasks int, task func(i int)) {
		if tasks == 1 {
			task(0)
			return
		}
		wall, busy := fanOut(tasks, task)
		parWall += wall
		parBusy += busy
	}

	keys := make([]uint64, z*n)
	chunks := max(min(workers, n), 1)
	chunk := (n + chunks - 1) / chunks
	scratches := make([]*keyScratch, chunks)
	for i := range scratches {
		scratches[i] = pool.getScratch(ds, p, hf, cache)
	}
	run(chunks, func(i int) {
		s := scratches[i]
		s.keysFor(recs, min(i*chunk, n), min((i+1)*chunk, n), keys)
		s.flush(evals, selems)
	})
	for _, s := range scratches {
		pool.putScratch(s)
	}

	var prev [][]int32
	var kept []*oaTable
	if c := opts.Capture; c != nil {
		c.begin(z, n)
		prev = c.prev
	}
	if opts.Capture != nil || exp != nil {
		kept = make([]*oaTable, z)
	}
	var reps *[]BucketRep
	if exp != nil {
		reps = &exp.reps
	}
	forest := ppt.NewForest(n)
	if z > 0 {
		for li := range recs {
			forest.MakeTree(li)
		}
	}
	var collisions, merges int64
	slots := min(workers, z)
	tabs := make([]*oaTable, slots)
	edges := pool.edgeSlots(slots)
	base := 0 // the first table of the current wave
	// held is the most distinct keys any earlier table of the round
	// held: the first wave's tables start at the minimum size and grow
	// as they fill, and every later table starts sized for held keys.
	held := 0
	fill := func(i int) {
		t := base + i
		var tprev []int32
		if prev != nil {
			tprev = prev[t]
		}
		edges[i] = fillTable(tabs[i], t, keys[t*n:(t+1)*n], tprev, edges[i][:0], reps)
	}
	for ; base < z; base += slots {
		wave := min(slots, z-base)
		for i := range wave {
			tabs[i] = pool.getTable(held)
		}
		run(wave, fill)
		// Only this goroutine touches the forest (the ppt concurrency
		// contract).
		for i := range wave {
			held = max(held, tabs[i].used)
			collisions += int64(len(edges[i]))
			for _, e := range edges[i] {
				if ra, rb := forest.Root(int(e.a)), forest.Root(int(e.b)); ra != rb {
					forest.Merge(ra, rb)
					merges++
				}
			}
			if kept != nil {
				kept[base+i] = tabs[i]
			} else {
				pool.putTables(tabs[i])
			}
		}
	}
	pool.putEdgeSlots(edges)
	if opts.Capture != nil {
		opts.Capture.tables = kept
	}
	if exp != nil {
		exp.tables = kept
	}
	if st != nil {
		st.Work += parBusy - parWall
		st.Collisions += collisions
		st.Merges += merges
	}
	return forest
}

// fanOut runs task(0), ..., task(tasks-1) on one goroutine each and
// returns the section's wall time and the tasks' summed busy time.
func fanOut(tasks int, task func(i int)) (wall, busy time.Duration) {
	start := time.Now()
	var busyNS atomic.Int64
	var wg sync.WaitGroup
	wg.Add(tasks)
	for i := range tasks {
		go func() {
			defer wg.Done()
			t0 := time.Now()
			task(i)
			busyNS.Add(int64(time.Since(t0)))
		}()
	}
	wg.Wait()
	return time.Since(start), time.Duration(busyNS.Load())
}

// mergeEdge is one bucket collision between two local indices into
// recs: a was in the bucket, b joined it.
type mergeEdge struct{ a, b int32 }

// fillTable inserts keys[li], table t's key of record li, into tab for
// every li in ascending order, the one production insertion into an
// oaTable. It appends one edge per collision, from the bucket's
// previous occupant to li, and returns the edges. A non-nil prev also
// records that occupant as prev[li]; a non-nil reps gains each new
// bucket's first member as its representative.
func fillTable(tab *oaTable, t int, keys []uint64, prev []int32, edges []mergeEdge, reps *[]BucketRep) []mergeEdge {
	for li, key := range keys {
		last, occupied := tab.swap(key, int32(li))
		switch {
		case occupied:
			edges = append(edges, mergeEdge{a: last, b: int32(li)})
			if prev != nil {
				prev[li] = last
			}
		case reps != nil:
			*reps = append(*reps, BucketRep{Key: key, Table: int32(t), Rep: int32(li)})
		}
	}
	return edges
}

// keyScratch computes a record's bucket keys, either through the
// shared cache (concurrent-safe across distinct records) or into
// private per-hasher buffers when streaming. Scratches are recycled
// through the HashPool; rebind re-targets one at an invocation and
// release drops its references to the invocation's inputs.
type keyScratch struct {
	ds    *record.Dataset
	p     *Plan
	hf    *HashFunc
	cache *Cache
	// seeds[t] is table t's bucket-key seed (see tableSeeds).
	seeds []uint64
	// parts[h] counts the table parts of hf that read hasher h; a
	// record's keys need hasher h's values iff parts[h] > 0.
	parts []int
	// views[h] holds the current record's values of hasher h: a view
	// into the cache's arena, or buf[h] when streaming.
	views [][]uint64
	// hits counts the cache lookups the key fold saves: one Ensure per
	// (record, hasher) stands in for parts[h] per-part lookups, so the
	// other parts[h]-1 are hits, flushed into the cache by flush.
	hits int64
	// stream buffers and per-hasher eval counters, used only when
	// cache == nil (cached evaluations count through the Cache).
	buf   [][]uint64
	evals []int64
	// selems accumulates streamed set-element hashes (HashStats.
	// SigElems), flushed alongside the eval counters.
	selems int64
}

// rebind points the scratch at one invocation's inputs, reusing the
// buffers of previous invocations when their capacity suffices.
func (s *keyScratch) rebind(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache) {
	s.ds, s.p, s.hf, s.cache = ds, p, hf, cache
	s.hits, s.selems = 0, 0
	nh := len(p.Hashers)
	s.seeds = tableSeeds(s.seeds, len(hf.Tables))
	s.parts = resize(s.parts, nh)
	clear(s.parts)
	for _, table := range hf.Tables {
		for _, part := range table.Parts {
			s.parts[part.Hasher]++
		}
	}
	s.views = resize(s.views, nh)
	if cache != nil {
		// Cached invocations count evals through the Cache; an empty
		// counter slice keeps flush's eval step a no-op without
		// freeing the backing array for later streaming reuse.
		s.evals = s.evals[:0]
		return
	}
	s.buf = resize(s.buf, nh)
	for h, n := range hf.FuncsPerHasher {
		s.buf[h] = resize(s.buf[h], n)
		s.views[h] = s.buf[h]
	}
	s.evals = resize(s.evals, nh)
	clear(s.evals)
}

// release drops the scratch's references to its invocation's inputs
// before the scratch returns to the pool, so a pooled scratch keeps no
// dataset, plan or cache alive — in particular no arena of a cache the
// owner has since replaced.
func (s *keyScratch) release() {
	s.ds, s.p, s.hf, s.cache = nil, nil, nil, nil
	clear(s.views)
}

// resize returns s with length n, reallocated only when its capacity
// is short. Retained elements keep their old values.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// keysFor folds the bucket keys of records recs[lo:hi] into the
// table-major key matrix: record li's key in table t goes to
// keys[t*len(recs)+li]. Each record's values are looked up once per
// hasher its tables read — one Cache.Ensure per (record, hasher) —
// and every table's key is folded from those views.
func (s *keyScratch) keysFor(recs []int32, lo, hi int, keys []uint64) {
	n := len(recs)
	fph := s.hf.FuncsPerHasher
	for li := lo; li < hi; li++ {
		rec := recs[li]
		if s.cache != nil {
			for h, parts := range s.parts {
				if parts > 0 {
					s.views[h] = s.cache.Ensure(s.p, h, int(rec), fph[h])
					s.hits += int64(parts - 1)
				}
			}
		} else {
			r := &s.ds.Records[rec]
			for h, fns := range fph {
				if fns == 0 {
					continue
				}
				lshfamily.HashRange(s.p.Hashers[h], 0, fns, r, s.buf[h])
				s.evals[h] += int64(fns)
				s.selems += lshfamily.SigElems(s.p.Hashers[h], 0, fns, r)
			}
		}
		for t, table := range s.hf.Tables {
			keys[t*n+li] = bucketKey(s.seeds[t], table.Parts, s.views)
		}
	}
}

// flush adds the scratch's counts into their shared destinations, once
// per worker chunk: the saved lookups into the cache's hits, the
// streamed evals into evals and the streamed element hashes into
// selems (shared across workers, hence the atomics; nil destinations
// do not count). rebind zeroes the counts for the next invocation.
func (s *keyScratch) flush(evals []int64, selems *int64) {
	if s.hits != 0 {
		s.cache.addHits(s.hits)
	}
	if evals != nil {
		for h, n := range s.evals {
			if n != 0 {
				atomic.AddInt64(&evals[h], n)
			}
		}
	}
	if selems != nil && s.selems != 0 {
		atomic.AddInt64(selems, s.selems)
	}
}

// tableSeeds returns the bucket-key seeds of z tables in dst's
// storage: table t's key starts at CombineInit ^ SplitMix64(t +
// 0x51ed2701), so equal part values in different tables give
// different keys.
func tableSeeds(dst []uint64, z int) []uint64 {
	dst = resize(dst, z)
	for t := range dst {
		dst[t] = xhash.CombineInit ^ xhash.SplitMix64(uint64(t)+0x51ed2701)
	}
	return dst
}

// bucketKey folds one table's bucket key from its seed: Combine over
// the values of each part in order, vals[h] holding hasher h's values
// (at least the table's prefix). It is the one production spelling of
// a bucket key; the hash stage and point lookups both call it.
func bucketKey(seed uint64, parts []TablePart, vals [][]uint64) uint64 {
	key := seed
	for _, part := range parts {
		for _, v := range vals[part.Hasher][part.Start : part.Start+part.Count] {
			key = xhash.Combine(key, v)
		}
	}
	return key
}

// CollectClusters converts a forest over indices into recs back to
// dataset record IDs, one ascending cluster per tree, deterministically
// ordered (largest first, ties on first record) — the canonical order
// every engine emits, whatever order its merges ran in. A nil recs
// keeps the leaf indices, as the sharded export wants them. All
// clusters of one invocation share a single flat backing array — one
// allocation instead of one per cluster — sliced with full expressions
// so they stay disjoint.
func CollectClusters(forest *ppt.Forest, recs []int32) [][]int32 {
	roots := forest.Roots()
	out := make([][]int32, 0, len(roots))
	flat := make([]int32, forest.NumLeaves())
	used := 0
	var leaves []int32
	for _, r := range roots {
		leaves = forest.Leaves(leaves[:0], r)
		cluster := flat[used : used+len(leaves) : used+len(leaves)]
		used += len(leaves)
		if recs == nil {
			copy(cluster, leaves)
		} else {
			for i, l := range leaves {
				cluster[i] = recs[l]
			}
		}
		sort.Slice(cluster, func(i, j int) bool { return cluster[i] < cluster[j] })
		out = append(out, cluster)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out
}
