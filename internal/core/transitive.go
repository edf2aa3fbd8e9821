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

// parallelHashThreshold is the cluster size above which the hash stage
// runs its parallel pipeline: bucket keys are precomputed by worker
// waves and bucket insertion runs over sharded bucket tables. Below it
// the serial loop wins on dispatch overhead. It is a var only so tests
// can exercise both sides of the boundary (see export_test.go and
// HashOptions.MinParallel); production code treats it as a constant.
var parallelHashThreshold = 4096

// HashOptions controls one invocation of a transitive hashing function.
type HashOptions struct {
	// Workers is the worker-pool size for the parallel key-precompute
	// and sharded-insertion stages; 0 means runtime.GOMAXPROCS(0), 1
	// forces the serial path. The partition produced is identical for
	// every value.
	Workers int
	// Shards is the number of bucket-table shards of the parallel
	// insertion stage. Records' bucket keys are routed to shard
	// hash(bucketKey) % Shards; each shard owns a disjoint slice of
	// every table's bucket space and is merged deterministically, so
	// bucket contents and the resulting partition are identical to the
	// serial path for every shard count. 0 means Workers.
	Shards int
	// MinParallel overrides the record-count floor below which the
	// serial path is used (0 means the built-in 4096 default). Mainly
	// for tests and tuning.
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
	if o.Shards <= 0 {
		o.Shards = o.Workers
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
	// Work is the cumulative busy time: the parallel key-precompute
	// and shard workers' summed busy time plus the sequential portions
	// counted once. Work ~= wall on the serial path; Work divided by
	// the caller-observed wall time is the effective parallel speedup.
	Work time.Duration
	// Collisions counts insertions into already-occupied buckets (the
	// candidate edges of the collision graph). Each occupied insertion
	// yields exactly one edge on both the serial and the sharded path,
	// so the count is identical for every worker and shard count.
	Collisions int64
	// Merges counts successful parent-pointer-tree merges. Like the
	// pairwise counter it is order-independent (trees built minus
	// components left), hence identical for every worker/shard count.
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
// instead — each record's hash values live only while that record is
// inserted — which one-shot blocking baselines use to bound memory.
//
// When st is non-nil, streamed base-hash evaluations, cumulative busy
// time and the collision/merge counters are accumulated into it.
// Inputs of MinParallel records or more run the parallel pipeline —
// key precompute in worker waves, then bucket insertion over sharded
// bucket tables with a deterministic per-shard merge. The partition is
// identical for every worker and shard count: shard edge lists follow
// record order, components are edge-order independent, and
// CollectClusters emits a canonical ordering. Fresh table *contents*
// per invocation come from an O(1) epoch clear; the table *memory* is
// recycled through the pool, which is where the hot loop's allocation
// saving comes from.
func ApplyHashOpt(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache, recs []int32, opts HashOptions, st *HashStats) [][]int32 {
	start := time.Now()
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
	forest := ppt.NewForest(len(recs))
	numTables := len(hf.Tables)
	capture := opts.Capture
	var prev [][]int32
	if capture != nil {
		capture.begin(numTables, len(recs))
		prev = capture.prev
	}

	// parWall/parBusyNS track the wall time spent inside the parallel
	// sections and the matching summed worker busy time, so Work can
	// charge concurrent sections by busy time and sequential ones once.
	var parWall time.Duration
	var parBusyNS int64
	var collisions, merges int64

	if len(recs) >= opts.MinParallel && opts.Workers > 1 && numTables > 0 {
		// Stage 1: precompute every record's bucket keys in parallel.
		pw0 := time.Now()
		keys := pool.keyMatrix(len(recs) * numTables)
		var wg sync.WaitGroup
		var scratches []*keyScratch
		chunk := (len(recs) + opts.Workers - 1) / opts.Workers
		for w := 0; w < opts.Workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(recs) {
				hi = len(recs)
			}
			if lo >= hi {
				break
			}
			scratch := pool.getScratch(ds, p, hf, cache)
			scratches = append(scratches, scratch)
			wg.Add(1)
			go func(lo, hi int, scratch *keyScratch) {
				defer wg.Done()
				t0 := time.Now()
				for li := lo; li < hi; li++ {
					scratch.keysFor(recs[li], keys[li*numTables:(li+1)*numTables])
				}
				scratch.flushEvals(evals)
				scratch.flushSigElems(selems)
				atomic.AddInt64(&parBusyNS, int64(time.Since(t0)))
			}(lo, hi, scratch)
		}
		wg.Wait()
		for _, s := range scratches {
			pool.putScratch(s)
		}

		// Stage 2: sharded bucket insertion. Shard s owns the buckets
		// whose key hashes to it; each shard walks the key matrix in
		// (record, table) order — the serial insertion order — so its
		// bucket tables hold exactly the serial tables' buckets for its
		// key slice, and its edge list is deterministic. Every shard's
		// table set is acquired up front on this goroutine (the pool is
		// not locked) and handed to its worker; per-shard expected
		// occupancy sizes the tables.
		shardTabs := pool.getTables(numTables*opts.Shards, len(recs)/opts.Shards+1)
		edgesByShard := pool.edgeSlots(opts.Shards)
		for s := 0; s < opts.Shards; s++ {
			wg.Add(1)
			go func(s int, tabs []*oaTable) {
				defer wg.Done()
				t0 := time.Now()
				edgesByShard[s] = shardEdges(keys, len(recs), numTables, s, opts.Shards, tabs, edgesByShard[s], prev)
				atomic.AddInt64(&parBusyNS, int64(time.Since(t0)))
			}(s, shardTabs[s*numTables:(s+1)*numTables])
		}
		wg.Wait()
		parWall = time.Since(pw0)

		// Stage 3: sequential reduce. Only this goroutine touches the
		// forest (the ppt concurrency contract). Every record was
		// inserted into numTables > 0 buckets, so all get trees, as on
		// the serial path; the merge order (shard-major, then edge
		// order) differs from serial, but connected components are
		// edge-order independent and CollectClusters canonicalizes.
		for li := range recs {
			forest.MakeTree(li)
		}
		for _, edges := range edgesByShard {
			collisions += int64(len(edges))
			for _, e := range edges {
				if ra, rb := forest.Root(int(e.a)), forest.Root(int(e.b)); ra != rb {
					forest.Merge(ra, rb)
					merges++
				}
			}
		}
		pool.putEdgeSlots(edgesByShard)
		if capture != nil {
			capture.shards = opts.Shards
			capture.tables = shardTabs
		} else {
			pool.putTables(shardTabs)
		}
	} else {
		// Serial path: one pass in record order, inserting into pooled
		// per-table open-addressing tables (fresh contents by epoch
		// clear, recycled memory) and merging on occupied buckets.
		tables := pool.getTables(numTables, len(recs))
		scratch := pool.getScratch(ds, p, hf, cache)
		rowKeys := pool.keyMatrix(numTables)
		for li, rec := range recs {
			scratch.keysFor(rec, rowKeys)
			for t, key := range rowKeys {
				li32 := int32(li)
				last, occupied := tables[t].swap(key, li32)
				if !forest.InTree(li) {
					forest.MakeTree(li) // cases 1 and 3 of Figure 19
				}
				if occupied {
					collisions++
					if prev != nil {
						prev[t][li] = last
					}
					ra, rb := forest.Root(int(last)), forest.Root(li)
					if ra != rb {
						forest.Merge(ra, rb) // case 3/4 merge
						merges++
					}
				}
			}
		}
		scratch.flushEvals(evals)
		scratch.flushSigElems(selems)
		pool.putScratch(scratch)
		if capture != nil {
			capture.tables = tables
		} else {
			pool.putTables(tables)
		}
	}
	out := CollectClusters(forest, recs)
	if st != nil {
		st.Work += time.Since(start) - parWall + time.Duration(atomic.LoadInt64(&parBusyNS))
		st.Collisions += collisions
		st.Merges += merges
	}
	return out
}

// mergeEdge is one bucket collision between two local indices into
// recs: a was in the bucket, b joined it.
type mergeEdge struct{ a, b int32 }

// keyShard routes a bucket key to its owning shard. The key is mixed
// once more before the modulo: bucket keys are FNV combinations whose
// low bits alone are not uniform enough to balance shards.
func keyShard(key uint64, shards int) int {
	return int(xhash.SplitMix64(key) % uint64(shards))
}

// shardEdges runs bucket insertion for one shard: it scans the
// (record-major) key matrix, keeps per-table bucket tables restricted
// to the shard's keys, and appends the bucket-collision edges to edges
// in insertion order. Each bucket entry holds the last record added,
// exactly as on the serial path. tabs holds one epoch-cleared table
// per hash table; both it and the returned edge list are pool-owned.
// A non-nil prev additionally records each record's bucket
// predecessor (prev[t][li], for a BucketCapture); every (t, li) cell
// belongs to exactly one shard — the one owning key(li, t) — so
// concurrent shards never write the same cell.
func shardEdges(keys []uint64, numRecs, numTables, shard, shards int, tabs []*oaTable, edges []mergeEdge, prev [][]int32) []mergeEdge {
	for li := 0; li < numRecs; li++ {
		row := keys[li*numTables : (li+1)*numTables]
		for t, key := range row {
			if keyShard(key, shards) != shard {
				continue
			}
			if last, occupied := tabs[t].swap(key, int32(li)); occupied {
				edges = append(edges, mergeEdge{a: last, b: int32(li)})
				if prev != nil {
					prev[t][li] = last
				}
			}
		}
	}
	return edges
}

// keyScratch computes a record's bucket keys, either through the
// shared cache (concurrent-safe across distinct records) or into
// private per-hasher buffers when streaming. Scratches are recycled
// through the HashPool; rebind re-targets one at an invocation.
type keyScratch struct {
	ds    *record.Dataset
	p     *Plan
	hf    *HashFunc
	cache *Cache
	// stream buffers and per-hasher eval counters, used only when
	// cache == nil (cached evaluations count through the Cache).
	buf   [][]uint64
	evals []int64
	// selems accumulates streamed set-element hashes (HashStats.
	// SigElems), flushed by flushSigElems alongside the eval counters.
	selems int64
}

// rebind points the scratch at one invocation's inputs, reusing the
// streaming buffers of previous invocations when their capacity
// suffices.
func (s *keyScratch) rebind(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache) {
	s.ds, s.p, s.hf, s.cache = ds, p, hf, cache
	s.selems = 0
	if cache != nil {
		// Cached invocations count evals through the Cache; an empty
		// counter slice keeps flushEvals a no-op without freeing the
		// backing array for later streaming reuse.
		s.evals = s.evals[:0]
		return
	}
	if cap(s.buf) < len(p.Hashers) {
		s.buf = make([][]uint64, len(p.Hashers))
	}
	s.buf = s.buf[:len(p.Hashers)]
	for h, n := range hf.FuncsPerHasher {
		if cap(s.buf[h]) < n {
			s.buf[h] = make([]uint64, n)
		}
		s.buf[h] = s.buf[h][:n]
	}
	if cap(s.evals) < len(p.Hashers) {
		s.evals = make([]int64, len(p.Hashers))
	}
	s.evals = s.evals[:len(p.Hashers)]
	for h := range s.evals {
		s.evals[h] = 0
	}
}

// keysFor fills out[t] with record rec's bucket key for each table t.
func (s *keyScratch) keysFor(rec int32, out []uint64) {
	if s.cache == nil {
		r := &s.ds.Records[rec]
		for h, n := range s.hf.FuncsPerHasher {
			if n == 0 {
				continue
			}
			lshfamily.HashRange(s.p.Hashers[h], 0, n, r, s.buf[h])
			s.evals[h] += int64(n)
			s.selems += lshfamily.SigElems(s.p.Hashers[h], 0, n, r)
		}
	}
	for t, table := range s.hf.Tables {
		key := xhash.CombineInit ^ xhash.SplitMix64(uint64(t)+0x51ed2701)
		for _, part := range table.Parts {
			var vals []uint64
			if s.cache != nil {
				vals = s.cache.Ensure(s.p, part.Hasher, int(rec), s.hf.FuncsPerHasher[part.Hasher])
			} else {
				vals = s.buf[part.Hasher]
			}
			for _, v := range vals[part.Start : part.Start+part.Count] {
				key = xhash.Combine(key, v)
			}
		}
		out[t] = key
	}
}

// flushEvals adds the scratch's streamed eval counts into dst (shared
// across workers, hence the atomics). No-op when either side does not
// count.
func (s *keyScratch) flushEvals(dst []int64) {
	if s.evals == nil || dst == nil {
		return
	}
	for h, n := range s.evals {
		if n != 0 {
			atomic.AddInt64(&dst[h], n)
		}
	}
}

// flushSigElems adds the scratch's streamed element-hash count into dst
// (shared across workers, hence the atomic). No-op when either side
// does not count.
func (s *keyScratch) flushSigElems(dst *int64) {
	if dst == nil || s.selems == 0 {
		return
	}
	atomic.AddInt64(dst, s.selems)
	s.selems = 0
}

// CollectClusters converts a forest over indices into recs back to
// dataset record IDs, one ascending cluster per tree, deterministically
// ordered (largest first, ties on first record) — the canonical order
// every engine emits, whatever order its merges ran in. All clusters
// of one invocation share a single flat backing array — one allocation
// instead of one per cluster — sliced with full expressions so they
// stay disjoint.
func CollectClusters(forest *ppt.Forest, recs []int32) [][]int32 {
	roots := forest.Roots()
	out := make([][]int32, 0, len(roots))
	flat := make([]int32, len(recs))
	used := 0
	var leaves []int32
	for _, r := range roots {
		leaves = forest.Leaves(leaves[:0], r)
		cluster := flat[used : used+len(leaves) : used+len(leaves)]
		used += len(leaves)
		for i, l := range leaves {
			cluster[i] = recs[l]
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
