package core

import (
	"sort"
	"time"

	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
)

// BucketRep is one non-empty LSH bucket exported by ApplyHashExport:
// the table it lives in, its bucket key, and a representative member.
// Rep is an index into the recs argument (not a dataset record ID) —
// the first record inserted into the bucket. Within one export all of
// a bucket's members are already connected through the local forest,
// so any member works as the bucket's ambassador in a cross-shard
// reconcile; the first is chosen because it is deterministic under the
// fixed record-order insertion the serial hash path performs.
type BucketRep struct {
	// Key is the bucket key (xhash combination of the table's part
	// values — identical across shards for identical signatures).
	Key uint64
	// Table is the hash-table index within the hashing function.
	Table int32
	// Rep is the bucket's first inserted record, as an index into recs.
	Rep int32
}

// ApplyHashExport applies transitive hashing function hf to the
// records in recs exactly like the serial path of ApplyHashOpt — same
// record-major insertion order, same pooled open-addressing bucket
// tables, same collision and merge counting — but shapes its output
// for a sharded engine (internal/shard):
//
//   - the returned partition holds indices into recs rather than
//     dataset record IDs, ordered canonically (largest cluster first,
//     ties on first index — identical to CollectClusters' ordering,
//     since recs is ascending in every engine call site);
//   - one BucketRep per non-empty bucket is appended to reps (reuse a
//     caller-owned buffer to keep rounds allocation-steady), in bucket
//     creation order;
//   - the bucket tables are kept, not recycled: the returned handle
//     answers which record of recs a bucket key last held, so a
//     coordinator can probe one shard's buckets with another shard's
//     representatives. Release the handle into pool once done.
//
// The function is deliberately serial: the sharded engine gets its
// parallelism from running P exports concurrently (one per shard, each
// with its own dataset view, cache and pool), not from fanning out
// inside one shard. A nil pool builds a transient one for this call.
func ApplyHashExport(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache, recs []int32, reps []BucketRep, pool *HashPool, st *HashStats) ([][]int32, []BucketRep, BucketTables) {
	start := time.Now()
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
	var collisions, merges int64

	scratch := pool.getScratch(ds, p, hf, cache)
	rowKeys := pool.keyMatrix(numTables)
	tables := pool.getTables(numTables, len(recs))
	for li, rec := range recs {
		scratch.keysFor(rec, rowKeys)
		for t, key := range rowKeys {
			li32 := int32(li)
			last, occupied := tables[t].swap(key, li32)
			if !forest.InTree(li) {
				forest.MakeTree(li)
			}
			if occupied {
				collisions++
				ra, rb := forest.Root(int(last)), forest.Root(li)
				if ra != rb {
					forest.Merge(ra, rb)
					merges++
				}
			} else {
				reps = append(reps, BucketRep{Key: key, Table: int32(t), Rep: li32})
			}
		}
	}
	scratch.flushEvals(evals)
	scratch.flushSigElems(selems)
	pool.putScratch(scratch)

	out := collectClusterIdx(forest, len(recs))
	if st != nil {
		st.Work += time.Since(start)
		st.Collisions += collisions
		st.Merges += merges
	}
	return out, reps, BucketTables{shards: 1, numTables: numTables, tables: tables}
}

// collectClusterIdx is CollectClusters emitting local indices instead
// of dataset record IDs: one ascending slice of indices into the recs
// argument per tree, largest cluster first, ties on first index. When
// recs is ascending (every engine call site), mapping the indices
// through recs yields exactly CollectClusters' output.
func collectClusterIdx(forest *ppt.Forest, n int) [][]int32 {
	roots := forest.Roots()
	out := make([][]int32, 0, len(roots))
	flat := make([]int32, n)
	used := 0
	var leaves []int32
	for _, r := range roots {
		leaves = forest.Leaves(leaves[:0], r)
		cluster := flat[used : used+len(leaves) : used+len(leaves)]
		used += len(leaves)
		copy(cluster, leaves)
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
