package core

import (
	"time"

	"github.com/topk-er/adalsh/internal/record"
)

// BucketRep is one non-empty LSH bucket exported by ApplyHashExport:
// the table it lives in, its bucket key, and a representative member.
// Rep is an index into the recs argument (not a dataset record ID) —
// the first record inserted into the bucket. Within one export all of
// a bucket's members are already connected through the local forest,
// so any member works as the bucket's ambassador in a cross-shard
// reconcile; the first is chosen because it is deterministic under the
// ascending record order every table is filled in.
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
// records in recs with ApplyHashOpt's insertion loop (insertRound) —
// same bucket tables, same collision and merge counting — but shapes
// its output for a sharded engine (internal/shard):
//
//   - the returned partition holds indices into recs rather than
//     dataset record IDs, ordered canonically (largest cluster first,
//     ties on first index — identical to CollectClusters' ordering,
//     since recs is ascending in every engine call site);
//   - one BucketRep per non-empty bucket is appended to reps (reuse a
//     caller-owned buffer to keep rounds allocation-steady), table by
//     table and, within a table, in order of the buckets' first
//     members;
//   - the bucket tables are kept, not recycled: the returned handle
//     answers which record of recs a bucket key last held, so a
//     coordinator can probe one shard's buckets with another shard's
//     representatives. Release the handle into pool once done.
//
// The export runs on the calling goroutine: the sharded engine gets its
// parallelism from running P exports concurrently (one per shard, each
// with its own dataset view, cache and pool), not from fanning out
// inside one shard. A nil pool builds a transient one for this call.
func ApplyHashExport(ds *record.Dataset, p *Plan, hf *HashFunc, cache *Cache, recs []int32, reps []BucketRep, pool *HashPool, st *HashStats) ([][]int32, []BucketRep, BucketTables) {
	start := time.Now()
	exp := bucketExport{reps: reps}
	forest := insertRound(ds, p, hf, cache, recs, HashOptions{Pool: pool}, &exp, st)
	out := CollectClusters(forest, nil)
	if st != nil {
		st.Work += time.Since(start)
	}
	return out, exp.reps, BucketTables{tables: exp.tables}
}
