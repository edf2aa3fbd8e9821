package core

import (
	"sync/atomic"

	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
)

// Cache stores the base hash values computed for each record so far,
// per hasher. It realizes the incremental-computation property: when a
// later transitive hashing function processes a record, only the
// function-prefix extension beyond what earlier functions already
// computed is evaluated (Section 2.2, property 4).
//
// Memory grows with actual work: records that Adaptive LSH filters out
// early keep only their short round-one prefixes.
//
// All prefixes of one hasher live in paged []uint64 arenas with a
// compact (page, offset, len, cap) reference per record: no per-record
// slice headers, no per-round reallocations once a region has spare
// capacity, and near-zero GC scan cost (the arenas are pointer-free).
//
// Concurrency contract: Ensure may be called concurrently for DISTINCT
// records (the parallel key-precompute workers partition records, and
// the shared eval counters are atomic); concurrent Ensure calls on the
// same record race on its prefix slot. Consequently a Cache must not
// be shared by concurrently running filter invocations; Grow is not
// safe to call concurrently with anything.
type Cache struct {
	ds *record.Dataset
	// refs[h][rec] locates rec's prefix in arenas[h].
	arenas []*sigArena
	refs   [][]sigRef
	// evals[h] counts base hash evaluations per hasher (for cost
	// accounting and the experiments' work metrics).
	evals []int64
	// hits/misses count Ensure lookups fully served from the memoized
	// prefix vs. lookups that had to extend it (the obs cache
	// counters). Atomic, same as evals: workers Ensure concurrently.
	hits, misses int64
	// elems counts element hashes spent extending prefixes (the
	// sig_elems_hashed obs counter) — the work one-permutation hashing
	// shrinks relative to classic MinHash. Atomic, same as evals. Zero
	// for families that do not hash set elements.
	elems int64
}

// NewCache creates an empty cache for the dataset over n hashers.
func NewCache(ds *record.Dataset, numHashers int) *Cache {
	c := &Cache{
		ds:     ds,
		arenas: make([]*sigArena, numHashers),
		refs:   make([][]sigRef, numHashers),
		evals:  make([]int64, numHashers),
	}
	for h := range c.arenas {
		c.arenas[h] = newSigArena()
		c.refs[h] = make([]sigRef, ds.Len())
	}
	return c
}

// Ensure returns the first n base hash values of hasher h (from plan
// hashers) on record rec, computing and memoizing any missing suffix.
// The returned slice aliases the cache's storage and stays valid for
// the cache's lifetime; callers must not append to or resize it.
func (c *Cache) Ensure(p *Plan, h, rec, n int) []uint64 {
	ref := &c.refs[h][rec]
	a := c.arenas[h]
	if int(ref.n) >= n {
		atomic.AddInt64(&c.hits, 1)
		return a.view(ref.page, ref.off, n)
	}
	atomic.AddInt64(&c.misses, 1)
	// Atomic: the parallel key-precompute path runs Ensure for
	// different records concurrently (distinct refs slots, shared
	// counter).
	atomic.AddInt64(&c.evals[h], int64(n)-int64(ref.n))
	if int(ref.cap) < n {
		// Relocate to a geometrically larger region so the successive
		// prefix extensions of the re-hash rounds stop copying.
		newCap := 2 * int(ref.cap)
		if newCap < n {
			newCap = n
		}
		page, off := a.alloc(newCap)
		buf := a.view(page, off, newCap)
		if ref.n > 0 {
			copy(buf, a.view(ref.page, ref.off, int(ref.n)))
		}
		ref.page, ref.off, ref.cap = page, off, int32(newCap)
	}
	buf := a.view(ref.page, ref.off, n)
	// The missing suffix is evaluated through the batched signature
	// path: one call per (record, hasher) instead of one per function.
	r := &c.ds.Records[rec]
	if e := lshfamily.SigElems(p.Hashers[h], int(ref.n), n, r); e > 0 {
		atomic.AddInt64(&c.elems, e)
	}
	lshfamily.HashRange(p.Hashers[h], int(ref.n), n, r, buf[ref.n:])
	ref.n = int32(n)
	return buf
}

// HashEvals reports the number of base hash evaluations per hasher.
func (c *Cache) HashEvals() []int64 {
	out := make([]int64, len(c.evals))
	for h := range c.evals {
		out[h] = atomic.LoadInt64(&c.evals[h])
	}
	return out
}

// TotalEvals reports the total base hash evaluations across hashers.
func (c *Cache) TotalEvals() int64 {
	var t int64
	for h := range c.evals {
		t += atomic.LoadInt64(&c.evals[h])
	}
	return t
}

// Lookups reports how many Ensure calls were served entirely from the
// memoized prefixes (hits) and how many had to extend one (misses).
func (c *Cache) Lookups() (hits, misses int64) {
	return atomic.LoadInt64(&c.hits), atomic.LoadInt64(&c.misses)
}

// SigElemsHashed reports how many element hashes prefix extensions have
// spent so far (zero for families that do not hash set elements). Not
// persisted by snapshots: restored caches restart the count at zero,
// which the delta-reporting obs wiring is indifferent to.
func (c *Cache) SigElemsHashed() int64 {
	return atomic.LoadInt64(&c.elems)
}

// Prefix reports how many functions of hasher h are cached for rec.
func (c *Cache) Prefix(h, rec int) int {
	return int(c.refs[h][rec].n)
}

// MemBytes reports the cache's approximate resident size: signature
// storage (arena pages) plus the per-record bookkeeping. The figure is
// an estimate for capacity planning and the per-shard BENCH reports,
// not an exact heap accounting.
func (c *Cache) MemBytes() int64 {
	var total int64
	for h := range c.arenas {
		for _, p := range *c.arenas[h].pages.Load() {
			total += int64(len(p)) * 8
		}
		total += int64(len(c.refs[h])) * 16
	}
	return total
}

// Grow extends the cache to cover n records (no-op if already large
// enough). The Stream type calls this as its dataset grows; existing
// cached prefixes are preserved.
func (c *Cache) Grow(n int) {
	for h := range c.refs {
		if d := n - len(c.refs[h]); d > 0 {
			c.refs[h] = append(c.refs[h], make([]sigRef, d)...)
		}
	}
}
