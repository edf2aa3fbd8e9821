package core

import (
	"reflect"
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
// A prefix that outgrows its region moves and leaves the region dead
// (DeadBytes) until Compact slides the live prefixes over it.
//
// Concurrency contract: Ensure may be called concurrently for DISTINCT
// records (the parallel key-precompute workers partition records, and
// the shared eval counters are atomic); concurrent Ensure calls on the
// same record race on its prefix slot. Consequently a Cache must not
// be shared by concurrently running filter invocations; Grow and
// Compact are not safe to call concurrently with anything.
type Cache struct {
	ds *record.Dataset
	// descs describes the hashers whose values the cache holds, as
	// CacheFor and RestoreStream record them (nil for NewCache's).
	descs []lshfamily.Desc
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

// CacheFor is the one rule by which a long-lived cache survives across
// runs, used by Stream and by the sharded engine's shard caches: it
// returns c, grown to ds's records, when c holds the values of hashers
// with plan's descriptors, and otherwise a new cache for plan's hashers
// over ds. Base hash values depend only on the hasher descriptors, so
// a re-designed plan whose descriptors are unchanged keeps every cached
// prefix. A nil c always gets a new cache.
func CacheFor(c *Cache, ds *record.Dataset, plan *Plan) *Cache {
	if c != nil && reflect.DeepEqual(c.descs, plan.HasherDescs) {
		c.Grow(ds.Len())
		return c
	}
	c = NewCache(ds, len(plan.Hashers))
	c.descs = plan.HasherDescs
	return c
}

// Ensure returns the first n base hash values of hasher h (from plan
// hashers) on record rec, computing and memoizing any missing suffix.
// The returned slice aliases the cache's storage and stays valid until
// the run that returned it ends: FilterRounds compacts its caches after
// the last round, moving the prefixes (see Compact). Callers must not
// append to or resize it.
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
		page, off := a.alloc(newCap, int(ref.cap))
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

// addHits counts n lookups served from the memoized prefixes without an
// Ensure call: the key fold looks each (record, hasher) prefix up once
// per round and adds here the hits its other table parts would have
// counted, keeping cache_hits per table part.
func (c *Cache) addHits(n int64) {
	atomic.AddInt64(&c.hits, n)
}

// HashEvals reports the number of base hash evaluations per hasher.
func (c *Cache) HashEvals() []int64 {
	out := make([]int64, len(c.evals))
	for h := range c.evals {
		out[h] = atomic.LoadInt64(&c.evals[h])
	}
	return out
}

// sumHashEvals adds the caches' per-hasher evaluation counts into sum.
func sumHashEvals(sum []int64, caches []*Cache) {
	for _, c := range caches {
		for h := range c.evals {
			sum[h] += atomic.LoadInt64(&c.evals[h])
		}
	}
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
// not an exact heap accounting. A nil cache holds nothing.
func (c *Cache) MemBytes() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for h := range c.arenas {
		for _, p := range *c.arenas[h].pages.Load() {
			total += int64(len(p)) * 8
		}
		total += int64(len(c.refs[h])) * 16
	}
	return total
}

// DeadBytes reports the bytes of arena regions relocated since the
// last compaction: prefixes that outgrew their regions left them
// behind, and Compact releases them. They are part of MemBytes. A nil
// cache holds nothing.
func (c *Cache) DeadBytes() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for _, a := range c.arenas {
		total += a.deadWords() * 8
	}
	return total
}

// Compact compacts, in place, every arena whose relocated words have
// reached half its live words: the live prefixes slide down over the
// dead regions and the pages past them are released. Prefix values,
// counters and State are unchanged; views returned by Ensure before
// are invalid afterwards. FilterRounds calls it after a run's last
// round. Compact is not safe to call concurrently with anything.
func (c *Cache) Compact() {
	for h, a := range c.arenas {
		if a.due() {
			a.compact(c.refs[h])
		}
	}
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
