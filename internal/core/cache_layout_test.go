package core

import (
	"sync"
	"testing"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// cacheLayoutDataset builds a small clustered set dataset and its
// designed plan for the cache-layout tests (package-internal: the
// arena layout's innards are under test).
func cacheLayoutDataset(t testing.TB) (*record.Dataset, *Plan) {
	t.Helper()
	ds := &record.Dataset{Name: "cache-layout"}
	rng := xhash.NewRNG(17)
	for ent, size := range []int{40, 25, 15, 8, 4, 2} {
		base := make([]uint64, 50)
		for i := range base {
			base[i] = rng.Uint64()
		}
		for r := 0; r < size; r++ {
			elems := make([]uint64, 0, len(base))
			for _, e := range base {
				if rng.Float64() < 0.9 {
					elems = append(elems, e)
				}
			}
			ds.Add(ent, record.NewSet(elems))
		}
	}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	rule := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	plan, err := DesignPlan(ds, rule, SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds, plan
}

// cacheModel is the from-scratch reference for Cache.Ensure: values
// straight from lshfamily.HashRange over the whole requested prefix,
// evals counted as the growth of each (hasher, record) prefix, and a
// hit whenever the request fits inside the prefix already cached.
type cacheModel struct {
	ds           *record.Dataset
	prefix       [][]int
	evals        []int64
	hits, misses int64
}

func newCacheModel(ds *record.Dataset, numHashers int) *cacheModel {
	m := &cacheModel{ds: ds, prefix: make([][]int, numHashers), evals: make([]int64, numHashers)}
	for h := range m.prefix {
		m.prefix[h] = make([]int, ds.Len())
	}
	return m
}

func (m *cacheModel) ensure(p *Plan, h, rec, n int) []uint64 {
	if have := m.prefix[h][rec]; n <= have {
		m.hits++
	} else {
		m.misses++
		m.evals[h] += int64(n - have)
		m.prefix[h][rec] = n
	}
	out := make([]uint64, n)
	lshfamily.HashRange(p.Hashers[h], 0, n, &m.ds.Records[rec], out)
	return out
}

// ensureBoth runs one Ensure on the cache and the model and compares
// the values and the resulting prefix length.
func ensureBoth(t *testing.T, c *Cache, m *cacheModel, p *Plan, h, rec, n int) {
	t.Helper()
	got, want := c.Ensure(p, h, rec, n), m.ensure(p, h, rec, n)
	if len(got) != n {
		t.Fatalf("Ensure(h=%d, rec=%d, n=%d) returned %d values", h, rec, n, len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ensure(h=%d, rec=%d, n=%d)[%d]: cache %#x != model %#x", h, rec, n, i, got[i], want[i])
		}
	}
	if cp, mp := c.Prefix(h, rec), m.prefix[h][rec]; cp != mp {
		t.Fatalf("Prefix(h=%d, rec=%d): cache %d != model %d", h, rec, cp, mp)
	}
}

// checkCounters compares the cache's cumulative eval and lookup
// counters with the model's.
func checkCounters(t *testing.T, c *Cache, m *cacheModel) {
	t.Helper()
	for h, e := range c.HashEvals() {
		if e != m.evals[h] {
			t.Fatalf("HashEvals[%d]: cache %d != model %d", h, e, m.evals[h])
		}
	}
	if hits, misses := c.Lookups(); hits != m.hits || misses != m.misses {
		t.Fatalf("Lookups: cache (%d, %d) != model (%d, %d)", hits, misses, m.hits, m.misses)
	}
}

// TestCacheLayoutsEquivalent drives the arena cache and the
// from-scratch model through the same Ensure sequence — the growing
// per-level prefixes of the designed plan, with repeated shorter
// lookups mixed in — and requires identical values, prefixes, eval
// counts and hit/miss accounting.
func TestCacheLayoutsEquivalent(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	c := NewCache(ds, len(plan.Hashers))
	m := newCacheModel(ds, len(plan.Hashers))
	for _, hf := range plan.Funcs {
		for rec := 0; rec < ds.Len(); rec++ {
			for h, n := range hf.FuncsPerHasher {
				if n == 0 {
					continue
				}
				// A shorter re-lookup first: a hit once any prefix
				// exists.
				for _, want := range []int{(n + 1) / 2, n} {
					ensureBoth(t, c, m, plan, h, rec, want)
				}
			}
		}
	}
	checkCounters(t, c, m)
}

// TestCacheArenaConcurrentEnsure exercises the cache concurrency
// contract — concurrent Ensure on DISTINCT records while the arena
// allocates pages underneath — and then verifies every value and
// counter against the model run serially through the same sequence.
// Run under -race this also pins the copy-on-append page-table
// publication.
func TestCacheArenaConcurrentEnsure(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	c := NewCache(ds, len(plan.Hashers))
	m := newCacheModel(ds, len(plan.Hashers))
	// Grow each record's prefixes level by level, like the re-hash
	// rounds do.
	grow := func(rec int, ensure func(p *Plan, h, rec, n int) []uint64) {
		for _, hf := range plan.Funcs {
			for h, n := range hf.FuncsPerHasher {
				if n > 0 {
					ensure(plan, h, rec, n)
				}
			}
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rec := w; rec < ds.Len(); rec += workers {
				grow(rec, c.Ensure)
			}
		}(w)
	}
	wg.Wait()
	for rec := 0; rec < ds.Len(); rec++ {
		grow(rec, m.ensure)
	}
	checkCounters(t, c, m)
	last := plan.Funcs[len(plan.Funcs)-1]
	for rec := 0; rec < ds.Len(); rec++ {
		for h, n := range last.FuncsPerHasher {
			if n > 0 {
				ensureBoth(t, c, m, plan, h, rec, n)
			}
		}
	}
	checkCounters(t, c, m)
}

// TestCacheGrowPreservesPrefixes pins the Stream contract: growing the
// cache keeps existing prefixes and serves new records from zero, with
// values and accounting equal to the model's.
func TestCacheGrowPreservesPrefixes(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	half := ds.Len() / 2
	// A dataset view with fewer records, as a stream would have had.
	sub := &record.Dataset{Name: "sub", Records: ds.Records[:half]}
	c := NewCache(sub, len(plan.Hashers))
	m := newCacheModel(ds, len(plan.Hashers))
	n := plan.Funcs[0].FuncsPerHasher[0]
	for rec := 0; rec < half; rec++ {
		ensureBoth(t, c, m, plan, 0, rec, n)
	}
	c.ds = ds // the stream's dataset grew in place
	c.Grow(ds.Len())
	for rec := 0; rec < ds.Len(); rec++ {
		want := 0
		if rec < half {
			want = n
		}
		if got := c.Prefix(0, rec); got != want {
			t.Fatalf("after Grow, record %d has prefix %d, want %d", rec, got, want)
		}
		ensureBoth(t, c, m, plan, 0, rec, n)
	}
	checkCounters(t, c, m)
}
