package core

import (
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// TestCacheCompact fills a cache through every level of its plan, so
// that most of its arena words are prefixes relocated as they grew,
// and requires Compact to release them: DeadBytes drops to 0, whole
// pages go, MemBytes falls by at least the dead bytes less the unused
// page tails, and State, Prefix and the counters are unchanged. A
// second Compact, with nothing dead, changes nothing.
func TestCacheCompact(t *testing.T) {
	ds, plan := cacheLayoutDataset(t)
	c := NewCache(ds, len(plan.Hashers))
	m := newCacheModel(ds, len(plan.Hashers))
	for _, hf := range plan.Funcs {
		for rec := 0; rec < ds.Len(); rec++ {
			for h, n := range hf.FuncsPerHasher {
				if n > 0 {
					ensureBoth(t, c, m, plan, h, rec, n)
				}
			}
		}
	}
	checkCounters(t, c, m)
	due := false
	pages := 0
	for _, a := range c.arenas {
		due = due || a.due()
		pages += len(*a.pages.Load())
	}
	if !due {
		t.Fatalf("no arena due for compaction after a full fill (%d dead of %d bytes)", c.DeadBytes(), c.MemBytes())
	}
	before, dead, mem := c.State(), c.DeadBytes(), c.MemBytes()
	c.Compact()
	m.compact()
	checkCounters(t, c, m)
	if got := c.DeadBytes(); got != 0 {
		t.Fatalf("DeadBytes after Compact = %d, want 0", got)
	}
	after := 0
	for _, a := range c.arenas {
		after += len(*a.pages.Load())
	}
	if after >= pages {
		t.Fatalf("Compact kept %d of %d pages, want fewer", after, pages)
	}
	if got := c.MemBytes(); got >= mem || mem-got < dead/2 {
		t.Fatalf("MemBytes %d -> %d after compacting %d dead bytes", mem, got, dead)
	}
	if st := c.State(); !reflect.DeepEqual(st, before) {
		t.Fatal("State changed across Compact")
	}
	if st := m.state(plan, ds.Len()); !reflect.DeepEqual(st, before) {
		t.Fatal("State differs from the model's")
	}
	mem = c.MemBytes()
	c.Compact()
	if got := c.MemBytes(); got != mem || !reflect.DeepEqual(c.State(), before) {
		t.Fatalf("a Compact with nothing dead moved MemBytes %d -> %d or the state", mem, got)
	}
}

// FuzzCacheCompact decodes a sequence of cache operations on a small
// dataset — Ensure growths and re-lookups, Grow calls that admit more
// records, compactions by the rule and forced compactions of one arena
// — and after every step requires the cache's values, Prefix,
// HashEvals, Lookups, DeadBytes and State to equal cacheModel's. Each
// operation is four bytes: a kind (its low 3 bits; the rest pick the
// hasher), a record and a 16-bit prefix length or growth.
func FuzzCacheCompact(f *testing.F) {
	ds, plan := cacheLayoutDataset(f)
	maxN := make([]int, len(plan.Hashers))
	for _, hf := range plan.Funcs {
		for h, n := range hf.FuncsPerHasher {
			maxN[h] = max(maxN[h], n)
		}
	}
	// Seeds: growth of a few records with re-lookups, compactions in
	// between; a Grow followed by growth of the new records, one past
	// the first pages' size; a forced compaction of an arena with
	// nothing dead.
	f.Add([]byte{0, 1, 0, 3, 0, 1, 0, 9, 0, 2, 0, 40, 6, 0, 0, 0, 0, 1, 0, 2, 0, 1, 0, 90, 7, 0, 0, 0})
	f.Add([]byte{5, 0, 0, 7, 0, 50, 0, 10, 0, 52, 0, 30, 0, 50, 9, 60, 6, 0, 0, 0, 5, 0, 0, 3, 0, 52, 4, 99})
	f.Add([]byte{7, 0, 0, 0, 0, 3, 0, 5, 7, 0, 0, 0, 0, 3, 0, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			return
		}
		// The cache starts on the first half of the records and admits
		// more as Grow steps run, as a stream's dataset grows in place.
		rows := ds.Len() / 2
		view := &record.Dataset{Name: ds.Name, Records: ds.Records[:rows]}
		c := NewCache(view, len(plan.Hashers))
		m := newCacheModel(ds, len(plan.Hashers))
		for ; len(data) >= 4; data = data[4:] {
			kind, h := data[0]%8, int(data[0]/8)%len(plan.Hashers)
			rec, n := int(data[1]), int(data[2])<<8|int(data[3])
			switch kind {
			case 5:
				rows = min(ds.Len(), rows+n%8+1)
				view.Records = ds.Records[:rows]
				c.Grow(rows)
			case 6:
				c.Compact()
				m.compact()
			case 7:
				c.arenas[h].compact(c.refs[h])
				m.dead[h] = 0
			default:
				ensureBoth(t, c, m, plan, h, rec%rows, 1+n%maxN[h])
			}
			checkCounters(t, c, m)
			for h := range plan.Hashers {
				for rec := range rows {
					if got, want := c.Prefix(h, rec), m.prefix[h][rec]; got != want {
						t.Fatalf("Prefix(%d, %d) = %d, model %d", h, rec, got, want)
					}
				}
			}
			if got, want := c.State(), m.state(plan, rows); !reflect.DeepEqual(got, want) {
				t.Fatalf("State differs from the model's after a kind-%d step", kind)
			}
		}
	})
}

// BenchmarkCacheCompact times one arena compaction at about the size of
// a corpus-250k-sharded shard cache: 125k records with 20-word
// round-one prefixes, of which each later level doubles the prefixes
// of a random half as many records as the level before, relocating
// them (11.4M live words, 3.6M dead). The arena is rebuilt outside the
// timer before every compaction.
func BenchmarkCacheCompact(b *testing.B) {
	build := func() (*sigArena, []sigRef) {
		a := newSigArena()
		refs := make([]sigRef, 125000)
		rng := xhash.NewRNG(7)
		for level, n := 0, 20; level < 6; level, n = level+1, 2*n {
			for rec := range refs {
				if rng.Float64() >= 1/float64(int(1)<<level) {
					continue
				}
				r := &refs[rec]
				if int(r.cap) < n {
					c := max(2*int(r.cap), n)
					r.page, r.off = a.alloc(c, int(r.cap))
					r.cap = int32(c)
				}
				r.n = int32(n)
			}
		}
		return a, refs
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, refs := build()
		b.StartTimer()
		a.compact(refs)
	}
}
