package core

import (
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// oaTable is a power-of-two, linear-probing open-addressing hash table
// from uint64 bucket keys to the int32 record last inserted under that
// key — the hash stage's bucket table. Slots are (key, value, stamp)
// triples in three parallel pointer-free arrays; a slot is live only
// when its stamp equals the table's current epoch, so clear is an O(1)
// epoch bump and a recycled table costs no re-zeroing.
//
// The key→last-record semantics are exactly a Go map's (swap returns
// the previous occupant, last insert wins): the differential fuzz test
// in oatable_test.go pins the table against a map model operation by
// operation, and the map-based transitive-hash oracle in
// internal/experiments pins whole hashing calls.
type oaTable struct {
	keys  []uint64
	vals  []int32
	stamp []uint32
	epoch uint32
	used  int // live slots this epoch
}

// oaSizeFor returns the smallest power-of-two table size that keeps n
// occupants under the 7/8 load-factor bound.
func oaSizeFor(n int) int {
	size := 16
	for size*7 < n*8 {
		size <<= 1
	}
	return size
}

// reset prepares the table for a fresh epoch sized for about n
// occupants. An oversized recycled table is kept as is (probes stay
// short and the epoch bump makes clearing free); an undersized one is
// reallocated once here instead of growing step by step mid-insert.
func (t *oaTable) reset(n int) {
	if want := oaSizeFor(n); len(t.keys) < want {
		t.keys = make([]uint64, want)
		t.vals = make([]int32, want)
		t.stamp = make([]uint32, want)
		t.epoch = 0
	}
	t.epoch++
	if t.epoch == 0 {
		// The 32-bit epoch wrapped (once every 4B clears): stale stamps
		// from the overflowed range could alias the new epoch, so pay
		// one full zeroing and restart at 1.
		for i := range t.stamp {
			t.stamp[i] = 0
		}
		t.epoch = 1
	}
	t.used = 0
}

// swap inserts key→val and returns the previous occupant, mirroring
// the map idiom `prev, ok := m[key]; m[key] = val` in one probe.
func (t *oaTable) swap(key uint64, val int32) (prev int32, occupied bool) {
	mask := uint64(len(t.keys) - 1)
	i := xhash.SplitMix64(key) & mask
	for {
		if t.stamp[i] != t.epoch {
			t.keys[i], t.vals[i], t.stamp[i] = key, val, t.epoch
			t.used++
			if t.used*8 >= len(t.keys)*7 {
				t.grow()
			}
			return 0, false
		}
		if t.keys[i] == key {
			prev = t.vals[i]
			t.vals[i] = val
			return prev, true
		}
		i = (i + 1) & mask
	}
}

// lookup returns the current occupant of key, if any.
func (t *oaTable) lookup(key uint64) (int32, bool) {
	mask := uint64(len(t.keys) - 1)
	i := xhash.SplitMix64(key) & mask
	for {
		if t.stamp[i] != t.epoch {
			return 0, false
		}
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & mask
	}
}

// grow doubles the table and re-inserts the live slots.
func (t *oaTable) grow() {
	oldKeys, oldVals, oldStamp, oldEpoch := t.keys, t.vals, t.stamp, t.epoch
	size := 2 * len(oldKeys)
	t.keys = make([]uint64, size)
	t.vals = make([]int32, size)
	t.stamp = make([]uint32, size)
	t.epoch = 1
	mask := uint64(size - 1)
	for j, st := range oldStamp {
		if st != oldEpoch {
			continue
		}
		i := xhash.SplitMix64(oldKeys[j]) & mask
		for t.stamp[i] == t.epoch {
			i = (i + 1) & mask
		}
		t.keys[i], t.vals[i], t.stamp[i] = oldKeys[j], oldVals[j], t.epoch
	}
}

// HashPool recycles the hash stage's scratch memory — open-addressing
// bucket tables, the parallel key matrix, per-shard merge-edge lists
// and the streaming signature buffers — across tables, rounds and
// ApplyHashOpt invocations. FilterIncremental keeps one pool per run
// and Stream one per stream; an invocation with a nil HashOptions.Pool
// builds a transient pool (reuse across its own tables and shards
// only).
//
// Concurrency contract: a pool must not be shared by concurrently
// running invocations. Within one invocation all acquisitions happen
// on the dispatching goroutine before workers start, so no locking is
// needed.
type HashPool struct {
	tables []*oaTable
	keys   []uint64
	edges  [][]mergeEdge
	scr    []*keyScratch
}

// NewHashPool creates an empty pool.
func NewHashPool() *HashPool {
	return &HashPool{}
}

// getTables hands out n epoch-cleared tables, each sized for about
// hint occupants.
func (p *HashPool) getTables(n, hint int) []*oaTable {
	out := make([]*oaTable, n)
	for i := range out {
		if l := len(p.tables); l > 0 {
			out[i] = p.tables[l-1]
			p.tables = p.tables[:l-1]
		} else {
			out[i] = &oaTable{}
		}
		out[i].reset(hint)
	}
	return out
}

// putTables returns tables to the free list.
func (p *HashPool) putTables(ts []*oaTable) {
	p.tables = append(p.tables, ts...)
}

// keyMatrix hands out an n-word uint64 buffer (contents undefined).
func (p *HashPool) keyMatrix(n int) []uint64 {
	if cap(p.keys) < n {
		p.keys = make([]uint64, n)
	}
	return p.keys[:n]
}

// edgeSlots hands out n empty merge-edge lists whose grown capacity is
// retained across invocations.
func (p *HashPool) edgeSlots(n int) [][]mergeEdge {
	for len(p.edges) < n {
		p.edges = append(p.edges, nil)
	}
	out := p.edges[:n]
	for i := range out {
		out[i] = out[i][:0]
	}
	return out
}

// putEdgeSlots stores the (possibly regrown) edge lists back.
func (p *HashPool) putEdgeSlots(edges [][]mergeEdge) {
	copy(p.edges, edges)
}

// getScratch hands out a key scratch bound to this invocation's
// dataset/plan/function/cache, reusing the streaming buffers of a
// previous one.
func (p *HashPool) getScratch(ds *record.Dataset, pl *Plan, hf *HashFunc, cache *Cache) *keyScratch {
	var s *keyScratch
	if l := len(p.scr); l > 0 {
		s = p.scr[l-1]
		p.scr = p.scr[:l-1]
	} else {
		s = &keyScratch{}
	}
	s.rebind(ds, pl, hf, cache)
	return s
}

// putScratch returns a scratch to the free list.
func (p *HashPool) putScratch(s *keyScratch) {
	p.scr = append(p.scr, s)
}
