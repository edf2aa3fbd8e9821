package core

import (
	"unsafe"

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

// oaLoadNum/oaLoadDen is the table's one maximum load: a table of size
// slots holds at most size*oaLoadNum/oaLoadDen keys. swap grows a table
// past it and oaSizeFor sizes one within it, so a table sized for n
// keys holds them without growing. At a load of 1/2 a miss — a new key
// on insert, an absent key in a probe — scans 2.5 slots on average,
// against 8.5 at 3/4 and 29 at 7/8 (measured in DESIGN.md, Memory
// layout).
const oaLoadNum, oaLoadDen = 1, 2

// oaFits reports whether n keys keep a table of size slots within the
// maximum load.
func oaFits(n, size int) bool { return n*oaLoadDen <= size*oaLoadNum }

// oaSizeFor returns the smallest power-of-two table size, at least 16,
// that holds n keys within the maximum load.
func oaSizeFor(n int) int {
	size := 16
	for !oaFits(n, size) {
		size <<= 1
	}
	return size
}

// reset prepares the table for a fresh epoch sized for about n keys.
// An oversized recycled table is kept as is (probes stay short and the
// epoch bump makes clearing free); an undersized one is reallocated
// once here instead of growing step by step mid-insert.
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
			if !oaFits(t.used, len(t.keys)) {
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

// memBytes is the size of the table's key, value and stamp arrays.
func (t *oaTable) memBytes() int64 {
	return int64(len(t.keys)) * (8 + 4 + 4)
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
// bucket tables, the table workers' merge-edge lists and the key
// scratches with their streaming signature buffers — across tables,
// rounds and ApplyHashOpt invocations. A round that keeps no tables
// returns each one before its worker takes the next, so it needs only
// as many tables as it has table workers. FilterIncremental keeps
// one pool per run and Stream one per stream; an invocation with a nil
// HashOptions.Pool builds a transient pool (reuse across its own tables
// only). The bucket-key matrix is not pooled: every invocation
// allocates its own.
//
// Concurrency contract: a pool must not be shared by concurrently
// running invocations. Within one invocation all acquisitions happen
// on the dispatching goroutine before workers start, so no locking is
// needed.
type HashPool struct {
	tables []*oaTable
	edges  [][]mergeEdge
	scr    []*keyScratch
}

// NewHashPool creates an empty pool.
func NewHashPool() *HashPool {
	return &HashPool{}
}

// MemBytes reports the pool's retained memory: its free tables' key,
// value and stamp arrays and its merge-edge lists. The tables a capture
// or an export holds count with their holder, and the key scratches'
// per-hasher buffers are left out.
func (p *HashPool) MemBytes() int64 {
	var total int64
	for _, t := range p.tables {
		total += t.memBytes()
	}
	for _, e := range p.edges {
		total += int64(cap(e)) * int64(unsafe.Sizeof(mergeEdge{}))
	}
	return total
}

// getTable hands out an epoch-cleared table that holds hint keys
// within the maximum load (see reset). A hint of 0 takes the next free
// table at whatever size it has. A positive hint replaces a free table
// with more than 4x the slots the hint needs, so a round over a small
// cluster does not fill tables sized for a whole dataset and the pool
// keeps tables of the sizes its recent rounds used.
func (p *HashPool) getTable(hint int) *oaTable {
	var t *oaTable
	if l := len(p.tables); l > 0 {
		t = p.tables[l-1]
		p.tables = p.tables[:l-1]
	}
	if t == nil || hint > 0 && len(t.keys) > 4*oaSizeFor(hint) {
		t = &oaTable{}
	}
	t.reset(hint)
	return t
}

// putTables returns tables to the free list.
func (p *HashPool) putTables(ts ...*oaTable) {
	p.tables = append(p.tables, ts...)
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

// putScratch releases a scratch's references to its invocation and
// returns it to the free list.
func (p *HashPool) putScratch(s *keyScratch) {
	s.release()
	p.scr = append(p.scr, s)
}
