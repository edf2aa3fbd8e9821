package core

import (
	"testing"

	"github.com/topk-er/adalsh/internal/xhash"
)

// oaRef is the reference model of one oaTable epoch: a plain Go map
// with the same key→last-inserted-value semantics.
type oaRef struct {
	m map[uint64]int32
}

func newOARef() *oaRef { return &oaRef{m: make(map[uint64]int32)} }

func (r *oaRef) swap(key uint64, val int32) (int32, bool) {
	prev, ok := r.m[key]
	r.m[key] = val
	return prev, ok
}

// checkOAAgainstRef verifies every reference entry is found in the
// table and that the live-slot count matches.
func checkOAAgainstRef(t *testing.T, tab *oaTable, ref *oaRef) {
	t.Helper()
	if tab.used != len(ref.m) {
		t.Fatalf("live slots = %d, reference holds %d keys", tab.used, len(ref.m))
	}
	for key, want := range ref.m {
		got, ok := tab.lookup(key)
		if !ok || got != want {
			t.Fatalf("lookup(%#x) = %d, %v, want %d, true", key, got, ok, want)
		}
	}
}

// FuzzOATable drives an oaTable and a map reference through the same
// insert/lookup/epoch-clear/recycle sequence decoded from the fuzz
// input and fails on any divergence. The two high bits of each byte
// pick the operation, the rest the key; the deliberately small key
// spaces force bucket overwrites and probe chains, and runs of inserts
// push the table past its load factor so grow() is exercised too.
func FuzzOATable(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x01, 0x41, 0x81, 0xc1, 0x01, 0x02})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 7)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab := &oaTable{}
		tab.reset(0)
		ref := newOARef()
		var val int32
		for _, b := range data {
			op, arg := b>>6, uint64(b&0x3f)
			switch op {
			case 0: // insert, tiny key space (overwrites, collisions)
				key := xhash.SplitMix64(arg % 8)
				prev, occ := tab.swap(key, val)
				rprev, rocc := ref.swap(key, val)
				if occ != rocc || (occ && prev != rprev) {
					t.Fatalf("swap(%#x, %d) = %d, %v, want %d, %v", key, val, prev, occ, rprev, rocc)
				}
				val++
			case 1: // insert, wider key space (load-factor growth)
				key := xhash.SplitMix64(arg)
				prev, occ := tab.swap(key, val)
				rprev, rocc := ref.swap(key, val)
				if occ != rocc || (occ && prev != rprev) {
					t.Fatalf("swap(%#x, %d) = %d, %v, want %d, %v", key, val, prev, occ, rprev, rocc)
				}
				val++
			case 2: // lookup (hit or miss)
				key := xhash.SplitMix64(arg % 16)
				got, ok := tab.lookup(key)
				want, wok := ref.m[key]
				if ok != wok || (ok && got != want) {
					t.Fatalf("lookup(%#x) = %d, %v, want %d, %v", key, got, ok, want, wok)
				}
			case 3: // epoch clear + recycle with a fresh size hint
				checkOAAgainstRef(t, tab, ref)
				tab.reset(int(arg))
				ref = newOARef()
			}
			if tab.used != len(ref.m) {
				t.Fatalf("live slots = %d, reference holds %d keys", tab.used, len(ref.m))
			}
		}
		checkOAAgainstRef(t, tab, ref)
	})
}

// TestOATableRandomDifferential is the deterministic long-sequence
// variant of the fuzz target: several epochs of random inserts and
// lookups over one recycled table, checked against the map reference
// after every operation batch.
func TestOATableRandomDifferential(t *testing.T) {
	rng := xhash.NewRNG(1234)
	tab := &oaTable{}
	for epoch := 0; epoch < 8; epoch++ {
		tab.reset(int(rng.Uint64() % 100))
		ref := newOARef()
		n := 200 + int(rng.Uint64()%2000)
		for i := 0; i < n; i++ {
			key := xhash.SplitMix64(rng.Uint64() % 512)
			if rng.Uint64()%4 == 0 {
				got, ok := tab.lookup(key)
				want, wok := ref.m[key]
				if ok != wok || (ok && got != want) {
					t.Fatalf("epoch %d: lookup(%#x) = %d, %v, want %d, %v", epoch, key, got, ok, want, wok)
				}
				continue
			}
			val := int32(i)
			prev, occ := tab.swap(key, val)
			rprev, rocc := ref.swap(key, val)
			if occ != rocc || (occ && prev != rprev) {
				t.Fatalf("epoch %d: swap(%#x) = %d, %v, want %d, %v", epoch, key, prev, occ, rprev, rocc)
			}
		}
		checkOAAgainstRef(t, tab, ref)
	}
}

// TestOATableEpochWrap pins the uint32 epoch wrap: when the epoch
// counter overflows, the table must pay one full stamp zeroing so
// stale slots from the overflowed range cannot alias the new epoch.
func TestOATableEpochWrap(t *testing.T) {
	tab := &oaTable{}
	tab.reset(4)
	tab.epoch = ^uint32(0) // as if 4B epochs had passed
	for i := range tab.stamp {
		tab.stamp[i] = tab.epoch // every slot looks live in the old epoch
	}
	tab.used = len(tab.stamp)
	tab.reset(4)
	if tab.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", tab.epoch)
	}
	if tab.used != 0 {
		t.Fatalf("used after wrap = %d, want 0", tab.used)
	}
	if _, ok := tab.lookup(xhash.SplitMix64(3)); ok {
		t.Fatal("stale slot visible after epoch wrap")
	}
	if prev, occ := tab.swap(xhash.SplitMix64(3), 7); occ {
		t.Fatalf("swap on wrapped table found stale occupant %d", prev)
	}
	if got, ok := tab.lookup(xhash.SplitMix64(3)); !ok || got != 7 {
		t.Fatalf("lookup after wrap = %d, %v, want 7, true", got, ok)
	}
}

// TestHashPoolRecyclesTables verifies the pool's contract: a returned
// table comes back on the next acquisition with cleared contents, at
// its retained size when the hint is 0 or needs at least a quarter of
// its slots, and replaced by a table sized for the hint when the hint
// needs fewer; edge slots come back empty with their grown capacity
// kept.
func TestHashPoolRecyclesTables(t *testing.T) {
	pool := NewHashPool()
	big := oaSizeFor(1000)
	// get takes three tables for hint, requires them empty and of size
	// slots, fills one slot each and returns them to the pool.
	get := func(hint, slots int) {
		t.Helper()
		tabs := []*oaTable{pool.getTable(hint), pool.getTable(hint), pool.getTable(hint)}
		for i, tab := range tabs {
			if len(tab.keys) != slots {
				t.Fatalf("hint %d: table %d size = %d, want %d", hint, i, len(tab.keys), slots)
			}
			if tab.used != 0 {
				t.Fatalf("hint %d: table %d has %d live slots, want 0", hint, i, tab.used)
			}
			if _, ok := tab.lookup(xhash.SplitMix64(uint64(i))); ok {
				t.Fatalf("hint %d: table %d still resolves an old key", hint, i)
			}
			tab.swap(xhash.SplitMix64(uint64(i)), int32(i))
		}
		pool.putTables(tabs...)
	}
	get(1000, big)
	// Hint 0 reuses a recycled table at any size.
	get(0, big)
	// A hint that needs a quarter of the slots or more keeps the table:
	// 129 keys need 512 slots, a quarter of 2048.
	if oaSizeFor(129)*4 != big {
		t.Fatalf("oaSizeFor(129) = %d, want a quarter of %d", oaSizeFor(129), big)
	}
	get(129, big)
	// One that needs fewer replaces it with a table sized for the hint.
	get(128, oaSizeFor(128))
	get(0, oaSizeFor(128))

	edges := pool.edgeSlots(2)
	edges[0] = append(edges[0], mergeEdge{1, 2}, mergeEdge{3, 4})
	pool.putEdgeSlots(edges)
	edges = pool.edgeSlots(2)
	if len(edges[0]) != 0 || cap(edges[0]) < 2 {
		t.Fatalf("recycled edge slot: len %d cap %d, want empty with retained capacity", len(edges[0]), cap(edges[0]))
	}
}
