package core

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// idHasher makes base function fn of a record its fn-th vector
// component, so with one single-function table per component two
// records share a bucket of table t exactly when they carry the same
// bucket id at position t.
type idHasher struct{ tables int }

func (idHasher) Hash(fn int, r *record.Record) uint64 {
	return uint64(r.Fields[0].(record.Vector)[fn])
}
func (idHasher) P(x float64) float64 { return 1 - x }
func (h idHasher) MaxFunctions() int { return h.tables }
func (idHasher) Name() string        { return "bucket-id" }
func (h idHasher) bucketKey(t int, id float64) uint64 {
	return xhash.Combine(xhash.CombineInit^xhash.SplitMix64(uint64(t)+0x51ed2701), uint64(id))
}

// roundModel is the Go-map reference of one hashing round over records
// 0..n-1: per table, a map from bucket key to the bucket's members in
// insertion order, and a union-find over the collisions.
type roundModel struct {
	partition  [][]int32
	collisions int64
	merges     int64
	// buckets[t] maps a key to its members, ascending; prev[t][li] is
	// li's bucket predecessor (-1 for a bucket's first member).
	buckets []map[uint64][]int32
	prev    [][]int32
	reps    []BucketRep
}

func newRoundModel(h idHasher, vecs []record.Vector) *roundModel {
	n := len(vecs)
	m := &roundModel{}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}
	for t := 0; t < h.tables; t++ {
		b := make(map[uint64][]int32)
		prev := make([]int32, n)
		for li, v := range vecs {
			key := h.bucketKey(t, v[t])
			members := b[key]
			if len(members) == 0 {
				prev[li] = -1
				m.reps = append(m.reps, BucketRep{Key: key, Table: int32(t), Rep: int32(li)})
			} else {
				last := members[len(members)-1]
				prev[li] = last
				m.collisions++
				if ra, rb := find(int(last)), find(li); ra != rb {
					parent[ra] = rb
					m.merges++
				}
			}
			b[key] = append(members, int32(li))
		}
		m.buckets = append(m.buckets, b)
		m.prev = append(m.prev, prev)
	}
	if h.tables == 0 {
		return m // no record entered a bucket, so no record has a cluster
	}
	byRoot := make(map[int][]int32)
	for li := 0; li < n; li++ {
		byRoot[find(li)] = append(byRoot[find(li)], int32(li))
	}
	for _, c := range byRoot {
		m.partition = append(m.partition, c)
	}
	sort.Slice(m.partition, func(i, j int) bool {
		a, b := m.partition[i], m.partition[j]
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		return a[0] < b[0]
	})
	return m
}

// samePartition compares two partitions, an empty one equal to nil.
func samePartition(a, b [][]int32) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// FuzzHashRound drives the one bucket-insertion loop on small decoded
// inputs and compares every output with a Go-map model. The first byte
// picks 0–8 single-function tables, the second a bucket-id universe of
// 1–32 ids, and the rest fills up to 64 records, one bucket id per
// table. A table that holds more than 8 keys outgrows the minimum size
// mid-round, so tables grow in the first wave and later tables start
// sized for an earlier table's keys. ApplyHashOpt runs on one
// goroutine and on three table workers (MinParallel 1), streaming and
// through a cache, with and without a capture; ApplyHashExport runs
// streaming and cached. Partitions, Collisions, Merges, a capture's
// bucket heads and predecessors, and the exported representatives must
// all equal the model's. Zero tables, fewer tables than workers and
// one record are all in reach.
func FuzzHashRound(f *testing.F) {
	f.Add([]byte{2, 3, 0, 1, 2, 0, 1, 1, 2, 2, 0, 0})
	f.Add([]byte{0, 1, 5, 5, 5})
	f.Add([]byte{5, 2, 1, 1, 1, 1, 1})
	f.Add([]byte{8, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{3, 31, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23,
		24, 25, 26, 27, 28, 29, 30, 31, 0, 3, 6, 9, 12, 15, 18, 21, 24, 27, 30, 1, 4, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		tables, universe := int(data[0])%9, int(data[1])%32+1
		body := data[2:]
		n := min(len(body)/max(tables, 1), 64)
		h := idHasher{tables}
		hf := &HashFunc{Seq: 1, Budget: tables, FuncsPerHasher: []int{tables}}
		for tb := 0; tb < tables; tb++ {
			hf.Tables = append(hf.Tables, Table{Parts: []TablePart{{Hasher: 0, Start: tb, Count: 1}}})
		}
		plan := &Plan{Hashers: []lshfamily.Hasher{h}, Funcs: []*HashFunc{hf}}
		ds := &record.Dataset{Name: "fuzz"}
		vecs := make([]record.Vector, n)
		recs := make([]int32, n)
		for i := range vecs {
			vecs[i] = make(record.Vector, tables)
			for tb := range vecs[i] {
				vecs[i][tb] = float64(int(body[i*tables+tb]) % universe)
			}
			ds.Add(-1, vecs[i])
			recs[i] = int32(i)
		}
		want := newRoundModel(h, vecs)

		for _, cached := range []bool{false, true} {
			var cache *Cache
			if cached {
				cache = NewCache(ds, 1)
			}
			for _, workers := range []int{1, 3} {
				for _, capture := range []bool{false, true} {
					at := fmt.Sprintf("tables=%d n=%d cache=%v workers=%d capture=%v", tables, n, cached, workers, capture)
					var bc *BucketCapture
					if capture {
						bc = &BucketCapture{}
					}
					pool := NewHashPool()
					var st HashStats
					got := ApplyHashOpt(ds, plan, hf, cache, recs, HashOptions{Workers: workers, MinParallel: 1, Pool: pool, Capture: bc}, &st)
					if !samePartition(got, want.partition) {
						t.Fatalf("%s: partition %v, model %v", at, got, want.partition)
					}
					if st.Collisions != want.collisions || st.Merges != want.merges {
						t.Fatalf("%s: collisions/merges %d/%d, model %d/%d", at, st.Collisions, st.Merges, want.collisions, want.merges)
					}
					if bc == nil {
						continue
					}
					for tb, b := range want.buckets {
						for key, members := range b {
							if li, ok := bc.Lookup(tb, key); !ok || li != members[len(members)-1] {
								t.Fatalf("%s: table %d: captured head (%d, %v), model %d", at, tb, li, ok, members[len(members)-1])
							}
						}
					}
					if len(bc.prev) != len(want.prev) {
						t.Fatalf("%s: %d captured predecessor tables, model %d", at, len(bc.prev), len(want.prev))
					}
					for tb, prev := range want.prev {
						if !slices.Equal(bc.prev[tb], prev) {
							t.Fatalf("%s: table %d: captured predecessors %v, model %v", at, tb, bc.prev[tb], prev)
						}
					}
					bc.Release(pool)
				}
			}
			at := fmt.Sprintf("tables=%d n=%d cache=%v export", tables, n, cached)
			var st HashStats
			subs, reps, kept := ApplyHashExport(ds, plan, hf, cache, recs, nil, nil, &st)
			if !samePartition(subs, want.partition) {
				t.Fatalf("%s: partition %v, model %v", at, subs, want.partition)
			}
			if st.Collisions != want.collisions || st.Merges != want.merges {
				t.Fatalf("%s: collisions/merges %d/%d, model %d/%d", at, st.Collisions, st.Merges, want.collisions, want.merges)
			}
			if !slices.Equal(reps, want.reps) {
				t.Fatalf("%s: representatives %v, model %v", at, reps, want.reps)
			}
			for _, rp := range want.reps {
				members := want.buckets[rp.Table][rp.Key]
				if li, ok := kept.Lookup(int(rp.Table), rp.Key); !ok || li != members[len(members)-1] {
					t.Fatalf("%s: table %d: kept head (%d, %v), model %d", at, rp.Table, li, ok, members[len(members)-1])
				}
			}
		}
	})
}
