package shard

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// mapExchange is the reference reconcile: replay every shard's local
// components, then walk the shards' bucket representatives in shard
// order through one Go map per table, chaining each later holder of a
// (table, key) to the previous one. Each shard contributes the
// components and representatives its engine round exported, or — with
// rebuild set — the ones scratchBuckets rebuilds from its records.
func mapExchange(shards []*shardState, recs []int32, plan *core.Plan, hf *core.HashFunc, rebuild bool) ([][]int32, BoundaryStats) {
	var b BoundaryStats
	forest := ppt.NewForest(len(recs))
	for i := range recs {
		forest.MakeTree(i)
	}
	union := func(x, y int32) bool {
		rx, ry := forest.Root(int(x)), forest.Root(int(y))
		if rx != ry {
			forest.Merge(rx, ry)
		}
		return rx != ry
	}
	type ent struct {
		pos   int32
		multi bool
	}
	maps := make([]map[uint64]ent, len(hf.Tables))
	for t := range maps {
		maps[t] = make(map[uint64]ent)
	}
	for _, s := range shards {
		subs, reps := s.subs, s.reps
		if rebuild {
			subs, reps = scratchBuckets(s, plan, hf)
		}
		for _, cl := range subs {
			for _, li := range cl[1:] {
				union(s.posIdx[cl[0]], s.posIdx[li])
			}
		}
		for _, rp := range reps {
			gpos := s.posIdx[rp.Rep]
			prev, held := maps[rp.Table][rp.Key]
			maps[rp.Table][rp.Key] = ent{pos: gpos, multi: held}
			if !held {
				continue
			}
			b.Pairs++
			if !prev.multi {
				b.Keys++
			}
			if union(prev.pos, gpos) {
				b.Merges++
			}
		}
	}
	return core.CollectClusters(forest, recs), b
}

// equalReps compares two representative lists element by element (nil
// and empty are equal).
func equalReps(a, b []core.BucketRep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scratchBuckets rebuilds one shard's round output from its records
// alone, sharing no bucket state with core.ApplyHashExport: bucket
// keys folded from lshfamily.HashRange values into one Go map per
// table, each co-bucket record joined to its bucket's first record as
// a two-member local component, and that first record as the bucket's
// representative, sorted by (Table, Rep): table by table, each table's
// buckets in order of their first members.
func scratchBuckets(s *shardState, plan *core.Plan, hf *core.HashFunc) ([][]int32, []core.BucketRep) {
	var subs [][]int32
	var reps []core.BucketRep
	first := make([]map[uint64]int32, len(hf.Tables))
	for t := range first {
		first[t] = make(map[uint64]int32)
	}
	vals := make([][]uint64, len(plan.Hashers))
	for li, lrec := range s.lrecs {
		for h, n := range hf.FuncsPerHasher {
			vals[h] = make([]uint64, n)
			lshfamily.HashRange(plan.Hashers[h], 0, n, &s.lds.Records[lrec], vals[h])
		}
		for t, table := range hf.Tables {
			key := xhash.CombineInit ^ xhash.SplitMix64(uint64(t)+0x51ed2701)
			for _, part := range table.Parts {
				for _, v := range vals[part.Hasher][part.Start : part.Start+part.Count] {
					key = xhash.Combine(key, v)
				}
			}
			if f, ok := first[t][key]; ok {
				subs = append(subs, []int32{f, int32(li)})
				continue
			}
			first[t][key] = int32(li)
			reps = append(reps, core.BucketRep{Key: key, Table: int32(t), Rep: int32(li)})
		}
	}
	slices.SortFunc(reps, func(a, b core.BucketRep) int {
		return cmp.Or(cmp.Compare(a.Table, b.Table), cmp.Compare(a.Rep, b.Rep))
	})
	return subs, reps
}

// bucketHasher makes base function fn of a record its fn-th vector
// component, so with one single-function table per component two
// records share a bucket of table t exactly when they carry the same
// bucket id at position t: the test chooses every shard's buckets.
type bucketHasher struct{ tables int }

func (h bucketHasher) Hash(fn int, r *record.Record) uint64 {
	return uint64(r.Fields[0].(record.Vector)[fn])
}
func (bucketHasher) P(x float64) float64 { return 1 - x }
func (h bucketHasher) MaxFunctions() int { return h.tables }
func (bucketHasher) Name() string        { return "bucket-id" }

// bucketPlan is a one-function plan with one table per bucket-id
// position.
func bucketPlan(tables int) *core.Plan {
	hf := &core.HashFunc{Seq: 1, Budget: tables, FuncsPerHasher: []int{tables}}
	for t := 0; t < tables; t++ {
		hf.Tables = append(hf.Tables, core.Table{Parts: []core.TablePart{{Hasher: 0, Start: t, Count: 1}}})
	}
	return &core.Plan{Hashers: []lshfamily.Hasher{bucketHasher{tables}}, Funcs: []*core.HashFunc{hf}}
}

// firstOwned returns the first record ID owned by shard s.
func firstOwned(n, s, p int) int {
	for id := 0; id < n; id++ {
		if Owner(int32(id), p) == s {
			return id
		}
	}
	panic(fmt.Sprintf("no record owned by shard %d of %d", s, p))
}

// TestProbeExchangeMatchesMapOracle runs the engine's sharded round on
// random per-shard bucket sets and requires the probe exchange to
// reproduce the map oracle's boundary keys, pairs and merges and its
// partition, which must also equal the single engine's. Reserved bucket
// ids plant a key held only by shards 0 and 2, a key held by every
// shard, and a key shared by shards 0 and 1 whose holder in shard 0
// disappears when later rounds leave shard 0 (then shard 1) without
// records: stale tables from the previous round must not leak edges.
// With maps=true the oracle does not trust the engine's exported
// buckets at all: it rebuilds every shard's buckets from its records
// in Go maps (scratchBuckets), and the engine's representatives must
// equal the rebuilt ones.
func TestProbeExchangeMatchesMapOracle(t *testing.T) {
	const tables = 4
	plan := bucketPlan(tables)
	hf := plan.Funcs[0]
	for _, p := range []int{2, 3, 4, 8} {
		for _, workers := range []int{1, 3} {
			for _, rebuild := range []bool{false, true} {
				name := fmt.Sprintf("P=%d/workers=%d/maps=%v", p, workers, rebuild)
				t.Run(name, func(t *testing.T) {
					n := 40 * p
					universe := uint64(n)
					rng := xhash.NewRNG(uint64(p*100 + workers))
					vecs := make([]record.Vector, n)
					for i := range vecs {
						vecs[i] = make(record.Vector, tables)
						for tb := range vecs[i] {
							vecs[i][tb] = float64(rng.Uint64() % universe)
						}
					}
					plant := func(table int, id uint64, shards ...int) {
						for _, s := range shards {
							vecs[firstOwned(n, s, p)][table] = float64(universe + id)
						}
					}
					every := make([]int, p)
					for s := range every {
						every[s] = s
					}
					plant(1, 1, every...)
					plant(2, 2, 0, 1)
					if p >= 3 {
						plant(0, 0, 0, 2)
					}
					ds := &record.Dataset{Name: name}
					for _, v := range vecs {
						ds.Add(-1, v)
					}

					e, err := New(ds, Options{Shards: p, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					e.Begin(plan, core.Options{Workers: workers})
					without := func(skip int) []int32 {
						var recs []int32
						for id := 0; id < n; id++ {
							if Owner(int32(id), p) != skip {
								recs = append(recs, int32(id))
							}
						}
						return recs
					}
					for round, recs := range [][]int32{without(-1), without(0), without(1)} {
						before := e.boundary
						got := e.HashRound(recs, hf, &core.HashStats{})
						gotB := BoundaryStats{
							Keys:   e.boundary.Keys - before.Keys,
							Pairs:  e.boundary.Pairs - before.Pairs,
							Merges: e.boundary.Merges - before.Merges,
						}
						want, wantB := mapExchange(e.shards, recs, plan, hf, rebuild)
						for s, st := range e.shards {
							if !rebuild {
								break
							}
							if _, reps := scratchBuckets(st, plan, hf); !equalReps(st.reps, reps) {
								t.Errorf("round %d: shard %d exported bucket representatives differ from the map rebuild's (%d vs %d)",
									round, s, len(st.reps), len(reps))
							}
						}
						if gotB != wantB {
							t.Errorf("round %d: probe exchange %+v, map oracle %+v", round, gotB, wantB)
						}
						if round == 0 && (wantB.Keys < tables || wantB.Pairs-wantB.Keys < int64(p-2)) {
							t.Errorf("round %d: oracle %+v: too few shared buckets to exercise the exchange", round, wantB)
						}
						if !reflect.DeepEqual(got, want) {
							t.Errorf("round %d: probe partition differs from the map oracle's", round)
						}
						single := core.ApplyHashOpt(ds, plan, hf, nil, recs, core.HashOptions{Workers: 1}, nil)
						if !reflect.DeepEqual(got, single) {
							t.Errorf("round %d: sharded partition differs from the single engine's", round)
						}
						for s, st := range e.shards {
							if !reflect.DeepEqual(st.tables, core.BucketTables{}) {
								t.Errorf("round %d: shard %d still holds its bucket tables after the round", round, s)
							}
						}
					}
				})
			}
		}
	}
}
