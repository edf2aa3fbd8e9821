package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// hashOracle is the map-based reference for core.ApplyHashOpt: one Go
// map per table holding each bucket's last record (an index into
// recs), bucket keys folded from from-scratch lshfamily.HashRange
// values, and a union-find over recs. It returns the canonical
// partition (largest cluster first, ties on first record, members
// ascending), the collision and merge counts, and the bucket maps.
func hashOracle(ds *record.Dataset, plan *core.Plan, hf *core.HashFunc, recs []int32) ([][]int32, int64, int64, []map[uint64]int) {
	parent := make([]int, len(recs))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	tables := make([]map[uint64]int, len(hf.Tables))
	for t := range tables {
		tables[t] = make(map[uint64]int)
	}
	vals := make([][]uint64, len(plan.Hashers))
	var collisions, merges int64
	for li, rec := range recs {
		for h, n := range hf.FuncsPerHasher {
			vals[h] = make([]uint64, n)
			lshfamily.HashRange(plan.Hashers[h], 0, n, &ds.Records[rec], vals[h])
		}
		for t := range hf.Tables {
			key := oracleKey(hf, t, vals)
			if last, ok := tables[t][key]; ok {
				collisions++
				if a, b := find(last), find(li); a != b {
					parent[a] = b
					merges++
				}
			}
			tables[t][key] = li
		}
	}
	groups := make(map[int][]int32)
	for li, rec := range recs {
		groups[find(li)] = append(groups[find(li)], rec)
	}
	out := make([][]int32, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i][0] < out[j][0]
	})
	return out, collisions, merges, tables
}

// oracleKey folds table t's bucket key from per-hasher base hash
// values, as the hash stage composes it.
func oracleKey(hf *core.HashFunc, t int, vals [][]uint64) uint64 {
	key := xhash.CombineInit ^ xhash.SplitMix64(uint64(t)+0x51ed2701)
	for _, part := range hf.Tables[t].Parts {
		for _, v := range vals[part.Hasher][part.Start : part.Start+part.Count] {
			key = xhash.Combine(key, v)
		}
	}
	return key
}

// oracleCall is one hashing invocation of the replayed round inputs
// with the oracle's answer.
type oracleCall struct {
	recs               []int32
	want               [][]int32
	collisions, merges int64
	tables             []map[uint64]int
}

// TestMemLayoutEquivalenceOnBuilders pins the production hash stage —
// arena signature cache, pooled open-addressing bucket tables — to
// hashOracle on a slice of each paper dataset builder. It replays
// Algorithm 1's round inputs: H_1 over the whole slice, then each H_t
// over every cluster H_{t-1} produced. Every call runs at workers
// {1, 4} with MinParallel 1 (so tables fill both on one goroutine and
// on parallel table workers), with the signature cache on (one cache
// across all rounds, as in a filter run) and off (streaming), and with
// a bucket capture on and off. The partition, Collisions and Merges must
// equal the oracle's; a capture must hold the oracle's bucket heads;
// and hash evaluations must equal the from-scratch count — per
// (hasher, record) prefix growth with the cache, every function of
// every record without it.
func TestMemLayoutEquivalenceOnBuilders(t *testing.T) {
	if testing.Short() {
		t.Skip("full hash sweeps")
	}
	p := NewProvider(42)
	benches := map[string]*datasets.Benchmark{
		"cora":     p.Cora(1),
		"spotsigs": p.SpotSigs(1, 0.4),
		"images":   p.Images("1.05", 15),
	}
	const slice = 600
	for name, full := range benches {
		b := sliceBenchmark(full, slice)
		ds := b.Dataset
		plan, err := p.Plan(b, defaultSeq())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		all := make([]int32, ds.Len())
		for i := range all {
			all[i] = int32(i)
		}
		// rounds[t] holds H_{t+1}'s calls: the oracle defines the inputs.
		rounds := make([][]oracleCall, len(plan.Funcs))
		inputs := [][]int32{all}
		for r, hf := range plan.Funcs {
			var next [][]int32
			for _, recs := range inputs {
				want, coll, merges, tables := hashOracle(ds, plan, hf, recs)
				rounds[r] = append(rounds[r], oracleCall{recs, want, coll, merges, tables})
				next = append(next, want...)
			}
			inputs = next
		}

		for _, cached := range []bool{true, false} {
			for _, workers := range []int{1, 4} {
				for _, capture := range []bool{false, true} {
					label := fmt.Sprintf("%s/cache=%v/workers=%d/capture=%v", name, cached, workers, capture)
					var cache *core.Cache
					if cached {
						cache = core.NewCache(ds, len(plan.Hashers))
					}
					prefix := make([][]int, len(plan.Hashers))
					for h := range prefix {
						prefix[h] = make([]int, ds.Len())
					}
					wantEvals := make([]int64, len(plan.Hashers))
					pool := core.NewHashPool()
					for r, hf := range plan.Funcs {
						for ci, call := range rounds[r] {
							at := fmt.Sprintf("%s: H_%d call %d (%d records)", label, r+1, ci, len(call.recs))
							var bc *core.BucketCapture
							if capture {
								bc = &core.BucketCapture{}
							}
							var st core.HashStats
							got := core.ApplyHashOpt(ds, plan, hf, cache, call.recs,
								core.HashOptions{Workers: workers, MinParallel: 1, Pool: pool, Capture: bc}, &st)
							if !reflect.DeepEqual(got, call.want) {
								t.Fatalf("%s: partition differs from the oracle's", at)
							}
							if st.Collisions != call.collisions || st.Merges != call.merges {
								t.Fatalf("%s: collisions/merges %d/%d, oracle %d/%d", at, st.Collisions, st.Merges, call.collisions, call.merges)
							}
							if bc != nil {
								for tb, m := range call.tables {
									for key, last := range m {
										if li, ok := bc.Lookup(tb, key); !ok || int(li) != last {
											t.Fatalf("%s: table %d: captured bucket head (%d, %v), oracle %d", at, tb, li, ok, last)
										}
									}
								}
								bc.Release(pool)
							}
							for h, n := range hf.FuncsPerHasher {
								if !cached {
									if want := int64(n * len(call.recs)); st.Evals[h] != want {
										t.Fatalf("%s: streamed evals[%d] %d, want %d", at, h, st.Evals[h], want)
									}
									continue
								}
								for _, rec := range call.recs {
									if n > prefix[h][rec] {
										wantEvals[h] += int64(n - prefix[h][rec])
										prefix[h][rec] = n
									}
								}
							}
						}
					}
					if cached && !reflect.DeepEqual(cache.HashEvals(), wantEvals) {
						t.Errorf("%s: cache evals %v, from-scratch count %v", label, cache.HashEvals(), wantEvals)
					}
				}
			}
		}
	}
}
