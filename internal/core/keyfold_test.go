package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
)

// keyFoldPlan hand-builds a two-function plan over MinHash hashers on
// set fields 0..hashers-1. H_1 has 4 tables of 2 functions per part,
// H_2 6 tables of 3. With two hashers the even tables AND a part of
// each hasher and the odd tables read hasher 0 alone, so the hashers
// are read by different numbers of parts per round.
func keyFoldPlan(hashers int) *core.Plan {
	const maxFuncs = 64
	plan := &core.Plan{
		Rule: distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5},
		Cost: core.CostModel{CostFunc: []float64{1, 1}, CostP: 1},
	}
	for h := 0; h < hashers; h++ {
		seed := uint64(11 + h)
		plan.Hashers = append(plan.Hashers, lshfamily.NewMinHash(h, maxFuncs, seed))
		plan.HasherDescs = append(plan.HasherDescs, lshfamily.Desc{Kind: lshfamily.KindMinHash, Field: h, MaxFuncs: maxFuncs, Seed: seed})
	}
	for i, shape := range [][2]int{{2, 4}, {3, 6}} {
		w, z := shape[0], shape[1]
		hf := &core.HashFunc{Seq: i + 1, Label: fmt.Sprintf("(w=%d,z=%d)", w, z), FuncsPerHasher: make([]int, hashers)}
		for t := 0; t < z; t++ {
			var table core.Table
			for h := 0; h < hashers; h++ {
				if h > 0 && t%2 == 1 {
					continue
				}
				table.Parts = append(table.Parts, core.TablePart{Hasher: h, Start: t * w, Count: w})
				hf.FuncsPerHasher[h] = max(hf.FuncsPerHasher[h], (t+1)*w)
				hf.Budget += w
			}
			hf.Tables = append(hf.Tables, table)
		}
		plan.Funcs = append(plan.Funcs, hf)
	}
	return plan
}

// TestKeyFoldLookupContract pins the cache counters through the hash
// stage's key fold, which looks each (record, hasher) prefix up once
// per round. The counters keep their per-part definition: every table
// part of every record is one lookup, a miss when it had to grow the
// record's prefix of its hasher and a hit otherwise, so per round
// hits + misses = Σ over records of Σ over tables of the table's
// parts, misses = the (record, hasher) prefixes that grew, and each
// hasher's evals = the growth of its prefixes. The rounds run H_1 over
// every record, H_2 over a subset, then H_1 again (every lookup a
// hit), at Workers 1 and 3 with MinParallel 1, through one pool that a
// streaming round shares, for a one-hasher plan and for an AND plan
// whose tables read two hashers. Each cached partition must equal the
// streaming one.
func TestKeyFoldLookupContract(t *testing.T) {
	ds := threeFieldDataset([]int{20, 12, 6, 3, 1}, 7)
	all := allRecords(ds.Len())
	var subset []int32
	for rec := 0; rec < ds.Len(); rec += 3 {
		subset = append(subset, int32(rec))
	}
	for _, hashers := range []int{1, 2} {
		plan := keyFoldPlan(hashers)
		if err := plan.Validate(); err != nil {
			t.Fatalf("hand-built plan invalid: %v", err)
		}
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("hashers=%d/workers=%d", hashers, workers), func(t *testing.T) {
				cache := core.NewCache(ds, len(plan.Hashers))
				opts := core.HashOptions{Workers: workers, MinParallel: 1, Pool: core.NewHashPool()}
				prefix := make([][]int, len(plan.Hashers))
				for h := range prefix {
					prefix[h] = make([]int, ds.Len())
				}
				rounds := []struct {
					hf   *core.HashFunc
					recs []int32
				}{{plan.Funcs[0], all}, {plan.Funcs[1], subset}, {plan.Funcs[0], all}}
				for i, rd := range rounds {
					parts := make([]int, len(plan.Hashers))
					lookupsPerRec := int64(0)
					for _, table := range rd.hf.Tables {
						lookupsPerRec += int64(len(table.Parts))
						for _, part := range table.Parts {
							parts[part.Hasher]++
						}
					}
					var wantMisses int64
					wantEvals := make([]int64, len(plan.Hashers))
					for _, rec := range rd.recs {
						for h, n := range rd.hf.FuncsPerHasher {
							if parts[h] > 0 && prefix[h][rec] < n {
								wantMisses++
								wantEvals[h] += int64(n - prefix[h][rec])
								prefix[h][rec] = n
							}
						}
					}
					wantLookups := lookupsPerRec * int64(len(rd.recs))

					hits0, misses0 := cache.Lookups()
					evals0 := cache.HashEvals()
					got := core.ApplyHashOpt(ds, plan, rd.hf, cache, rd.recs, opts, nil)
					hits, misses := cache.Lookups()
					hits, misses = hits-hits0, misses-misses0
					if hits+misses != wantLookups || misses != wantMisses {
						t.Fatalf("round %d (H_%d): hits %d + misses %d, want %d lookups with %d misses",
							i, rd.hf.Seq, hits, misses, wantLookups, wantMisses)
					}
					for h, e := range cache.HashEvals() {
						if d := e - evals0[h]; d != wantEvals[h] {
							t.Fatalf("round %d (H_%d): hasher %d evals grew %d, want %d", i, rd.hf.Seq, h, d, wantEvals[h])
						}
					}
					want := core.ApplyHashOpt(ds, plan, rd.hf, nil, rd.recs, opts, nil)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("round %d (H_%d): cached partition differs from streaming", i, rd.hf.Seq)
					}
				}
			})
		}
	}
}
