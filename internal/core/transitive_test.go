package core_test

import (
	"testing"
	"testing/quick"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// bruteComponents computes the connected components of the bucket-
// collision graph directly from the plan's hashers — the Definition 1
// semantics ApplyHashOpt must reproduce.
func bruteComponents(ds *record.Dataset, plan *core.Plan, hf *core.HashFunc, recs []int32) [][]int32 {
	n := len(recs)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	key := func(rec int32, table core.Table) uint64 {
		h := xhash.CombineInit
		for _, part := range table.Parts {
			for fn := part.Start; fn < part.Start+part.Count; fn++ {
				h = xhash.Combine(h, plan.Hashers[part.Hasher].Hash(fn, &ds.Records[rec]))
			}
		}
		return h
	}
	for _, table := range hf.Tables {
		buckets := make(map[uint64][]int)
		for i, rec := range recs {
			k := key(rec, table)
			buckets[k] = append(buckets[k], i)
		}
		for _, members := range buckets {
			for i := 1; i < len(members); i++ {
				adj[members[0]][members[i]] = true
				adj[members[i]][members[0]] = true
			}
		}
	}
	// BFS components.
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	nc := 0
	for i := 0; i < n; i++ {
		if comp[i] >= 0 {
			continue
		}
		queue := []int{i}
		comp[i] = nc
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for j := 0; j < n; j++ {
				if adj[cur][j] && comp[j] < 0 {
					comp[j] = nc
					queue = append(queue, j)
				}
			}
		}
		nc++
	}
	out := make([][]int32, nc)
	for i, c := range comp {
		out[c] = append(out[c], recs[i])
	}
	return out
}

// canonical renders a partition as a canonical map record -> sorted
// cluster signature for comparison.
func canonical(clusters [][]int32) map[int32]int32 {
	rep := make(map[int32]int32)
	for _, c := range clusters {
		min := c[0]
		for _, r := range c {
			if r < min {
				min = r
			}
		}
		for _, r := range c {
			rep[r] = min
		}
	}
	return rep
}

// TestApplyHashMatchesBruteForce cross-checks the parent-pointer-tree
// implementation of transitive hashing against a brute-force
// connected-components computation over the same tables.
func TestApplyHashMatchesBruteForce(t *testing.T) {
	f := func(seed uint64, sizesRaw [4]uint8) bool {
		sizes := make([]int, 0, 4)
		for _, s := range sizesRaw {
			sizes = append(sizes, int(s%12)+1)
		}
		ds := clusteredSetDataset(t, sizes, seed)
		plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 2, Seed: seed})
		if err != nil {
			return false
		}
		recs := make([]int32, ds.Len())
		for i := range recs {
			recs[i] = int32(i)
		}
		for _, hf := range plan.Funcs {
			cache := core.NewCache(ds, len(plan.Hashers))
			got := canonical(core.ApplyHashOpt(ds, plan, hf, cache, recs, core.HashOptions{}, nil))
			want := canonical(bruteComponents(ds, plan, hf, recs))
			// Same partition: representatives must induce the same
			// equivalence classes.
			classMap := make(map[int32]int32)
			for r, g := range got {
				w := want[r]
				if prev, ok := classMap[g]; ok {
					if prev != w {
						return false
					}
				} else {
					classMap[g] = w
				}
			}
			// And the number of classes must agree.
			gotClasses := make(map[int32]bool)
			wantClasses := make(map[int32]bool)
			for r := range got {
				gotClasses[got[r]] = true
				wantClasses[want[r]] = true
			}
			if len(gotClasses) != len(wantClasses) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyHashStreamingEqualsCached verifies that the nil-cache
// streaming path produces the identical partition.
func TestApplyHashStreamingEqualsCached(t *testing.T) {
	ds := clusteredSetDataset(t, []int{8, 5, 3}, 31)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]int32, ds.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	for _, hf := range plan.Funcs {
		cache := core.NewCache(ds, len(plan.Hashers))
		a := canonical(core.ApplyHashOpt(ds, plan, hf, cache, recs, core.HashOptions{}, nil))
		b := canonical(core.ApplyHashOpt(ds, plan, hf, nil, recs, core.HashOptions{}, nil))
		if len(a) != len(b) {
			t.Fatalf("H_%d: partition sizes differ", hf.Seq)
		}
		for r, ra := range a {
			if b[r] != ra {
				t.Fatalf("H_%d: streaming partition differs at record %d", hf.Seq, r)
			}
		}
	}
}

// TestCacheIncremental verifies the incremental-computation property:
// re-applying a function costs nothing, and advancing to the next
// function only pays for the extension.
func TestCacheIncremental(t *testing.T) {
	ds := clusteredSetDataset(t, []int{6, 4}, 17)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewCache(ds, len(plan.Hashers))
	recs := make([]int32, ds.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	core.ApplyHashOpt(ds, plan, plan.Funcs[0], cache, recs, core.HashOptions{}, nil)
	after1 := cache.TotalEvals()
	wantH1 := int64(plan.Funcs[0].FuncsPerHasher[0]) * int64(ds.Len())
	if after1 != wantH1 {
		t.Fatalf("H_1 evals = %d, want %d", after1, wantH1)
	}
	// Re-applying H_1 computes nothing new.
	core.ApplyHashOpt(ds, plan, plan.Funcs[0], cache, recs, core.HashOptions{}, nil)
	if cache.TotalEvals() != after1 {
		t.Fatal("re-applying H_1 recomputed hashes")
	}
	// H_2 pays only the difference.
	core.ApplyHashOpt(ds, plan, plan.Funcs[1], cache, recs, core.HashOptions{}, nil)
	wantH2 := int64(plan.Funcs[1].FuncsPerHasher[0]) * int64(ds.Len())
	if cache.TotalEvals() != wantH2 {
		t.Fatalf("after H_2: evals = %d, want %d (incremental)", cache.TotalEvals(), wantH2)
	}
	if cache.Prefix(0, 0) != plan.Funcs[1].FuncsPerHasher[0] {
		t.Fatalf("prefix = %d", cache.Prefix(0, 0))
	}
}

// TestPlanValidateRejectsBrokenPlans exercises the validator errors.
func TestPlanValidateRejectsBrokenPlans(t *testing.T) {
	ds := clusteredSetDataset(t, []int{4}, 3)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Break monotonicity.
	broken := *plan
	broken.Funcs = []*core.HashFunc{plan.Funcs[1], plan.Funcs[0]}
	if err := broken.Validate(); err == nil {
		t.Error("validator accepted non-incremental sequence")
	}
	// Out-of-range part.
	bad := *plan.Funcs[0]
	bad.Tables = append([]core.Table(nil), plan.Funcs[0].Tables...)
	bad.Tables[0] = core.Table{Parts: []core.TablePart{{Hasher: 0, Start: 1 << 20, Count: 5}}}
	broken2 := *plan
	broken2.Funcs = []*core.HashFunc{&bad}
	if err := broken2.Validate(); err == nil {
		t.Error("validator accepted out-of-range table part")
	}
	// Empty plan.
	broken3 := *plan
	broken3.Funcs = nil
	if err := broken3.Validate(); err == nil {
		t.Error("validator accepted empty sequence")
	}
}
