package core_test

import (
	"testing"

	"github.com/topk-er/adalsh/internal/core"
)

// TestApplyHashParallelMatchesBrute exercises the parallel key-
// precompute path (clusters above the parallelism threshold) and
// cross-checks the partition against the brute-force component
// computation. Run with -race to validate the concurrent cache use.
func TestApplyHashParallelMatchesBrute(t *testing.T) {
	if testing.Short() {
		t.Skip("large input")
	}
	// 4600 records: above the 4096 parallel threshold.
	sizes := make([]int, 46)
	for i := range sizes {
		sizes[i] = 100
	}
	ds := clusteredSetDataset(t, sizes, 61)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]int32, ds.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	hf := plan.Funcs[0]
	cache := core.NewCache(ds, len(plan.Hashers))
	got := canonical(core.ApplyHashOpt(ds, plan, hf, cache, recs, core.HashOptions{}, nil))
	want := canonical(bruteComponents(ds, plan, hf, recs))
	classMap := make(map[int32]int32)
	gotClasses := make(map[int32]bool)
	wantClasses := make(map[int32]bool)
	for r, g := range got {
		w := want[r]
		if prev, ok := classMap[g]; ok && prev != w {
			t.Fatalf("parallel partition differs from brute force at record %d", r)
		}
		classMap[g] = w
		gotClasses[g] = true
		wantClasses[w] = true
	}
	if len(gotClasses) != len(wantClasses) {
		t.Fatalf("parallel partition has %d classes, brute force %d", len(gotClasses), len(wantClasses))
	}
	// The streaming (nil cache) parallel path must agree as well.
	streamed := canonical(core.ApplyHashOpt(ds, plan, hf, nil, recs, core.HashOptions{}, nil))
	for r, g := range got {
		if streamed[r] != g {
			t.Fatalf("streaming parallel partition differs at record %d", r)
		}
	}
}
