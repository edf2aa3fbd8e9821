package core_test

import (
	"math"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
)

// TestAblationsPreserveOutput verifies that the ablation knobs change
// only the amount of work, never the result.
func TestAblationsPreserveOutput(t *testing.T) {
	ds := clusteredSetDataset(t, []int{25, 15, 8, 4, 2}, 29)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.Filter(ds, plan, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"no-cache": {K: 3, DisableHashCache: true},
		"no-skip":  {K: 3, DisableTransitiveSkip: true},
		"both":     {K: 3, DisableHashCache: true, DisableTransitiveSkip: true},
	} {
		res, err := core.Filter(ds, plan, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Output) != len(base.Output) {
			t.Fatalf("%s: output size %d, want %d", name, len(res.Output), len(base.Output))
		}
		for i := range base.Output {
			if res.Output[i] != base.Output[i] {
				t.Fatalf("%s: output differs at %d", name, i)
			}
		}
	}
}

// TestNoSkipComputesMorePairs verifies the transitive-skip ablation
// actually pays for the skipped pairs.
func TestNoSkipComputesMorePairs(t *testing.T) {
	ds := clusteredSetDataset(t, []int{20, 10}, 33)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	with, err := core.Filter(ds, plan, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	without, err := core.Filter(ds, plan, core.Options{K: 2, DisableTransitiveSkip: true})
	if err != nil {
		t.Fatal(err)
	}
	if without.Stats.PairsComputed <= with.Stats.PairsComputed {
		t.Fatalf("no-skip pairs %d <= skip pairs %d", without.Stats.PairsComputed, with.Stats.PairsComputed)
	}
}

// TestModelCostMatchesMeasuredWork pins ModelCost to the measured
// work: with a cache, incremental hash charges match the cache's eval
// counts; without one (DisableHashCache), every round is charged the
// full Cost(H_{t+1}) and the streamed eval counters must agree. Both
// regressions this guards were real: streaming runs reported all-zero
// HashEvals, and re-hash rounds were charged only the incremental
// delta despite recomputing everything.
func TestModelCostMatchesMeasuredWork(t *testing.T) {
	ds := clusteredSetDataset(t, []int{30, 20, 12, 6, 3}, 37)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		"cached":    {K: 3},
		"streaming": {K: 3, DisableHashCache: true},
	} {
		res, err := core.Filter(ds, plan, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		st := res.Stats
		var evalSum int64
		measured := float64(st.PairsComputed) * plan.Cost.CostP
		for h, evals := range st.HashEvals {
			evalSum += evals
			measured += float64(evals) * plan.Cost.CostFunc[h]
		}
		if evalSum == 0 {
			t.Fatalf("%s: HashEvals all zero", name)
		}
		if st.ModelCost <= 0 {
			t.Fatalf("%s: ModelCost = %g", name, st.ModelCost)
		}
		if rel := math.Abs(st.ModelCost-measured) / measured; rel > 1e-6 {
			t.Fatalf("%s: ModelCost %g vs measured %g (rel err %g)", name, st.ModelCost, measured, rel)
		}
	}
}

// TestNoSkipAllPairs: with the skip disabled, P on a set of n records
// computes exactly n(n-1)/2 distances.
func TestNoSkipAllPairs(t *testing.T) {
	ds := clusteredSetDataset(t, []int{10}, 41)
	recs := make([]int32, ds.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	_, st := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{NoSkip: true})
	pairs := st.PairsComputed
	n := int64(ds.Len())
	if pairs != n*(n-1)/2 {
		t.Fatalf("pairs = %d, want %d", pairs, n*(n-1)/2)
	}
}
