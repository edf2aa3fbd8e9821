package core_test

import (
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
)

// opaqueRule hides the concrete rule type from the prepared-kernel
// type switch, so distance.Prepare falls back to calling Rule.Match
// per pair — the seed's naive path, with identical wave scheduling.
type opaqueRule struct{ distance.Rule }

// TestPairwiseKernelMatchesNaive is the identical-decision contract at
// the ApplyPairwiseOpt level: the prepared kernels must produce
// byte-identical clusters and identical PairsComputed and Merges to
// the naive Rule.Match path, for serial and parallel worker counts,
// with and without the transitive skip.
func TestPairwiseKernelMatchesNaive(t *testing.T) {
	ds := clusteredSetDataset(t, parallelSizes, 71)
	recs := allRecords(ds.Len())
	rule := jaccardRule()
	for _, workers := range []int{1, 4} {
		for _, noSkip := range []bool{false, true} {
			opts := core.PairwiseOptions{Workers: workers, NoSkip: noSkip}
			naiveClusters, nst := core.ApplyPairwiseOpt(ds, opaqueRule{rule}, recs, opts)
			prepClusters, pst := core.ApplyPairwiseOpt(ds, rule, recs, opts)
			if !reflect.DeepEqual(prepClusters, naiveClusters) {
				t.Fatalf("workers=%d noSkip=%v: prepared clusters differ from naive", workers, noSkip)
			}
			if pst.PairsComputed != nst.PairsComputed {
				t.Fatalf("workers=%d noSkip=%v: PairsComputed %d (prepared) != %d (naive)",
					workers, noSkip, pst.PairsComputed, nst.PairsComputed)
			}
			if pst.Merges != nst.Merges {
				t.Fatalf("workers=%d noSkip=%v: Merges %d (prepared) != %d (naive)",
					workers, noSkip, pst.Merges, nst.Merges)
			}
			if kst := nst.PrefilterRejects + nst.EarlyExits; kst != 0 {
				t.Fatalf("naive path reports kernel activity: %d", kst)
			}
		}
	}
}

// TestPairwiseKernelStatsDeterministic pins the serial kernel counters:
// for a fixed input the prefilter/early-exit counts must not vary
// between runs (the BENCH counter-equality contract relies on this).
func TestPairwiseKernelStatsDeterministic(t *testing.T) {
	ds := clusteredSetDataset(t, []int{40, 30, 20}, 73)
	recs := allRecords(ds.Len())
	_, first := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: 1})
	_, second := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: 1})
	if first.PrefilterRejects != second.PrefilterRejects || first.EarlyExits != second.EarlyExits {
		t.Fatalf("kernel stats not deterministic: %d/%d then %d/%d",
			first.PrefilterRejects, first.EarlyExits, second.PrefilterRejects, second.EarlyExits)
	}
}

// TestRecoverKernelMatchesNaive covers the recovery pass, which
// prepares one kernel over the whole dataset.
func TestRecoverKernelMatchesNaive(t *testing.T) {
	ds := clusteredSetDataset(t, []int{30, 25, 20, 10}, 83)
	rule := jaccardRule()
	clusters, _ := core.ApplyPairwise(ds, rule, allRecords(40))
	naive := core.Recover(ds, opaqueRule{rule}, clusters)
	prep := core.Recover(ds, rule, clusters)
	if !reflect.DeepEqual(prep.Clusters, naive.Clusters) {
		t.Fatal("prepared recovery clusters differ from naive")
	}
	if prep.Recovered != naive.Recovered || prep.PairsComputed != naive.PairsComputed {
		t.Fatalf("recovery stats differ: %d/%d (prepared) vs %d/%d (naive)",
			prep.Recovered, prep.PairsComputed, naive.Recovered, naive.PairsComputed)
	}
}

// TestCacheGrowBulk checks Grow's bulk extension: existing prefixes
// survive, new slots are nil, and shrinking is a no-op.
func TestCacheGrowBulk(t *testing.T) {
	ds := clusteredSetDataset(t, []int{6}, 89)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewCache(ds, len(plan.Hashers))
	before := cache.Ensure(plan, 0, 2, 3)
	beforeCopy := append([]uint64(nil), before...)

	// Grow the dataset, then the cache, in two steps plus a no-op.
	for i := 0; i < 10; i++ {
		ds.Add(-1, ds.Records[0].Fields...)
	}
	cache.Grow(10)
	cache.Grow(4) // shrink request: no-op
	cache.Grow(16)
	if got := cache.Prefix(0, 15); got != 0 {
		t.Fatalf("new slot has prefix %d, want 0", got)
	}
	if got := cache.Ensure(plan, 0, 2, 3); !reflect.DeepEqual(got, beforeCopy) {
		t.Fatalf("cached prefix changed across Grow: %v -> %v", beforeCopy, got)
	}
	if got := cache.Ensure(plan, 0, 15, 2); len(got) != 2 {
		t.Fatalf("grown slot Ensure returned %d values, want 2", len(got))
	}
}
