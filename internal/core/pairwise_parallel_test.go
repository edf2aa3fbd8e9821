package core_test

import (
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
)

// parallelSizes yields 210 records (21945 pairs), comfortably above
// the parallel dispatch threshold of 8192 pairs.
var parallelSizes = []int{60, 50, 40, 30, 20, 10}

func allRecords(n int) []int32 {
	recs := make([]int32, n)
	for i := range recs {
		recs[i] = int32(i)
	}
	return recs
}

// TestPairwiseParallelMatchesSerial is the central equivalence claim
// of the parallel execution layer: for every worker count the
// partition is identical to the serial path, and the distance count is
// deterministic, at least the serial count, and at most the
// |S|(|S|-1)/2 the cost model budgets.
func TestPairwiseParallelMatchesSerial(t *testing.T) {
	ds := clusteredSetDataset(t, parallelSizes, 51)
	recs := allRecords(ds.Len())
	n := int64(len(recs))
	total := n * (n - 1) / 2

	serialClusters, serialStats := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: 1})
	if serialStats.Workers != 1 {
		t.Fatalf("serial run reports %d workers", serialStats.Workers)
	}
	if serialStats.Work != serialStats.Wall {
		t.Fatalf("serial Work %v != Wall %v", serialStats.Work, serialStats.Wall)
	}
	want := canonical(serialClusters)

	for _, workers := range []int{2, 4} {
		clusters, st := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: workers})
		if st.Workers != workers {
			t.Fatalf("workers=%d: stats report %d workers", workers, st.Workers)
		}
		if !reflect.DeepEqual(canonical(clusters), want) {
			t.Fatalf("workers=%d: partition differs from serial", workers)
		}
		// Byte-identical cluster ordering, not just the same partition.
		if !reflect.DeepEqual(clusters, serialClusters) {
			t.Fatalf("workers=%d: cluster ordering differs from serial", workers)
		}
		if st.PairsComputed < serialStats.PairsComputed || st.PairsComputed > total {
			t.Fatalf("workers=%d: PairsComputed = %d, want in [%d, %d]",
				workers, st.PairsComputed, serialStats.PairsComputed, total)
		}
		// Same worker count, same dispatch schedule, same count.
		_, again := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: workers})
		if again.PairsComputed != st.PairsComputed {
			t.Fatalf("workers=%d: PairsComputed not deterministic: %d then %d",
				workers, st.PairsComputed, again.PairsComputed)
		}
	}
}

// TestPairwiseParallelNoSkipCountsAllPairs checks the ablated variant
// under parallel dispatch: with the transitive skip off, every one of
// the |S|(|S|-1)/2 distances is computed, no more and no fewer.
func TestPairwiseParallelNoSkipCountsAllPairs(t *testing.T) {
	ds := clusteredSetDataset(t, parallelSizes, 53)
	recs := allRecords(ds.Len())
	n := int64(len(recs))
	total := n * (n - 1) / 2

	serialClusters, _ := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: 1, NoSkip: true})
	clusters, st := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: 4, NoSkip: true})
	if st.PairsComputed != total {
		t.Fatalf("NoSkip parallel computed %d pairs, want exactly %d", st.PairsComputed, total)
	}
	if !reflect.DeepEqual(clusters, serialClusters) {
		t.Fatal("NoSkip parallel partition differs from serial")
	}
}

// TestPairwiseSmallInputCollapsesToSerial checks the dispatch-overhead
// guard: below the pair threshold the pool is skipped entirely, so
// Work accounting degenerates to Wall.
func TestPairwiseSmallInputCollapsesToSerial(t *testing.T) {
	ds := clusteredSetDataset(t, []int{12, 8}, 57)
	recs := allRecords(ds.Len())
	_, st := core.ApplyPairwiseOpt(ds, jaccardRule(), recs, core.PairwiseOptions{Workers: 8})
	if st.Workers != 1 {
		t.Fatalf("small input ran with %d workers, want 1", st.Workers)
	}
	if st.Work != st.Wall {
		t.Fatalf("small input Work %v != Wall %v", st.Work, st.Wall)
	}
}

// TestFilterParallelMatchesSerial runs the full Algorithm 1 pipeline
// with and without the worker pool and demands identical output:
// clusters, records and the deterministic work counters.
func TestFilterParallelMatchesSerial(t *testing.T) {
	ds := clusteredSetDataset(t, []int{40, 30, 20, 12, 6, 3}, 61)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.Filter(ds, plan, core.Options{K: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		res, err := core.Filter(ds, plan, core.Options{K: 3, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(res.Clusters, serial.Clusters) {
			t.Fatalf("workers=%d: clusters differ from serial", workers)
		}
		if !reflect.DeepEqual(res.Output, serial.Output) {
			t.Fatalf("workers=%d: output differs from serial", workers)
		}
		if res.Stats.HashRounds != serial.Stats.HashRounds ||
			res.Stats.PairwiseRounds != serial.Stats.PairwiseRounds {
			t.Fatalf("workers=%d: rounds differ: %d/%d vs %d/%d", workers,
				res.Stats.HashRounds, res.Stats.PairwiseRounds,
				serial.Stats.HashRounds, serial.Stats.PairwiseRounds)
		}
		if !reflect.DeepEqual(res.Stats.HashEvals, serial.Stats.HashEvals) {
			t.Fatalf("workers=%d: hash evals differ", workers)
		}
		if res.Stats.Workers != workers {
			t.Fatalf("workers=%d: stats report %d workers", workers, res.Stats.Workers)
		}
	}
}

// TestApplyHashCrossThresholdDeterminism drives the same input through
// the serial and parallel key-precompute paths of ApplyHashOpt by
// moving the threshold across the input size, with and without a hash
// cache, and demands identical partitions (run under -race in CI).
func TestApplyHashCrossThresholdDeterminism(t *testing.T) {
	ds := clusteredSetDataset(t, []int{50, 40, 30, 20, 10}, 67)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	recs := allRecords(ds.Len())
	hf := plan.Funcs[0]

	for _, cached := range []bool{true, false} {
		name := "stream"
		if cached {
			name = "cache"
		}
		run := func(threshold, workers int) ([][]int32, *core.HashStats) {
			restore := core.SetParallelHashThreshold(threshold)
			defer restore()
			var cache *core.Cache
			if cached {
				cache = core.NewCache(ds, len(plan.Hashers))
			}
			st := &core.HashStats{}
			return core.ApplyHashOpt(ds, plan, hf, cache, recs, core.HashOptions{Workers: workers}, st), st
		}
		serial, _ := run(len(recs)+1, 4) // threshold above input: serial precompute
		atEdge, _ := run(len(recs), 4)   // threshold at input size: parallel
		parallel, pst := run(1, 4)       // threshold below: parallel
		serialW, _ := run(1, 1)          // parallel threshold but one worker
		for i, got := range [][][]int32{atEdge, parallel, serialW} {
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s: variant %d differs from serial partition", name, i)
			}
		}
		if !cached {
			// Streaming runs must still count their base-hash evals.
			sum := int64(0)
			for _, e := range pst.Evals {
				sum += e
			}
			if sum == 0 {
				t.Fatalf("%s: no hash evals recorded without a cache", name)
			}
		}
	}
}
