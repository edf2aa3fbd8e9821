package blocking_test

import (
	"testing"

	"github.com/topk-er/adalsh/internal/blocking"
	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

func testDataset(sizes []int, seed uint64) *record.Dataset {
	ds := &record.Dataset{Name: "b"}
	rng := xhash.NewRNG(seed)
	for ent, size := range sizes {
		base := make([]uint64, 40)
		for i := range base {
			base[i] = rng.Uint64()
		}
		for r := 0; r < size; r++ {
			elems := make([]uint64, 0, 40)
			for _, e := range base {
				if rng.Float64() < 0.92 {
					elems = append(elems, e)
				}
			}
			ds.Add(ent, record.NewSet(elems))
		}
	}
	return ds
}

func rule() distance.Rule {
	return distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
}

func TestPairsFindsTruth(t *testing.T) {
	ds := testDataset([]int{12, 7, 4, 2}, 3)
	res, err := blocking.Pairs(ds, rule(), 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	want := ds.TopKRecords(2)
	if len(res.Output) != len(want) {
		t.Fatalf("output size %d, want %d", len(res.Output), len(want))
	}
	for i, r := range want {
		if int(res.Output[i]) != r {
			t.Fatalf("output mismatch at %d", i)
		}
	}
	if res.Stats.PairsComputed == 0 {
		t.Fatal("Pairs computed no distances")
	}
}

func TestLSHXAgreesWithPairs(t *testing.T) {
	ds := testDataset([]int{15, 9, 5, 3, 2}, 7)
	exact, err := blocking.Pairs(ds, rule(), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []int{160, 640} {
		res, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: x, K: 3, Seed: 11})
		if err != nil {
			t.Fatalf("LSH%d: %v", x, err)
		}
		if len(res.Output) != len(exact.Output) {
			t.Fatalf("LSH%d output size %d, want %d", x, len(res.Output), len(exact.Output))
		}
		for i := range exact.Output {
			if res.Output[i] != exact.Output[i] {
				t.Fatalf("LSH%d output differs from Pairs at %d", x, i)
			}
		}
		// All returned clusters are verified.
		for _, c := range res.Clusters {
			if !c.ByPairwise {
				t.Fatalf("LSH%d returned an unverified cluster", x)
			}
		}
	}
}

func TestLSHXnPSkipsVerification(t *testing.T) {
	ds := testDataset([]int{10, 6, 3}, 5)
	res, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: 320, K: 2, SkipPairwise: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PairsComputed != 0 {
		t.Fatalf("nP variant computed %d pairs", res.Stats.PairsComputed)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("clusters = %d", len(res.Clusters))
	}
	for _, c := range res.Clusters {
		if c.ByPairwise {
			t.Fatal("nP cluster marked verified")
		}
	}
}

func TestLSHXHashWorkIsLinear(t *testing.T) {
	ds := testDataset([]int{10, 5}, 9)
	const x = 160
	res, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: x, K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(x) * int64(ds.Len())
	if res.Stats.HashEvals[0] != want {
		t.Fatalf("hash evals = %d, want exactly %d (X per record)", res.Stats.HashEvals[0], want)
	}
}

func TestLSHXArgumentErrors(t *testing.T) {
	ds := testDataset([]int{4}, 1)
	if _, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: 0, K: 1}); err == nil {
		t.Error("accepted X=0")
	}
	if _, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: 10, K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := blocking.Pairs(ds, rule(), 0, 0, 1); err == nil {
		t.Error("Pairs accepted K=0")
	}
	// LSHXWithPlan rejects multi-level plans.
	plan, err := core.DesignPlan(ds, rule(), core.SequenceConfig{Levels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := blocking.LSHXWithPlan(ds, rule(), plan, blocking.LSHXOptions{X: 20, K: 1}); err == nil {
		t.Error("accepted multi-level plan")
	}
}

func TestLSHXReturnClusters(t *testing.T) {
	ds := testDataset([]int{8, 6, 4, 3, 2}, 13)
	res, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: 320, K: 2, ReturnClusters: 4, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("clusters = %d, want 4", len(res.Clusters))
	}
}

// TestLSHXEarlyTermination checks optimization (1) of Section 6.1.1:
// once k verified clusters dominate everything unverified, LSH-X stops
// without verifying the remaining (small) candidate clusters.
func TestLSHXEarlyTermination(t *testing.T) {
	// One big entity plus many singletons: after verifying the big
	// cluster, every remaining candidate is smaller, so exactly the
	// clusters needed should pass through P.
	sizes := make([]int, 41)
	sizes[0] = 30
	for i := 1; i < len(sizes); i++ {
		sizes[i] = 1
	}
	ds := testDataset(sizes, 19)
	res, err := blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: 320, K: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 1 || res.Clusters[0].Size() != 30 {
		t.Fatalf("top cluster: %+v", res.Clusters)
	}
	// Far fewer verification rounds than stage-one clusters (41+).
	if res.Stats.PairwiseRounds > 5 {
		t.Errorf("%d pairwise rounds; early termination not effective", res.Stats.PairwiseRounds)
	}
}

func TestPairsEmptyDataset(t *testing.T) {
	res, err := blocking.Pairs(&record.Dataset{}, rule(), 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Fatal("clusters from empty dataset")
	}
}

// TestPairwiseMergesMatchCounter: the baselines account their P rounds
// with core's Stats.AddPairwise, so Stats.PairwiseMerges is filled as
// in core.Filter. Pairs hashes nothing, so its PairwiseMerges equals
// the merges counter; LSH-X's counter adds stage one's hash merges.
// Both read 0 when the baselines kept their own copy of the
// bookkeeping.
func TestPairwiseMergesMatchCounter(t *testing.T) {
	ds := testDataset([]int{12, 7, 4, 2}, 3)
	for _, workers := range []int{1, 4} {
		col := obs.NewCollector()
		res, err := blocking.PairsObs(ds, rule(), 2, 0, workers, col)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Stats.PairwiseMerges, col.Counter(obs.CtrMerges); got != want || got == 0 {
			t.Errorf("workers=%d: Pairs PairwiseMerges %d, merges counter %d", workers, got, want)
		}

		col = obs.NewCollector()
		res, err = blocking.LSHX(ds, rule(), blocking.LSHXOptions{X: 320, K: 2, Seed: 4, Workers: workers, Obs: col})
		if err != nil {
			t.Fatal(err)
		}
		if got, total := res.Stats.PairwiseMerges, col.Counter(obs.CtrMerges); got == 0 || got > total {
			t.Errorf("workers=%d: LSH-X PairwiseMerges %d, merges counter %d", workers, got, total)
		}
	}
}
