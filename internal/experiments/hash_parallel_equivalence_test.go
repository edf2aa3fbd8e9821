package experiments

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/record"
)

// sliceBenchmark truncates a benchmark dataset to at most n records so
// full Filter runs stay fast while still exercising the real rule
// families and designed plans.
func sliceBenchmark(b *datasets.Benchmark, n int) *datasets.Benchmark {
	if b.Dataset.Len() <= n {
		return b
	}
	ds := &record.Dataset{Name: b.Dataset.Name, Records: b.Dataset.Records[:n]}
	if b.Dataset.Truth != nil {
		ds.Truth = b.Dataset.Truth[:n]
	}
	return &datasets.Benchmark{Dataset: ds, Rule: b.Rule}
}

// TestParallelHashEquivalenceOnBuilders runs the full Adaptive LSH
// filter on a slice of each paper dataset builder (Cora, SpotSigs,
// PopularImages) with the parallel hash stage at Workers 1/2/4/8, with
// and without the hash cache, forcing the parallel path with
// HashMinParallel=1. Clusters, output and HashEvals must be
// byte-identical to the serial run. The hash-stage share of ModelCost
// (ModelCost minus the PairsComputed*CostP pairwise share) must agree
// to float tolerance; when the pairwise stage stayed serial for both
// runs (identical PairsComputed), the full ModelCost must match
// exactly, since the two runs then perform the same additions in the
// same order.
func TestParallelHashEquivalenceOnBuilders(t *testing.T) {
	if testing.Short() {
		t.Skip("full filter sweeps")
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
		plan, err := p.Plan(b, defaultSeq())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, disableCache := range []bool{false, true} {
			mode := "cache"
			if disableCache {
				mode = "nocache"
			}
			var serial *core.Result
			for _, workers := range []int{1, 2, 4, 8} {
				label := fmt.Sprintf("%s/%s/workers=%d", name, mode, workers)
				res, err := core.Filter(b.Dataset, plan, core.Options{
					K: 5, Workers: workers, HashMinParallel: 1,
					DisableHashCache: disableCache,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if workers == 1 {
					serial = res
					continue
				}
				if !reflect.DeepEqual(res.Clusters, serial.Clusters) {
					t.Errorf("%s: clusters differ from serial", label)
				}
				if !reflect.DeepEqual(res.Output, serial.Output) {
					t.Errorf("%s: output differs from serial", label)
				}
				if !reflect.DeepEqual(res.Stats.HashEvals, serial.Stats.HashEvals) {
					t.Errorf("%s: HashEvals %v != serial %v",
						label, res.Stats.HashEvals, serial.Stats.HashEvals)
				}
				if res.Stats.HashRounds != serial.Stats.HashRounds {
					t.Errorf("%s: HashRounds %d != serial %d",
						label, res.Stats.HashRounds, serial.Stats.HashRounds)
				}
				hashCost := res.Stats.ModelCost - float64(res.Stats.PairsComputed)*plan.Cost.CostP
				serialHashCost := serial.Stats.ModelCost - float64(serial.Stats.PairsComputed)*plan.Cost.CostP
				if diff := math.Abs(hashCost - serialHashCost); diff > 1e-9*math.Max(1, math.Abs(serialHashCost)) {
					t.Errorf("%s: hash-stage ModelCost %v != serial %v",
						label, hashCost, serialHashCost)
				}
				if res.Stats.PairsComputed == serial.Stats.PairsComputed &&
					res.Stats.ModelCost != serial.Stats.ModelCost {
					t.Errorf("%s: ModelCost %v != serial %v with equal PairsComputed",
						label, res.Stats.ModelCost, serial.Stats.ModelCost)
				}
			}
		}
	}
}
