package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/shard"
)

// stripBoundaryCounters removes the counters only the sharded engine
// reports, so the remainder can be compared one-to-one against a
// single-engine run.
func stripBoundaryCounters(ctrs map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(ctrs))
	for k, v := range ctrs {
		switch k {
		case "boundary_keys", "boundary_pairs", "reconcile_merges":
			continue
		}
		out[k] = v
	}
	return out
}

// TestShardedEquivalenceOnBuilders is the scale-out counterpart of the
// parallel-hash equivalence suite: on a slice of each paper dataset
// builder it runs the sharded engine (internal/shard) against the
// single engine at shards {1, 2, 8} x workers {1, 4}. Clusters, output, HashEvals,
// PairsComputed, ModelCost and every shared observability counter must
// be byte-identical — partitioning may only change where work runs,
// never what the filter computes. The pairwise stage is pinned serial
// (as in the sibling suites) so counter equality is exact.
func TestShardedEquivalenceOnBuilders(t *testing.T) {
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
		for _, workers := range []int{1, 4} {
			col := obs.NewCollector()
			single, err := core.Filter(b.Dataset, plan, core.Options{
				K: 5, Workers: workers,
				PairwiseMinPairs: 1 << 62,
				Obs:              col,
			})
			if err != nil {
				t.Fatalf("%s/workers=%d: single engine: %v", name, workers, err)
			}
			singleCtrs := col.Counters()
			for _, shards := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/workers=%d/shards=%d", name, workers, shards)
				scol := obs.NewCollector()
				sharded, err := shard.Filter(b.Dataset, plan, shard.Options{
					Shards: shards, K: 5, Workers: workers,
					PairwiseMinPairs: 1 << 62,
					Obs:              scol,
				})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !reflect.DeepEqual(sharded.Clusters, single.Clusters) {
					t.Errorf("%s: clusters differ from single engine", label)
				}
				if !reflect.DeepEqual(sharded.Output, single.Output) {
					t.Errorf("%s: output differs from single engine", label)
				}
				if !reflect.DeepEqual(sharded.Stats.HashEvals, single.Stats.HashEvals) {
					t.Errorf("%s: HashEvals %v != single %v", label, sharded.Stats.HashEvals, single.Stats.HashEvals)
				}
				if sharded.Stats.PairsComputed != single.Stats.PairsComputed {
					t.Errorf("%s: PairsComputed %d != single %d", label, sharded.Stats.PairsComputed, single.Stats.PairsComputed)
				}
				if sharded.Stats.ModelCost != single.Stats.ModelCost {
					t.Errorf("%s: ModelCost %v != single %v", label, sharded.Stats.ModelCost, single.Stats.ModelCost)
				}
				if got := stripBoundaryCounters(scol.Counters()); !reflect.DeepEqual(got, singleCtrs) {
					t.Errorf("%s: obs counters differ:\n  sharded: %v\n  single:  %v", label, got, singleCtrs)
				}
			}
		}
	}
}

// TestShardedCounterIdentity verifies the reconcile accounting
// identities the sharded engine's byte-identical counters rest on:
// summed per-shard collisions plus boundary pairs equal the single
// engine's bucket_collisions, summed per-shard merges plus reconcile
// merges its merges, and summed per-shard hash evaluations its
// hash_evals — sum over shards + reconcile = single-engine counters.
func TestShardedCounterIdentity(t *testing.T) {
	p := NewProvider(42)
	b := sliceBenchmark(p.Cora(1), 600)
	plan, err := p.Plan(b, defaultSeq())
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	if _, err := core.Filter(b.Dataset, plan, core.Options{
		K: 5, Workers: 1, PairwiseMinPairs: 1 << 62, Obs: col,
	}); err != nil {
		t.Fatal(err)
	}
	single := col.Counters()

	for _, shards := range []int{2, 4, 8} {
		eng, err := shard.New(b.Dataset, shard.Options{
			Shards: shards, K: 5, Workers: 4, PairwiseMinPairs: 1 << 62,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Filter(plan); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var coll, merges, evals, owned int64
		for _, st := range eng.PerShard() {
			coll += st.Collisions
			merges += st.Merges
			evals += st.HashEvals
			owned += int64(st.Records)
		}
		bd := eng.Boundary()
		if got, want := coll+bd.Pairs, single["bucket_collisions"]; got != want {
			t.Errorf("shards=%d: per-shard collisions %d + boundary pairs %d = %d, single engine %d",
				shards, coll, bd.Pairs, got, want)
		}
		// The merges counter spans both stages: per-shard hash merges +
		// reconcile merges account for the hash rounds, pairwise rounds
		// run unsharded and contribute their merges unchanged.
		if got, want := merges+bd.Merges+eng.PairwiseMerges(), single["merges"]; got != want {
			t.Errorf("shards=%d: per-shard merges %d + reconcile merges %d + pairwise merges %d = %d, single engine %d",
				shards, merges, bd.Merges, eng.PairwiseMerges(), got, want)
		}
		if got, want := evals, single["hash_evals"]; got != want {
			t.Errorf("shards=%d: per-shard hash evals sum %d, single engine %d", shards, got, want)
		}
		if owned != int64(b.Dataset.Len()) {
			t.Errorf("shards=%d: shards own %d records, dataset has %d", shards, owned, b.Dataset.Len())
		}
		if bd.Pairs < bd.Keys {
			t.Errorf("shards=%d: boundary pairs %d < boundary keys %d", shards, bd.Pairs, bd.Keys)
		}
		if shards > 1 && bd.Keys == 0 {
			t.Errorf("shards=%d: no boundary keys on a connected dataset — reconcile never ran", shards)
		}
	}
}

// TestShardedFilterRace hammers concurrent shard filtering: several
// goroutines each run their own sharded engine (8 shards, 4 workers —
// so the per-round shard scans genuinely overlap) over the same
// read-only dataset. Run with -race this validates the concurrency
// contract: per-shard state is private, the dataset and plan are only
// read, and the reconcile pass is single-goroutine. All runs must
// agree with each other byte-for-byte.
func TestShardedFilterRace(t *testing.T) {
	p := NewProvider(42)
	b := sliceBenchmark(p.SpotSigs(1, 0.4), 600)
	plan, err := p.Plan(b, defaultSeq())
	if err != nil {
		t.Fatal(err)
	}
	const runs = 4
	results := make([]*core.Result, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = shard.Filter(b.Dataset, plan, shard.Options{
				Shards: 8, K: 5, Workers: 4, PairwiseMinPairs: 1 << 62,
			})
		}(i)
	}
	wg.Wait()
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if i > 0 {
			if !reflect.DeepEqual(results[i].Clusters, results[0].Clusters) {
				t.Errorf("run %d: clusters differ from run 0", i)
			}
		}
	}
}
