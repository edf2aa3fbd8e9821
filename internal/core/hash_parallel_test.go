package core_test

import (
	"reflect"
	"sync"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
)

// hashParallelDataset is shared by the parallel-insertion tests: a
// clustered set dataset big enough that every worker gets real work
// once MinParallel is lowered.
func hashParallelDataset(t testing.TB) ([]int, uint64) {
	t.Helper()
	return []int{80, 60, 50, 40, 30, 20, 10, 5, 3, 2}, 71
}

// TestHashShardedMatchesSerial is the central equivalence claim of the
// parallel hash stage: for every worker count, with and without a hash
// cache, the partition ApplyHashOpt produces is byte-identical to the
// one-goroutine run's, and the streamed eval counts agree.
func TestHashShardedMatchesSerial(t *testing.T) {
	sizes, seed := hashParallelDataset(t)
	ds := clusteredSetDataset(t, sizes, seed)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	recs := allRecords(ds.Len())

	for _, cached := range []bool{true, false} {
		name := "stream"
		if cached {
			name = "cache"
		}
		run := func(workers int) ([][]int32, *core.HashStats) {
			var cache *core.Cache
			if cached {
				cache = core.NewCache(ds, len(plan.Hashers))
			}
			st := &core.HashStats{}
			out := core.ApplyHashOpt(ds, plan, plan.Funcs[0], cache, recs,
				core.HashOptions{Workers: workers, MinParallel: 1}, st)
			return out, st
		}
		serial, sst := run(1)
		for _, workers := range []int{2, 4, 8} {
			got, st := run(workers)
			if !reflect.DeepEqual(got, serial) {
				t.Fatalf("%s: workers=%d partition differs from serial", name, workers)
			}
			if !cached && !reflect.DeepEqual(st.Evals, sst.Evals) {
				t.Fatalf("%s: workers=%d streamed evals %v != serial %v",
					name, workers, st.Evals, sst.Evals)
			}
		}
	}
}

// TestHashShardedRehashRounds drives the parallel machinery through the
// H_t -> H_{t+1} escalation: every function of the sequence is applied
// to the same cluster serially and at 4 workers, sharing one
// incrementally growing cache per mode, and the partitions and
// cumulative HashEvals must match round for round.
func TestHashShardedRehashRounds(t *testing.T) {
	sizes, seed := hashParallelDataset(t)
	ds := clusteredSetDataset(t, sizes, seed)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	recs := allRecords(ds.Len())

	serialCache := core.NewCache(ds, len(plan.Hashers))
	shardedCache := core.NewCache(ds, len(plan.Hashers))
	for _, hf := range plan.Funcs {
		serial := core.ApplyHashOpt(ds, plan, hf, serialCache, recs, core.HashOptions{Workers: 1}, nil)
		sharded := core.ApplyHashOpt(ds, plan, hf, shardedCache, recs,
			core.HashOptions{Workers: 4, MinParallel: 1}, nil)
		if !reflect.DeepEqual(sharded, serial) {
			t.Fatalf("H_%d: sharded partition differs from serial", hf.Seq)
		}
		if !reflect.DeepEqual(shardedCache.HashEvals(), serialCache.HashEvals()) {
			t.Fatalf("H_%d: cached evals %v != serial %v", hf.Seq,
				shardedCache.HashEvals(), serialCache.HashEvals())
		}
	}
}

// TestFilterHashParallelExactAccounting is the strict end-to-end
// equivalence: with the pairwise stage pinned serial (its PairsComputed
// is then worker-independent), a full Filter run with the parallel hash
// stage must reproduce the serial run bit for bit — clusters, output,
// HashEvals, PairsComputed and ModelCost — in both cache modes.
func TestFilterHashParallelExactAccounting(t *testing.T) {
	restore := core.SetPairwiseParallelThreshold(1 << 62)
	defer restore()
	sizes, seed := hashParallelDataset(t)
	ds := clusteredSetDataset(t, sizes, seed)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}

	for _, disableCache := range []bool{false, true} {
		name := "cache"
		if disableCache {
			name = "nocache"
		}
		serial, err := core.Filter(ds, plan, core.Options{K: 4, Workers: 1, DisableHashCache: disableCache})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 8} {
			res, err := core.Filter(ds, plan, core.Options{
				K: 4, Workers: workers, HashMinParallel: 1,
				DisableHashCache: disableCache,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !reflect.DeepEqual(res.Clusters, serial.Clusters) {
				t.Fatalf("%s workers=%d: clusters differ from serial", name, workers)
			}
			if !reflect.DeepEqual(res.Output, serial.Output) {
				t.Fatalf("%s workers=%d: output differs from serial", name, workers)
			}
			if !reflect.DeepEqual(res.Stats.HashEvals, serial.Stats.HashEvals) {
				t.Fatalf("%s workers=%d: HashEvals %v != serial %v",
					name, workers, res.Stats.HashEvals, serial.Stats.HashEvals)
			}
			if res.Stats.PairsComputed != serial.Stats.PairsComputed {
				t.Fatalf("%s workers=%d: PairsComputed %d != serial %d",
					name, workers, res.Stats.PairsComputed, serial.Stats.PairsComputed)
			}
			if res.Stats.ModelCost != serial.Stats.ModelCost {
				t.Fatalf("%s workers=%d: ModelCost %v != serial %v",
					name, workers, res.Stats.ModelCost, serial.Stats.ModelCost)
			}
			if res.Stats.HashRounds != serial.Stats.HashRounds ||
				res.Stats.PairwiseRounds != serial.Stats.PairwiseRounds {
				t.Fatalf("%s workers=%d: rounds differ", name, workers)
			}
		}
	}
}

// TestHashShardedInsertionRace hammers the parallel hash pipeline —
// concurrent key precompute, concurrent whole-table insertion with
// bucket reads/writes, concurrent Cache.Ensure over distinct records — from
// several goroutines at once, each with its own cache (the documented
// Cache contract). Run under -race in CI; every run must reproduce the
// serial partition.
func TestHashShardedInsertionRace(t *testing.T) {
	sizes, seed := hashParallelDataset(t)
	ds := clusteredSetDataset(t, sizes, seed)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	recs := allRecords(ds.Len())
	serial := core.ApplyHashOpt(ds, plan, plan.Funcs[0], nil, recs, core.HashOptions{Workers: 1}, nil)

	const goroutines = 4
	const iters = 3
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cache := core.NewCache(ds, len(plan.Hashers))
			for it := 0; it < iters; it++ {
				// Alternate cached and streaming invocations so both
				// key paths run concurrently with the table workers.
				var c *core.Cache
				if it%2 == 0 {
					c = cache
				}
				st := &core.HashStats{}
				got := core.ApplyHashOpt(ds, plan, plan.Funcs[0], c, recs,
					core.HashOptions{Workers: 4, MinParallel: 1}, st)
				if !reflect.DeepEqual(got, serial) {
					errs <- "goroutine partition differs from serial"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
