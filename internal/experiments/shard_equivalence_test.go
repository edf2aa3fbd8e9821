package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
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

// shardedFilter runs core's loop to completion with the hash rounds of
// a new sharded engine over ds at the given shard count.
func shardedFilter(ds *record.Dataset, plan *core.Plan, shards int, opts core.Options) (*core.Result, *shard.Engine, error) {
	eng, err := shard.New(ds, shard.Options{Shards: shards})
	if err != nil {
		return nil, nil, err
	}
	res, err := core.Collect(func(emit func(core.Cluster) bool, st *core.Stats) error {
		return eng.FilterIncremental(plan, opts, emit, st)
	})
	return res, eng, err
}

// earlyStop runs an incremental filter whose emit stops it after the
// second cluster, returning what it emitted and its stats.
func earlyStop(run func(emit func(core.Cluster) bool, stats *core.Stats) error) ([]core.Cluster, core.Stats, error) {
	var got []core.Cluster
	var st core.Stats
	err := run(func(c core.Cluster) bool {
		got = append(got, c)
		return len(got) < 2
	}, &st)
	return got, st, err
}

// TestShardedEquivalenceOnBuilders is the scale-out counterpart of the
// parallel-hash equivalence suite: on a slice of each paper dataset
// builder it runs the sharded engine (internal/shard) against the
// single engine at shards {1, 2, 8} x workers {1, 4}. Clusters, output, HashEvals,
// PairsComputed, ModelCost, the round and kernel counts, the OnRound
// sequence and every shared observability counter must be
// byte-identical — partitioning may only change where work runs, never
// what the filter computes. Each row also stops an incremental run
// after its second cluster, which must emit and count the same as the
// single engine's. The pairwise stage is pinned serial (as in the
// sibling suites) so counter equality is exact.
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
			var singleRounds []core.RoundInfo
			single, err := core.Filter(b.Dataset, plan, core.Options{
				K: 5, Workers: workers,
				PairwiseMinPairs: 1 << 62,
				Obs:              col,
				OnRound:          func(ri core.RoundInfo) { singleRounds = append(singleRounds, ri) },
			})
			if err != nil {
				t.Fatalf("%s/workers=%d: single engine: %v", name, workers, err)
			}
			singleCtrs := col.Counters()
			incOpts := core.Options{K: 5, Workers: workers, PairwiseMinPairs: 1 << 62}
			wantEarly, wantEarlyStats, err := earlyStop(func(emit func(core.Cluster) bool, st *core.Stats) error {
				return core.FilterIncremental(b.Dataset, plan, incOpts, emit, st)
			})
			if err != nil {
				t.Fatalf("%s/workers=%d: single engine, early stop: %v", name, workers, err)
			}
			if len(wantEarly) != 2 {
				t.Fatalf("%s/workers=%d: single engine emitted %d clusters before stopping, want 2", name, workers, len(wantEarly))
			}
			for _, shards := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/workers=%d/shards=%d", name, workers, shards)
				scol := obs.NewCollector()
				var shardedRounds []core.RoundInfo
				sharded, _, err := shardedFilter(b.Dataset, plan, shards, core.Options{
					K: 5, Workers: workers,
					PairwiseMinPairs: 1 << 62,
					Obs:              scol,
					OnRound:          func(ri core.RoundInfo) { shardedRounds = append(shardedRounds, ri) },
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
				if !reflect.DeepEqual(shardedRounds, singleRounds) {
					t.Errorf("%s: OnRound sequences differ:\n  sharded: %v\n  single:  %v", label, shardedRounds, singleRounds)
				}
				gs, ws := sharded.Stats, single.Stats
				if gs.HashRounds != ws.HashRounds || gs.PairwiseRounds != ws.PairwiseRounds {
					t.Errorf("%s: rounds hash %d pairwise %d, single %d and %d", label, gs.HashRounds, gs.PairwiseRounds, ws.HashRounds, ws.PairwiseRounds)
				}
				if gs.PrefilterRejects != ws.PrefilterRejects || gs.EarlyExits != ws.EarlyExits {
					t.Errorf("%s: kernel prefilter rejects %d early exits %d, single %d and %d",
						label, gs.PrefilterRejects, gs.EarlyExits, ws.PrefilterRejects, ws.EarlyExits)
				}
				if gs.Workers != ws.Workers {
					t.Errorf("%s: Workers %d, single %d", label, gs.Workers, ws.Workers)
				}

				eng, err := shard.New(b.Dataset, shard.Options{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				gotEarly, gotEarlyStats, err := earlyStop(func(emit func(core.Cluster) bool, st *core.Stats) error {
					return eng.FilterIncremental(plan, incOpts, emit, st)
				})
				if err != nil {
					t.Fatalf("%s: early stop: %v", label, err)
				}
				if !reflect.DeepEqual(gotEarly, wantEarly) {
					t.Errorf("%s: early-stopped clusters differ from single engine", label)
				}
				if gotEarlyStats.HashRounds != wantEarlyStats.HashRounds || gotEarlyStats.PairwiseRounds != wantEarlyStats.PairwiseRounds {
					t.Errorf("%s: early stop rounds hash %d pairwise %d, single %d and %d", label,
						gotEarlyStats.HashRounds, gotEarlyStats.PairwiseRounds, wantEarlyStats.HashRounds, wantEarlyStats.PairwiseRounds)
				}
			}
		}
	}
}

// streamPhase is what one TopKClusters call of a stream produced: the
// result, the stream's obs counters so far and its CachedHashEvals.
type streamPhase struct {
	res    *core.Result
	ctrs   map[string]int64
	cached []int64
}

// TestShardedStreamEquivalenceOnBuilders is the stream form of
// TestShardedEquivalenceOnBuilders. Streams boot from one hand-built
// state, the way the serving benchmark boots its session: the designed
// plan, no cache and re-planning off, over the first half of a builder
// slice. One stream runs the single engine; the others have the
// sharded engine attached at shards {1, 2, 8}, each at workers {1, 4}.
// Every stream takes two TopKClusters phases, the second after the
// slice's other half arrived. Per phase the clusters, the output,
// HashEvals, PairsComputed, ModelCost, the round and kernel counts, the
// obs counters without the sharded engine's own and CachedHashEvals
// must be identical: with one plan, attaching a rounder may change
// where a stream's work runs, never what it computes.
func TestShardedStreamEquivalenceOnBuilders(t *testing.T) {
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
		half := b.Dataset.Len() / 2
		first := make([]int, half)
		for i := range first {
			first[i] = i
		}
		// run boots a stream, attaches shards > 0 of the sharded engine
		// and takes both phases.
		run := func(label string, workers, shards int) []streamPhase {
			st, err := core.RestoreStream(&core.StreamState{
				Rule: b.Rule, Config: core.SequenceConfig{Seed: p.Seed},
				Dataset: b.Dataset.Subset(name, first), Plan: plan,
				PlannedAt: half, ReplanGrowth: math.Inf(1),
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			col := obs.NewCollector()
			st.SetObs(col)
			st.SetWorkers(workers)
			if shards > 0 {
				if _, err := shard.Attach(st, shards); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			var phases []streamPhase
			for phase := 0; phase < 2; phase++ {
				if phase == 1 {
					for id := half; id < b.Dataset.Len(); id++ {
						st.AddWithTruth(b.Dataset.Truth[id], b.Dataset.Records[id].Fields...)
					}
				}
				res, err := st.TopKClusters(5, 0)
				if err != nil {
					t.Fatalf("%s/phase=%d: %v", label, phase, err)
				}
				phases = append(phases, streamPhase{res, stripBoundaryCounters(col.Counters()), st.CachedHashEvals()})
			}
			if st.Replans() != 0 {
				t.Errorf("%s: %d replans with re-planning off", label, st.Replans())
			}
			return phases
		}
		for _, workers := range []int{1, 4} {
			want := run(fmt.Sprintf("%s/workers=%d/single", name, workers), workers, 0)
			for _, shards := range []int{1, 2, 8} {
				label := fmt.Sprintf("%s/workers=%d/shards=%d", name, workers, shards)
				for phase, got := range run(label, workers, shards) {
					label := fmt.Sprintf("%s/phase=%d", label, phase)
					g, w := got.res, want[phase].res
					if !reflect.DeepEqual(g.Clusters, w.Clusters) {
						t.Errorf("%s: clusters differ from the single-engine stream", label)
					}
					if !reflect.DeepEqual(g.Output, w.Output) {
						t.Errorf("%s: output differs from the single-engine stream", label)
					}
					if !reflect.DeepEqual(g.Stats.HashEvals, w.Stats.HashEvals) {
						t.Errorf("%s: HashEvals %v != single %v", label, g.Stats.HashEvals, w.Stats.HashEvals)
					}
					if g.Stats.PairsComputed != w.Stats.PairsComputed {
						t.Errorf("%s: PairsComputed %d != single %d", label, g.Stats.PairsComputed, w.Stats.PairsComputed)
					}
					if g.Stats.ModelCost != w.Stats.ModelCost {
						t.Errorf("%s: ModelCost %v != single %v", label, g.Stats.ModelCost, w.Stats.ModelCost)
					}
					if g.Stats.HashRounds != w.Stats.HashRounds || g.Stats.PairwiseRounds != w.Stats.PairwiseRounds {
						t.Errorf("%s: rounds hash %d pairwise %d, single %d and %d", label,
							g.Stats.HashRounds, g.Stats.PairwiseRounds, w.Stats.HashRounds, w.Stats.PairwiseRounds)
					}
					if g.Stats.PrefilterRejects != w.Stats.PrefilterRejects || g.Stats.EarlyExits != w.Stats.EarlyExits {
						t.Errorf("%s: kernel prefilter rejects %d early exits %d, single %d and %d", label,
							g.Stats.PrefilterRejects, g.Stats.EarlyExits, w.Stats.PrefilterRejects, w.Stats.EarlyExits)
					}
					if !reflect.DeepEqual(got.ctrs, want[phase].ctrs) {
						t.Errorf("%s: obs counters differ:\n  sharded: %v\n  single:  %v", label, got.ctrs, want[phase].ctrs)
					}
					if got.cached == nil || !reflect.DeepEqual(got.cached, want[phase].cached) {
						t.Errorf("%s: CachedHashEvals %v, single %v", label, got.cached, want[phase].cached)
					}
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
		res, eng, err := shardedFilter(b.Dataset, plan, shards, core.Options{
			K: 5, Workers: 4, PairwiseMinPairs: 1 << 62,
		})
		if err != nil {
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
		if got, want := merges+bd.Merges+res.Stats.PairwiseMerges, single["merges"]; got != want {
			t.Errorf("shards=%d: per-shard merges %d + reconcile merges %d + pairwise merges %d = %d, single engine %d",
				shards, merges, bd.Merges, res.Stats.PairwiseMerges, got, want)
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
			results[i], _, errs[i] = shardedFilter(b.Dataset, plan, 8, core.Options{
				K: 5, Workers: 4, PairwiseMinPairs: 1 << 62,
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
