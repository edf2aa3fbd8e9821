package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/shard"
)

// TestCompactionPreservesCacheState: a run compacts its signature
// caches after its last round, and compaction may only move prefixes.
// On a 600-record slice of the Cora, SpotSigs and Images datasets, at
// workers {1, 4}, through the single engine and the sharded engine at
// shards {1, 4}, every cache's State after the run must equal its
// State at the run's last OnRound call (the last emission, after the
// last round and before the compaction). Each dataset must see at
// least one cache compacted: dead bytes at the last round, none after
// the run.
func TestCompactionPreservesCacheState(t *testing.T) {
	if testing.Short() {
		t.Skip("full filter sweeps")
	}
	p := NewProvider(42)
	benches := map[string]*datasets.Benchmark{
		"cora":     p.Cora(1),
		"spotsigs": p.SpotSigs(1, 0.4),
		"images":   p.Images("1.05", 15),
	}
	for name, full := range benches {
		b := sliceBenchmark(full, 600)
		plan, err := p.Plan(b, defaultSeq())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		compacted := 0
		for _, workers := range []int{1, 4} {
			for _, shards := range []int{0, 1, 4} {
				label := fmt.Sprintf("%s/workers=%d/shards=%d", name, workers, shards)
				var caches func() []*core.Cache
				var run func(opts core.Options) error
				if shards == 0 {
					label = fmt.Sprintf("%s/workers=%d/single", name, workers)
					cache := core.NewCache(b.Dataset, len(plan.Hashers))
					caches = func() []*core.Cache { return []*core.Cache{cache} }
					run = func(opts core.Options) error {
						opts.Cache = cache
						_, err := core.Filter(b.Dataset, plan, opts)
						return err
					}
				} else {
					eng, err := shard.New(b.Dataset, shard.Options{Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					caches = eng.Caches
					run = func(opts core.Options) error {
						return eng.FilterIncremental(plan, opts, func(core.Cluster) bool { return true }, nil)
					}
				}
				var before []*core.CacheState
				var deadBefore []int64
				err := run(core.Options{K: 5, Workers: workers, OnRound: func(ri core.RoundInfo) {
					if ri.Action != "final" {
						return
					}
					before, deadBefore = nil, nil
					for _, c := range caches() {
						before = append(before, c.State())
						deadBefore = append(deadBefore, c.DeadBytes())
					}
				}})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if len(before) != len(caches()) {
					t.Fatalf("%s: captured %d states of %d caches", label, len(before), len(caches()))
				}
				for i, c := range caches() {
					if !reflect.DeepEqual(c.State(), before[i]) {
						t.Errorf("%s: cache %d State changed across the run's compaction", label, i)
					}
					if deadBefore[i] > 0 && c.DeadBytes() == 0 {
						compacted++
					}
				}
			}
		}
		if compacted == 0 {
			t.Errorf("%s: no run compacted a cache", name)
		}
	}
}
