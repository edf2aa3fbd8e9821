package adalsh_test

import (
	"os"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
)

// Allocation budgets for the hashing hot loop, in allocs/op as
// measured by testing.Benchmark. The steady-state costs after the
// arena/open-addressing rework are ~30 (serial hash round), ~70
// (sharded hash round at 4 workers) and ~50 (full multi-level cache
// fill); the legacy layouts sat at ~340, ~1080 and ~17600 on the same
// workloads. The budgets leave 2-3x headroom for noise and harmless
// drift while still catching any regression back toward
// per-invocation tables or per-record slice churn.
const (
	serialHashAllocBudget   = 96
	parallelHashAllocBudget = 256
	shardedHashAllocBudget  = 160
	cacheFillAllocBudget    = 192
	// queryAllocBudget gates one point lookup at probes 2 on a SpotSigs
	// capture: 4 allocs/op with the kernel prepared at capture and
	// pooled scratch, 56 when every lookup prepared its own kernel and
	// collected candidates in maps.
	queryAllocBudget = 32
)

// TestAllocBudgetHashHotLoop is the allocation-bitrot gate for the
// hash stage and the signature cache. It is opt-in (set
// RUN_ALLOC_BUDGET=1; CI runs it in the bench smoke step) because
// testing.Benchmark re-runs the loops until timing stabilizes, which
// is too slow for the default test pass.
func TestAllocBudgetHashHotLoop(t *testing.T) {
	if os.Getenv("RUN_ALLOC_BUDGET") == "" {
		t.Skip("set RUN_ALLOC_BUDGET=1 to run the allocation-budget gate")
	}
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]int32, bench.Dataset.Len())
	for i := range recs {
		recs[i] = int32(i)
	}

	check := func(name string, got int64, budget int64) {
		if got > budget {
			t.Errorf("%s: %d allocs/op exceeds the checked-in budget of %d — "+
				"the hashing hot loop regressed toward per-invocation allocation "+
				"(see DESIGN.md, memory layout); if the growth is intentional, "+
				"re-measure and raise the budget in alloc_budget_test.go",
				name, got, budget)
		} else {
			t.Logf("%s: %d allocs/op (budget %d)", name, got, budget)
		}
	}

	// Serial hash round over a pooled table set, streaming signatures —
	// the per-round steady state of FilterIncremental's small clusters.
	pool := core.NewHashPool()
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st core.HashStats
			core.ApplyHashOpt(bench.Dataset, plan, plan.Funcs[0], nil, recs,
				core.HashOptions{Workers: 1, MinParallel: 1, Pool: pool}, &st)
		}
	})
	check("serial hash round", res.AllocsPerOp(), serialHashAllocBudget)

	// Sharded parallel round: worker dispatch adds goroutine and
	// bookkeeping allocations, but tables, key matrix, scratches and
	// edge lists all come from the pool.
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st core.HashStats
			core.ApplyHashOpt(bench.Dataset, plan, plan.Funcs[0], nil, recs,
				core.HashOptions{Workers: 4, Shards: 4, MinParallel: 1, Pool: pool}, &st)
		}
	})
	check("parallel hash round", res.AllocsPerOp(), parallelHashAllocBudget)

	// Sharded hash round with boundary export — the per-shard steady
	// state of the scale-out engine (internal/shard). On top of the
	// serial round it allocates only the returned boundary structures
	// (bucket lists and representatives), which is a per-round output,
	// not per-record churn. The engine releases the kept bucket tables
	// when its reconcile ends; so does each op here.
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var st core.HashStats
			_, _, kept := core.ApplyHashExport(bench.Dataset, plan, plan.Funcs[0], nil, recs, nil, pool, &st)
			kept.Release(pool)
		}
	})
	check("sharded hash round (boundary export)", res.AllocsPerOp(), shardedHashAllocBudget)

	// Full multi-level arena-cache fill: every record's prefix grown
	// through every plan level, one fresh cache per op.
	res = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := core.NewCache(bench.Dataset, len(plan.Hashers))
			for _, hf := range plan.Funcs {
				for rec := 0; rec < bench.Dataset.Len(); rec++ {
					for h, n := range hf.FuncsPerHasher {
						if n > 0 {
							c.Ensure(plan, h, rec, n)
						}
					}
				}
			}
		}
	})
	check("arena cache fill", res.AllocsPerOp(), cacheFillAllocBudget)
}

// TestAllocBudgetQuery is the allocation-bitrot gate for point lookups:
// a lookup may allocate its result and its probe's kernel form, not
// per-candidate or per-table scratch. Opt-in like
// TestAllocBudgetHashHotLoop.
func TestAllocBudgetQuery(t *testing.T) {
	if os.Getenv("RUN_ALLOC_BUDGET") == "" {
		t.Skip("set RUN_ALLOC_BUDGET=1 to run the allocation-budget gate")
	}
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ix := &core.QueryIndex{}
	if _, err := core.Filter(bench.Dataset, plan, core.Options{K: 10, Capture: ix}); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Query(&bench.Dataset.Records[i%bench.Dataset.Len()], 3, core.QueryOptions{Probes: 2}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got := res.AllocsPerOp(); got > queryAllocBudget {
		t.Errorf("point lookup: %d allocs/op exceeds the checked-in budget of %d — "+
			"lookups regressed toward per-call kernels or scratch (see DESIGN.md, "+
			"online queries); if the growth is intentional, re-measure and raise "+
			"the budget in alloc_budget_test.go", got, queryAllocBudget)
	} else {
		t.Logf("point lookup: %d allocs/op (budget %d)", got, queryAllocBudget)
	}
}
