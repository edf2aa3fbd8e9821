package experiments

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/shard"
)

// ophBenchmark returns the benchmark with every Jaccard leaf of its
// rule switched to the one-permutation family, same dataset.
func ophBenchmark(b *datasets.Benchmark) *datasets.Benchmark {
	return &datasets.Benchmark{Dataset: b.Dataset, Rule: distance.WithJaccardOPH(b.Rule)}
}

// TestOPHQualityDifferential is the quality half of the OPH
// equivalence story: the families produce different signatures by
// design, so instead of byte equality the filtering quality must hold
// up — Recall Gold and Precision Gold no more than 0.02 below classic
// MinHash on the paper datasets, at the same sequence configuration
// and k. The bound is one-sided because OPH is legitimately *better*
// on near-duplicate workloads: functions sharing a permutation block
// are positively correlated, so an AND-of-w table built from one
// block collides more readily for similar pairs, which lifts recall
// (observed: SpotSigs recall 1.00 vs classic 0.81 at identical plan
// shape) — a quality gain must not fail the suite. Cora exercises OPH
// under composite rules (And over a weighted average of two Jaccard
// fields plus a Jaccard threshold), SpotSigs the plain single-field
// rule.
func TestOPHQualityDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("full filter runs on the paper datasets")
	}
	p := NewProvider(42)
	benches := map[string]*datasets.Benchmark{
		"cora":     p.Cora(1),
		"spotsigs": p.SpotSigs(1, 0.4),
	}
	const k, khat = 5, 20
	for name, b := range benches {
		classic, err := p.RunAdaLSH(b, k, khat)
		if err != nil {
			t.Fatalf("%s classic: %v", name, err)
		}
		oph, err := p.RunAdaLSH(ophBenchmark(b), k, khat)
		if err != nil {
			t.Fatalf("%s oph: %v", name, err)
		}
		cg := metrics.Gold(b.Dataset, classic.Output, k)
		og := metrics.Gold(b.Dataset, oph.Output, k)
		t.Logf("%s: classic recall %.3f precision %.3f, oph recall %.3f precision %.3f",
			name, cg.Recall, cg.Precision, og.Recall, og.Precision)
		if og.Recall < cg.Recall-0.02 {
			t.Errorf("%s: oph recall %.3f more than 0.02 below classic %.3f", name, og.Recall, cg.Recall)
		}
		if og.Precision < cg.Precision-0.02 {
			t.Errorf("%s: oph precision %.3f more than 0.02 below classic %.3f", name, og.Precision, cg.Precision)
		}
	}
}

// TestOPHByteIdentity is the determinism half: within the OPH family
// one plan must filter byte-identically no matter how the work is
// scheduled — workers {1, 4} x shards {1, 4} all reproduce the
// reference run's clusters, output, HashEvals and observability
// counters. The pairwise stage is pinned serial as in
// the sibling equivalence suites so counter equality is exact.
func TestOPHByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full filter sweeps")
	}
	p := NewProvider(42)
	b := sliceBenchmark(ophBenchmark(p.SpotSigs(1, 0.4)), 600)
	plan, err := p.Plan(b, defaultSeq())
	if err != nil {
		t.Fatal(err)
	}
	refCol := obs.NewCollector()
	ref, err := core.Filter(b.Dataset, plan, core.Options{
		K: 5, Workers: 1, PairwiseMinPairs: 1 << 62, Obs: refCol,
	})
	if err != nil {
		t.Fatal(err)
	}
	refCtrs := refCol.Counters()
	for _, workers := range []int{1, 4} {
		for _, shards := range []int{1, 4} {
			label := fmt.Sprintf("workers=%d/shards=%d", workers, shards)
			col := obs.NewCollector()
			res, err := shard.Filter(b.Dataset, plan, shard.Options{
				Shards: shards, K: 5, Workers: workers,
				PairwiseMinPairs: 1 << 62, Obs: col,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !reflect.DeepEqual(res.Clusters, ref.Clusters) {
				t.Errorf("%s: clusters differ from the reference run", label)
			}
			if !reflect.DeepEqual(res.Output, ref.Output) {
				t.Errorf("%s: output differs from the reference run", label)
			}
			if !reflect.DeepEqual(res.Stats.HashEvals, ref.Stats.HashEvals) {
				t.Errorf("%s: HashEvals %v != reference %v", label, res.Stats.HashEvals, ref.Stats.HashEvals)
			}
			if got := stripBoundaryCounters(col.Counters()); !reflect.DeepEqual(got, refCtrs) {
				t.Errorf("%s: obs counters differ:\n  run: %v\n  ref: %v", label, got, refCtrs)
			}
		}
	}
}
