package adalsh_test

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	adalsh "github.com/topk-er/adalsh"
	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/experiments"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// benchProvider is shared across benchmarks so datasets, plans and
// Pairs baselines are generated once (they are deterministic).
var (
	benchProviderOnce sync.Once
	benchProvider     *experiments.Provider
)

func provider() *experiments.Provider {
	benchProviderOnce.Do(func() {
		benchProvider = experiments.NewProvider(42)
	})
	return benchProvider
}

// benchFigure reruns one paper figure per iteration (quick sweeps).
// These are the macro-benchmarks that regenerate the evaluation; run
// cmd/paperbench for the full-sweep tables.
func benchFigure(b *testing.B, id string) {
	b.Helper()
	p := provider()
	b.ReportAllocs()
	// Warm the caches outside the timed region.
	b.StopTimer()
	if _, err := experiments.Run(p, id, true); err != nil {
		b.Fatal(err)
	}
	b.StartTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Run(p, id, true); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per figure of the paper's evaluation (Section 7 and
// Appendix E). Figure 10's panels are produced by the fig8a/fig9a
// runners (same runs, accuracy columns).
func BenchmarkFig7WZOptSelection(b *testing.B)      { benchFigure(b, "fig7") }
func BenchmarkFig8aCoraTimeVsK(b *testing.B)        { benchFigure(b, "fig8a") }
func BenchmarkFig8bCoraTimeVsSize(b *testing.B)     { benchFigure(b, "fig8b") }
func BenchmarkFig9aSpotSigsTimeVsK(b *testing.B)    { benchFigure(b, "fig9a") }
func BenchmarkFig9bSpotSigsTimeVsSize(b *testing.B) { benchFigure(b, "fig9b") }
func BenchmarkFig11PrecisionRecallVsKhat(b *testing.B) {
	benchFigure(b, "fig11")
}
func BenchmarkFig12ReductionAndSpeedup(b *testing.B)  { benchFigure(b, "fig12") }
func BenchmarkFig13MAPMAR(b *testing.B)               { benchFigure(b, "fig13") }
func BenchmarkFig14Recovery(b *testing.B)             { benchFigure(b, "fig14") }
func BenchmarkFig15LSHVariations(b *testing.B)        { benchFigure(b, "fig15") }
func BenchmarkFig16ImagesTime(b *testing.B)           { benchFigure(b, "fig16") }
func BenchmarkFig17ImagesF1(b *testing.B)             { benchFigure(b, "fig17") }
func BenchmarkFig20NPVariations(b *testing.B)         { benchFigure(b, "fig20") }
func BenchmarkFig21CostModelNoise(b *testing.B)       { benchFigure(b, "fig21") }
func BenchmarkFig22BudgetSelectionModes(b *testing.B) { benchFigure(b, "fig22") }

// Method-level macro-benchmarks on the SpotSigs workload, k = 10:
// the three methods the paper compares throughout.

func BenchmarkFilterAdaLSHSpotSigs(b *testing.B) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Filter(bench.Dataset, plan, core.Options{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterLSH1280SpotSigs(b *testing.B) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunLSHX(bench, 1280, 10, 0, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterPairsSpotSigs(b *testing.B) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := adalsh.FilterPairs(bench.Dataset, bench.Rule, adalsh.Config{K: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery measures the online point-query path: one index
// captured from a filter over the Cora workload, then one
// QueryIndex.Query per op (cycling through the dataset's records as
// probes). The per-op time is the full lookup — multi-probe bucket
// walks plus prepared-kernel verification of the candidates — and
// should sit well under 100us at this scale.
func BenchmarkQuery(b *testing.B) {
	p := provider()
	bench := p.Cora(1)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	ix := &core.QueryIndex{}
	if _, err := core.Filter(bench.Dataset, plan, core.Options{K: 10, Capture: ix}); err != nil {
		b.Fatal(err)
	}
	for _, probes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("probes=%d", probes), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Query(&bench.Dataset.Records[i%bench.Dataset.Len()], 3,
					core.QueryOptions{Probes: probes}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Micro-benchmarks of the substrates.

func BenchmarkMinHashFunction(b *testing.B) {
	elems := make([]uint64, 150)
	for i := range elems {
		elems[i] = uint64(i) * 2654435761
	}
	rec := &record.Record{Fields: []record.Field{record.NewSet(elems)}}
	h := lshfamily.NewMinHash(0, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(i&63, rec)
	}
}

func BenchmarkHyperplaneFunction(b *testing.B) {
	v := make(record.Vector, 125)
	for i := range v {
		v[i] = float64(i%7) / 7
	}
	rec := &record.Record{Fields: []record.Field{v}}
	h := lshfamily.NewHyperplane(0, 125, 64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Hash(i&63, rec)
	}
}

func BenchmarkJaccardDistance(b *testing.B) {
	a := make([]uint64, 150)
	c := make([]uint64, 150)
	for i := range a {
		a[i] = uint64(i) * 7919
		c[i] = uint64(i)*7919 + uint64(i%3)
	}
	sa, sc := record.NewSet(a), record.NewSet(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.JaccardSet(sa, sc)
	}
}

func BenchmarkCosineDistance(b *testing.B) {
	u := make(record.Vector, 125)
	v := make(record.Vector, 125)
	for i := range u {
		u[i] = float64(i % 11)
		v[i] = float64(i % 13)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		distance.CosineVec(u, v)
	}
}

func BenchmarkDesignPlanSpotSigs(b *testing.B) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DesignPlan(bench.Dataset, bench.Rule, core.SequenceConfig{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benchmarks: the same adaptive filtering with one design
// choice removed, quantifying its contribution (DESIGN.md §5).

func benchAblation(b *testing.B, opts core.Options) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	opts.K = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Filter(bench.Dataset, plan, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBaseline(b *testing.B) {
	benchAblation(b, core.Options{})
}

func BenchmarkAblationNoHashCache(b *testing.B) {
	benchAblation(b, core.Options{DisableHashCache: true})
}

func BenchmarkAblationNoTransitiveSkip(b *testing.B) {
	benchAblation(b, core.Options{DisableTransitiveSkip: true})
}

// BenchmarkPairwiseParallel measures the worker-pool pairwise stage on
// the SpotSigs workload across scales and worker counts. The workers=1
// rows are the serial baseline; compare ns/op within one scale for the
// parallel speedup (Work/Wall also appears in PairwiseStats). On a
// single-core machine every row degenerates to the serial path's
// throughput plus dispatch overhead.
func BenchmarkPairwiseParallel(b *testing.B) {
	p := provider()
	workerSet := []int{1, 2, 4}
	if gomax := runtime.GOMAXPROCS(0); gomax != 1 && gomax != 2 && gomax != 4 {
		workerSet = append(workerSet, gomax)
	}
	for _, scale := range []int{1, 2, 4} {
		bench := p.SpotSigs(scale, 0.4)
		recs := make([]int32, bench.Dataset.Len())
		for i := range recs {
			recs[i] = int32(i)
		}
		for _, w := range workerSet {
			b.Run(fmt.Sprintf("spotsigs%dx/workers=%d", scale, w), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_, st := core.ApplyPairwiseOpt(bench.Dataset, bench.Rule, recs, core.PairwiseOptions{Workers: w})
					b.ReportMetric(float64(st.PairsComputed), "pairs/op")
				}
			})
		}
	}
}

// kernelBenchDataset builds a mixed dataset for the match-kernel
// micro-benchmarks: field 0 dense vectors, field 1 overlapping sets,
// field 2 random fingerprints. Entities of four near-duplicates give
// the rules a realistic accept/reject mix.
func kernelBenchDataset(n, dim, width int) *record.Dataset {
	rng := xhash.NewRNG(99)
	ds := &record.Dataset{Name: "kernel-bench"}
	words := (width + 63) / 64
	for ent := 0; len(ds.Records) < n; ent++ {
		base := make(record.Vector, dim)
		for d := range base {
			base[d] = rng.NormFloat64()
		}
		elems := make([]uint64, 40)
		for i := range elems {
			elems[i] = uint64(rng.Intn(200))
		}
		w := make([]uint64, words)
		for i := range w {
			w[i] = rng.Uint64()
		}
		for r := 0; r < 4 && len(ds.Records) < n; r++ {
			vec := make(record.Vector, dim)
			copy(vec, base)
			vec[rng.Intn(dim)] += rng.NormFloat64()
			e2 := make([]uint64, len(elems))
			copy(e2, elems)
			e2[rng.Intn(len(e2))] = uint64(rng.Intn(200))
			w2 := make([]uint64, words)
			copy(w2, w)
			w2[rng.Intn(words)] ^= rng.Uint64() >> 58 // flip a few bits
			ds.Add(ent, vec, record.NewSet(e2), record.NewBits(w2, width))
		}
	}
	return ds
}

// opaqueBenchRule defeats distance.Prepare's type switch so the
// "naive" rows measure the pre-kernel per-pair Rule.Match path.
type opaqueBenchRule struct{ distance.Rule }

// BenchmarkMatchKernels compares the naive Rule.Match path against the
// prepared kernels (distance.Prepare) per metric and rule shape. One
// op is a full pass over all ordered pairs of the dataset; the ns/pair
// metric is the per-comparison cost. Cosine at dim 128 is the headline
// row: the prepared kernel hoists the norms and skips sqrt/acos.
func BenchmarkMatchKernels(b *testing.B) {
	const n, dim, width = 160, 128, 256
	ds := kernelBenchDataset(n, dim, width)
	recs := make([]int32, ds.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	cos := distance.Threshold{Field: 0, Metric: distance.Cosine{}, MaxDistance: 0.25}
	jac := distance.Threshold{Field: 1, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	euc := distance.Threshold{Field: 0, Metric: distance.Euclidean{Scale: 8}, MaxDistance: 0.3}
	ham := distance.Threshold{Field: 2, Metric: distance.Hamming{}, MaxDistance: 0.1}
	shapes := []struct {
		name string
		rule distance.Rule
	}{
		{"cosine", cos},
		{"jaccard", jac},
		{"euclidean", euc},
		{"hamming", ham},
		{"and", distance.And{cos, jac, ham}},
		{"weighted", distance.WeightedAverage{
			Fields:      []int{0, 1, 2},
			Metrics:     []distance.Metric{distance.Cosine{}, distance.Jaccard{}, distance.Hamming{}},
			Weights:     []float64{0.5, 0.3, 0.2},
			MaxDistance: 0.3,
		}},
	}
	pairs := ds.Len() * (ds.Len() - 1)
	var sink int
	for _, sh := range shapes {
		b.Run(sh.name+"/naive", func(b *testing.B) {
			k := distance.Prepare(ds, opaqueBenchRule{sh.rule}, recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for x := 0; x < ds.Len(); x++ {
					for y := 0; y < ds.Len(); y++ {
						if x != y && k.MatchIdx(x, y) {
							sink++
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
		b.Run(sh.name+"/prepared", func(b *testing.B) {
			k := distance.Prepare(ds, sh.rule, recs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for x := 0; x < ds.Len(); x++ {
					for y := 0; y < ds.Len(); y++ {
						if x != y && k.MatchIdx(x, y) {
							sink++
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

func BenchmarkApplyHashRoundOne(b *testing.B) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]int32, bench.Dataset.Len())
	for i := range recs {
		recs[i] = int32(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.ApplyHashOpt(bench.Dataset, plan, plan.Funcs[0], nil, recs, core.HashOptions{}, nil)
	}
}

// hashBenchDataset builds a synthetic set-valued dataset of n records
// in entities of ten near-duplicates each, sized so the parallel hash
// stage has real signature and insertion work per record.
func hashBenchDataset(n int) *record.Dataset {
	rng := xhash.NewRNG(7)
	ds := &record.Dataset{Name: fmt.Sprintf("synth-sets-%d", n)}
	for ent := 0; len(ds.Records) < n; ent++ {
		base := make([]uint64, 60)
		for i := range base {
			base[i] = rng.Uint64()
		}
		for r := 0; r < 10 && len(ds.Records) < n; r++ {
			elems := make([]uint64, len(base))
			copy(elems, base)
			for j := 0; j < 6; j++ {
				elems[rng.Intn(len(elems))] = rng.Uint64()
			}
			ds.Add(ent, record.NewSet(elems))
		}
	}
	return ds
}

// BenchmarkHashParallel measures the sharded hash stage (streaming
// ApplyHashOpt, round one of Algorithm 1) across scales and worker
// counts. The workers=1 rows are the serial baseline; compare ns/op
// within one scale for the parallel speedup (Work/Wall also splits in
// HashStats). MinParallel is forced to 1 so every parallel row actually
// runs the sharded pipeline regardless of input size. On a single-core
// machine every row degenerates to the serial path's throughput plus
// dispatch overhead.
func BenchmarkHashParallel(b *testing.B) {
	p := provider()
	workerSet := []int{1, 2, 4}
	if gomax := runtime.GOMAXPROCS(0); gomax != 1 && gomax != 2 && gomax != 4 {
		workerSet = append(workerSet, gomax)
	}
	sp1 := p.SpotSigs(1, 0.4)
	sp4 := p.SpotSigs(4, 0.4)
	synth := hashBenchDataset(10000)
	workloads := []struct {
		name string
		ds   *record.Dataset
		rule distance.Rule
	}{
		{"spotsigs1x", sp1.Dataset, sp1.Rule},
		{"spotsigs4x", sp4.Dataset, sp4.Rule},
		{"synth10k", synth, distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}},
	}
	for _, wl := range workloads {
		plan, err := core.DesignPlan(wl.ds, wl.rule, core.SequenceConfig{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		recs := make([]int32, wl.ds.Len())
		for i := range recs {
			recs[i] = int32(i)
		}
		for _, w := range workerSet {
			b.Run(fmt.Sprintf("%s/workers=%d", wl.name, w), func(b *testing.B) {
				// One pool across iterations, like FilterIncremental
				// keeps one per run: the rows measure the pooled
				// steady state.
				pool := core.NewHashPool()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					st := &core.HashStats{}
					core.ApplyHashOpt(wl.ds, plan, plan.Funcs[0], nil, recs,
						core.HashOptions{Workers: w, Shards: w, MinParallel: 1, Pool: pool}, st)
				}
			})
		}
	}
}

// BenchmarkCacheEnsure measures filling the signature cache with every
// record's per-level prefixes — the Ensure traffic of a whole filter
// run's re-hash rounds. One op is a fresh cache filled level by level
// (values and counters are pinned against a from-scratch model by
// TestCacheLayoutsEquivalent).
func BenchmarkCacheEnsure(b *testing.B) {
	p := provider()
	bench := p.SpotSigs(1, 0.4)
	plan, err := p.Plan(bench, core.SequenceConfig{})
	if err != nil {
		b.Fatal(err)
	}
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
}
