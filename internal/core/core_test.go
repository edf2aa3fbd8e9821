package core_test

import (
	"math"
	"strings"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/record"
)

func TestSequenceConfigBudgets(t *testing.T) {
	expo := core.SequenceConfig{}.Budgets()
	want := []int{20, 40, 80, 160, 320, 640, 1280, 2560}
	if len(expo) != len(want) {
		t.Fatalf("default budgets = %v", expo)
	}
	for i := range want {
		if expo[i] != want[i] {
			t.Fatalf("default budgets = %v, want %v", expo, want)
		}
	}
	lin := core.SequenceConfig{InitialBudget: 320, Mode: core.Linear, Step: 320, Levels: 4}.Budgets()
	wantLin := []int{320, 640, 960, 1280}
	for i := range wantLin {
		if lin[i] != wantLin[i] {
			t.Fatalf("linear budgets = %v, want %v", lin, wantLin)
		}
	}
}

func TestDesignPlanSingleField(t *testing.T) {
	ds := clusteredSetDataset(t, []int{10, 5}, 3)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plan.L() != 8 {
		t.Fatalf("L = %d, want 8", plan.L())
	}
	// Monotone (w, z) along the sequence (Section 4.1's definition).
	prevW, prevZ := 0, 0
	for _, hf := range plan.Funcs {
		w := hf.Tables[0].Parts[0].Count
		z := len(hf.Tables)
		if w < prevW || z < prevZ {
			t.Fatalf("H_%d (w=%d,z=%d) not monotone after (w=%d,z=%d)", hf.Seq, w, z, prevW, prevZ)
		}
		prevW, prevZ = w, z
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDesignPlanRuleShapes(t *testing.T) {
	ds := &record.Dataset{Name: "shapes"}
	for i := 0; i < 30; i++ {
		ds.Add(i%3,
			record.NewSet([]uint64{uint64(i % 3), uint64(i%3 + 10), uint64(i)}),
			record.Vector{float64(i%3) + 1, 1},
		)
	}
	jac := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	cos := distance.Threshold{Field: 1, Metric: distance.Cosine{}, MaxDistance: 0.1}
	wavg := distance.WeightedAverage{
		Fields:  []int{0, 1},
		Metrics: []distance.Metric{distance.Jaccard{}, distance.Cosine{}},
		Weights: []float64{0.6, 0.4}, MaxDistance: 0.4,
	}
	cfg := core.SequenceConfig{Levels: 3, Seed: 2}
	for name, rule := range map[string]distance.Rule{
		"jaccard":  jac,
		"cosine":   cos,
		"wavg":     wavg,
		"and":      distance.And{jac, cos},
		"or":       distance.Or{jac, cos},
		"and-wavg": distance.And{wavg, jac},
	} {
		plan, err := core.DesignPlan(ds, rule, cfg)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := plan.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := core.Filter(ds, plan, core.Options{K: 2}); err != nil {
			t.Errorf("%s: Filter: %v", name, err)
		}
	}
}

func TestDesignPlanErrors(t *testing.T) {
	ds := clusteredSetDataset(t, []int{4}, 1)
	jac := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	// Nested compounds are rejected (leaves must be Threshold or
	// WeightedAverage).
	nested := distance.And{distance.And{jac, jac}, jac}
	if _, err := core.DesignPlan(ds, nested, core.SequenceConfig{}); err == nil {
		t.Error("accepted nested AND")
	}
	// One-armed compounds are rejected.
	if _, err := core.DesignPlan(ds, distance.And{jac}, core.SequenceConfig{}); err == nil {
		t.Error("accepted 1-way AND")
	}
	// Hyperplane needs a non-empty dataset for its dimension.
	empty := &record.Dataset{}
	cos := distance.Threshold{Field: 0, Metric: distance.Cosine{}, MaxDistance: 0.1}
	if _, err := core.DesignPlan(empty, cos, core.SequenceConfig{}); err == nil {
		t.Error("accepted empty dataset for cosine rule")
	}
}

// TestDesignPlanRefusesOutOfRangeConfig: each bound of
// SequenceConfig.Validate refuses a config before any design work.
// Without the check, Levels -1 panics in the budget slice, Levels 65,
// an unknown Mode, a budget over 1<<16, a budget that wraps back into
// range and an Epsilon outside (0, 1) are all designed, and a budget
// below 1 reaches the solver.
func TestDesignPlanRefusesOutOfRangeConfig(t *testing.T) {
	ds := clusteredSetDataset(t, []int{4, 2}, 1)
	cases := map[string]core.SequenceConfig{
		"levels negative":   {Levels: -1},
		"levels over 64":    {Levels: 65, Factor: 1},
		"mode unknown":      {Mode: core.BudgetMode(2), Levels: 2},
		"budget over 1<<16": {InitialBudget: 1<<16 + 1, Levels: 1},
		"budget below 1":    {InitialBudget: -5, Levels: 1},
		"budget overflows":  {InitialBudget: 4, Factor: 1<<62 + 1, Levels: 2},
		"epsilon negative":  {Epsilon: -0.1, Levels: 2},
		"epsilon one":       {Epsilon: 1, Levels: 2},
		"epsilon NaN":       {Epsilon: math.NaN(), Levels: 2},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if err := cfg.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", cfg)
			}
			if b := cfg.Budgets(); b != nil {
				t.Errorf("Budgets = %v, want nil", b)
			}
			_, err := core.DesignPlan(ds, jaccardRule(), cfg)
			if err == nil || !strings.Contains(err.Error(), "sequence config") {
				t.Errorf("DesignPlan = %v, want a sequence config error", err)
			}
		})
	}
	// The bounds themselves are in range.
	for _, cfg := range []core.SequenceConfig{
		{InitialBudget: 1 << 16, Levels: 1},
		{InitialBudget: 1, Levels: 64, Factor: 1},
		{InitialBudget: 1 << 8, Factor: 1 << 8, Levels: 2},
		{InitialBudget: 1 << 15, Mode: core.Linear, Levels: 2},
		{Epsilon: 0.999},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate refused %+v: %v", cfg, err)
		}
	}
}

// TestDesignPlanRefusesRulesItCannotBuild: a rule whose hasher cannot
// be built, or whose AND is wider than the N-way objective takes, is an
// error; both used to panic inside DesignPlan.
func TestDesignPlanRefusesRulesItCannotBuild(t *testing.T) {
	vecs := &record.Dataset{Name: "vectors"}
	for i := 0; i < 6; i++ {
		vecs.Add(i%2, record.Vector{float64(i % 2), 1})
	}
	zeroScale := distance.Threshold{Field: 0, Metric: distance.Euclidean{}, MaxDistance: 0.3}
	if _, err := core.DesignPlan(vecs, zeroScale, core.SequenceConfig{Levels: 2}); err == nil ||
		!strings.Contains(err.Error(), "pstable") {
		t.Errorf("euclidean scale 0: DesignPlan = %v, want a pstable build error", err)
	}

	sets := clusteredSetDataset(t, []int{4, 2}, 1)
	wide := make(distance.And, 11)
	for i := range wide {
		wide[i] = distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	}
	if _, err := core.DesignPlan(sets, wide, core.SequenceConfig{Levels: 2}); err == nil ||
		!strings.Contains(err.Error(), "at most 10 fields") {
		t.Errorf("11-leaf AND: DesignPlan = %v, want a field-count error", err)
	}
}

func TestFilterArgumentErrors(t *testing.T) {
	ds := clusteredSetDataset(t, []int{4}, 1)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Filter(ds, plan, core.Options{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
}

func TestFilterKLargerThanEntities(t *testing.T) {
	ds := clusteredSetDataset(t, []int{5, 3}, 2)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Filter(ds, plan, core.Options{K: 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != ds.Len() {
		t.Fatalf("K > entities should return everything; got %d of %d", len(res.Output), ds.Len())
	}
}

func TestFilterEmptyDataset(t *testing.T) {
	ds := clusteredSetDataset(t, []int{4}, 1)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	empty := &record.Dataset{}
	res, err := core.Filter(empty, plan, core.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 0 {
		t.Fatalf("clusters from empty dataset: %d", len(res.Clusters))
	}
}

func TestFilterDeterministic(t *testing.T) {
	ds := clusteredSetDataset(t, []int{20, 12, 6, 3}, 9)
	for run := 0; run < 2; run++ {
		plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Filter(ds, plan, core.Options{K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			continue
		}
		res2, _ := core.Filter(ds, plan, core.Options{K: 2})
		if len(res.Output) != len(res2.Output) {
			t.Fatal("same seed, different output size")
		}
		for i := range res.Output {
			if res.Output[i] != res2.Output[i] {
				t.Fatal("same seed, different output")
			}
		}
	}
}

func TestFilterIncrementalPrefixProperty(t *testing.T) {
	// Theorem 2: running with input k, the first k' emitted clusters
	// coincide with the k'-run's output, for any k' < k.
	ds := clusteredSetDataset(t, []int{30, 20, 10, 5, 3, 2}, 13)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var streamed [][]int32
	err = core.FilterIncremental(ds, plan, core.Options{K: 4}, func(c core.Cluster) bool {
		streamed = append(streamed, c.Records)
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 4 {
		t.Fatalf("streamed %d clusters", len(streamed))
	}
	for kp := 1; kp <= 3; kp++ {
		res, err := core.Filter(ds, plan, core.Options{K: kp})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < kp; i++ {
			if len(res.Clusters[i].Records) != len(streamed[i]) {
				t.Fatalf("k'=%d cluster %d: size %d vs streamed %d", kp, i, len(res.Clusters[i].Records), len(streamed[i]))
			}
			for j := range streamed[i] {
				if res.Clusters[i].Records[j] != streamed[i][j] {
					t.Fatalf("k'=%d cluster %d differs from streamed prefix", kp, i)
				}
			}
		}
	}
}

func TestFilterIncrementalEarlyStop(t *testing.T) {
	ds := clusteredSetDataset(t, []int{10, 8, 6}, 5)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 3, Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = core.FilterIncremental(ds, plan, core.Options{K: 3}, func(core.Cluster) bool {
		n++
		return false // stop after the first
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("emit called %d times after stop", n)
	}
}

func TestReturnClusters(t *testing.T) {
	ds := clusteredSetDataset(t, []int{12, 9, 6, 4, 2}, 8)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Filter(ds, plan, core.Options{K: 2, ReturnClusters: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("returned %d clusters, want 4", len(res.Clusters))
	}
}

func TestApplyPairwiseComputesComponents(t *testing.T) {
	// A path a-b-c plus an isolated d: components {a,b,c}, {d}.
	ds := &record.Dataset{}
	ds.Add(0, record.NewSet([]uint64{1, 2, 3, 4}))
	ds.Add(0, record.NewSet([]uint64{3, 4, 5, 6}))
	ds.Add(0, record.NewSet([]uint64{5, 6, 7, 8}))
	ds.Add(1, record.NewSet([]uint64{100, 200}))
	rule := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.7}
	clusters, pairs := core.ApplyPairwise(ds, rule, []int32{0, 1, 2, 3})
	if len(clusters) != 2 || len(clusters[0]) != 3 || len(clusters[1]) != 1 {
		t.Fatalf("clusters = %v", clusters)
	}
	// Transitive skipping: pair (0,2) may still be computed (they
	// aren't joined when visited), but total is at most 6.
	if pairs > 6 {
		t.Fatalf("pairs computed = %d > 6", pairs)
	}
}

func TestCostModelPreferPairwise(t *testing.T) {
	ds := clusteredSetDataset(t, []int{6}, 2)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Make costs deterministic: hashing 1 unit per function, P 1 unit.
	plan.Cost = core.CostModel{CostP: 1, CostFunc: make([]float64, len(plan.Hashers))}
	for i := range plan.Cost.CostFunc {
		plan.Cost.CostFunc[i] = 1
	}
	// Upgrading H_1 (20 funcs) -> H_2 (40 funcs) costs 20 per record.
	// P on a cluster of size n costs n(n-1)/2 per record-pair.
	// 20*n >= n(n-1)/2  <=>  n <= 41.
	if !plan.Cost.PreferPairwise(plan, 1, 41) {
		t.Error("n=41: P should be preferred")
	}
	if plan.Cost.PreferPairwise(plan, 1, 42) {
		t.Error("n=42: hashing should be preferred")
	}
	// Noise scales the P side: with NoiseP = 5, P looks 5x costlier.
	noisy := plan.WithNoise(5)
	if noisy.Cost.PreferPairwise(noisy, 1, 41) {
		t.Error("with 5x noise, P should no longer be preferred at n=41")
	}
	// The original plan is untouched (WithNoise is a copy).
	if plan.Cost.NoiseP != 0 {
		t.Error("WithNoise mutated the original plan")
	}
}

func TestStatsAccounting(t *testing.T) {
	ds := clusteredSetDataset(t, []int{15, 8, 4}, 21)
	plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Filter(ds, plan, core.Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.HashEvals) != 1 || res.Stats.HashEvals[0] <= 0 {
		t.Fatalf("hash evals = %v", res.Stats.HashEvals)
	}
	if res.Stats.HashRounds < 1 {
		t.Fatal("no hash rounds recorded")
	}
	if res.Stats.ModelCost <= 0 {
		t.Fatal("no model cost recorded")
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
	// Round one applies H_1 (budget 20) to every record; later rounds
	// only add work, so at least 20*|R| evaluations.
	if res.Stats.HashEvals[0] < int64(20*ds.Len()) {
		t.Fatalf("hash evals %d < 20*|R| = %d", res.Stats.HashEvals[0], 20*ds.Len())
	}
}
