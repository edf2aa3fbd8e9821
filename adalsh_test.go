package adalsh_test

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	adalsh "github.com/topk-er/adalsh"
	"github.com/topk-er/adalsh/internal/xhash"
)

// smallDataset builds a public-API dataset of set records with a known
// entity structure.
func smallDataset(sizes []int, seed uint64) *adalsh.Dataset {
	ds := &adalsh.Dataset{Name: "api"}
	rng := xhash.NewRNG(seed)
	for ent, size := range sizes {
		base := make([]uint64, 50)
		for i := range base {
			base[i] = rng.Uint64()
		}
		for r := 0; r < size; r++ {
			elems := make([]uint64, 0, 50)
			for _, e := range base {
				if rng.Float64() < 0.9 {
					elems = append(elems, e)
				}
			}
			ds.Add(ent, adalsh.NewSet(elems))
		}
	}
	return ds
}

func TestPublicFilter(t *testing.T) {
	ds := smallDataset([]int{20, 12, 5, 3}, 7)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	res, err := adalsh.Filter(ds, rule, adalsh.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 || res.Clusters[0].Size() != 20 || res.Clusters[1].Size() != 12 {
		t.Fatalf("cluster sizes: %d, %d", res.Clusters[0].Size(), res.Clusters[1].Size())
	}
	g := adalsh.GoldScore(ds, res.Output, 2)
	if g.F1 < 0.999 {
		t.Fatalf("F1 = %v", g.F1)
	}
}

func TestPublicMethodsAgree(t *testing.T) {
	ds := smallDataset([]int{15, 10, 6, 4, 2}, 11)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	cfg := adalsh.Config{K: 3}
	ada, err := adalsh.Filter(ds, rule, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := adalsh.FilterLSH(ds, rule, 640, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := adalsh.FilterPairs(ds, rule, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ada.Output) != len(pairs.Output) || len(lsh.Output) != len(pairs.Output) {
		t.Fatalf("output sizes: ada %d, lsh %d, pairs %d", len(ada.Output), len(lsh.Output), len(pairs.Output))
	}
	for i := range pairs.Output {
		if ada.Output[i] != pairs.Output[i] || lsh.Output[i] != pairs.Output[i] {
			t.Fatalf("methods disagree at %d", i)
		}
	}
}

func TestPublicIncremental(t *testing.T) {
	ds := smallDataset([]int{10, 7, 4}, 3)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	plan, err := adalsh.NewPlan(ds, rule, adalsh.SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	err = adalsh.FilterIncremental(ds, plan, adalsh.Config{K: 3}, func(c adalsh.Cluster) bool {
		sizes = append(sizes, c.Size())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 10 || sizes[1] != 7 || sizes[2] != 4 {
		t.Fatalf("streamed sizes %v", sizes)
	}
}

func TestPublicCompoundRules(t *testing.T) {
	// Two set fields; entities agree on both.
	ds := &adalsh.Dataset{Name: "compound"}
	rng := xhash.NewRNG(9)
	for ent := 0; ent < 3; ent++ {
		a := make([]uint64, 30)
		b := make([]uint64, 30)
		for i := range a {
			a[i], b[i] = rng.Uint64(), rng.Uint64()
		}
		for r := 0; r < 6-ent; r++ {
			ds.Add(ent, adalsh.NewSet(a), adalsh.NewSet(b))
		}
	}
	rule := adalsh.MatchAll(
		adalsh.MatchWeightedAverage([]int{0, 1},
			[]adalsh.Metric{adalsh.Jaccard(), adalsh.Jaccard()},
			[]float64{0.5, 0.5}, 0.3),
		adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.8),
	)
	res, err := adalsh.Filter(ds, rule, adalsh.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters[0].Size() != 6 {
		t.Fatalf("top cluster size %d, want 6", res.Clusters[0].Size())
	}
}

func TestFilterPipeline(t *testing.T) {
	ds := smallDataset([]int{12, 8, 5}, 17)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	plan, err := adalsh.NewPlan(ds, rule, adalsh.SequenceConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	clusters, errc := adalsh.FilterPipeline(ds, plan, adalsh.Config{K: 3})
	var sizes []int
	for c := range clusters {
		// A downstream consumer could run full ER on c here while the
		// filter keeps working.
		sizes = append(sizes, c.Size())
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 12 || sizes[1] != 8 || sizes[2] != 5 {
		t.Fatalf("pipelined sizes %v", sizes)
	}
}

// TestShardedIncrementalModes pins Config.Shards on the streaming entry
// points: FilterIncremental and FilterPipeline run the sharded engine
// (its boundary counters move) and stream FilterWithPlan's clusters in
// order.
func TestShardedIncrementalModes(t *testing.T) {
	ds := smallDataset([]int{14, 9, 6, 3}, 29)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	plan, err := adalsh.NewPlan(ds, rule, adalsh.SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := adalsh.FilterWithPlan(ds, plan, adalsh.Config{K: 3, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	check := func(mode string, got []adalsh.Cluster, col *adalsh.StatsCollector) {
		t.Helper()
		if !reflect.DeepEqual(got, want.Clusters) {
			t.Errorf("%s: streamed clusters differ from FilterWithPlan's", mode)
		}
		if col.Counters()["boundary_keys"] == 0 {
			t.Errorf("%s: no boundary keys with Shards 3: the sharded engine did not run", mode)
		}
	}

	col := adalsh.NewStatsCollector()
	var got []adalsh.Cluster
	err = adalsh.FilterIncremental(ds, plan, adalsh.Config{K: 3, Shards: 3, Obs: col}, func(c adalsh.Cluster) bool {
		got = append(got, c)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	check("FilterIncremental", got, col)

	col = adalsh.NewStatsCollector()
	clusters, errc := adalsh.FilterPipeline(ds, plan, adalsh.Config{K: 3, Shards: 3, Obs: col})
	got = nil
	for c := range clusters {
		got = append(got, c)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	check("FilterPipeline", got, col)
}

// TestFilterPipelineAbandonedExits: a consumer that reads one cluster
// and walks away must not strand the filtering goroutine. Five
// pipelines are abandoned after their first cluster; the goroutine
// count must return to its baseline.
func TestFilterPipelineAbandonedExits(t *testing.T) {
	ds := smallDataset([]int{12, 8, 5, 3}, 31)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	plan, err := adalsh.NewPlan(ds, rule, adalsh.SequenceConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		clusters, _ := adalsh.FilterPipeline(ds, plan, adalsh.Config{K: 3, Workers: 1})
		if _, ok := <-clusters; !ok {
			t.Fatal("pipeline closed before its first cluster")
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after abandoning 5 pipelines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRecoverPublic(t *testing.T) {
	ds := smallDataset([]int{10, 6}, 23)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	res, err := adalsh.Filter(ds, rule, adalsh.Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := adalsh.Recover(ds, rule, res)
	if len(rec.Clusters) != 1 {
		t.Fatalf("recovered clusters = %d", len(rec.Clusters))
	}
	// Nothing was missing, so nothing recovered; all comparisons paid.
	if rec.PairsComputed == 0 {
		t.Fatal("no recovery comparisons recorded")
	}
}

func TestConversionHelpers(t *testing.T) {
	if adalsh.Degrees(90) != 0.5 {
		t.Error("Degrees")
	}
	if adalsh.SimilarityAtLeast(0.4) != 0.6 {
		t.Error("SimilarityAtLeast")
	}
}

func TestCosineRuleAndMatchAny(t *testing.T) {
	ds := &adalsh.Dataset{Name: "vec"}
	// Two tight vector entities at right angles.
	for i := 0; i < 5; i++ {
		ds.Add(0, adalsh.Vector{1, 0.01 * float64(i)})
	}
	for i := 0; i < 3; i++ {
		ds.Add(1, adalsh.Vector{0.01 * float64(i), 1})
	}
	rule := adalsh.MatchAny(
		adalsh.MatchThreshold(0, adalsh.Cosine(), adalsh.Degrees(5)),
		adalsh.MatchThreshold(0, adalsh.Cosine(), adalsh.Degrees(2)),
	)
	res, err := adalsh.Filter(ds, rule, adalsh.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clusters[0].Size() != 5 || res.Clusters[1].Size() != 3 {
		t.Fatalf("sizes %d/%d", res.Clusters[0].Size(), res.Clusters[1].Size())
	}
}

func TestFilterPropagatesDesignError(t *testing.T) {
	empty := &adalsh.Dataset{}
	rule := adalsh.MatchThreshold(0, adalsh.Cosine(), 0.1)
	if _, err := adalsh.Filter(empty, rule, adalsh.Config{K: 1}); err == nil {
		t.Fatal("empty dataset with cosine rule should fail at design")
	}
}

func TestRankedScorePublic(t *testing.T) {
	ds := smallDataset([]int{6, 3}, 31)
	rule := adalsh.MatchThreshold(0, adalsh.Jaccard(), 0.5)
	res, err := adalsh.Filter(ds, rule, adalsh.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	clusters := make([][]int32, len(res.Clusters))
	for i := range res.Clusters {
		clusters[i] = res.Clusters[i].Records
	}
	mAP, mAR := adalsh.RankedScore(ds, clusters, 2)
	if mAP < 0.999 || mAR < 0.999 {
		t.Fatalf("mAP=%v mAR=%v", mAP, mAR)
	}
}

func TestSyntheticBenchmarksExposed(t *testing.T) {
	if testing.Short() {
		t.Skip("synthetic generation in -short mode")
	}
	b := adalsh.SyntheticCora(1, 1)
	if b.Dataset.Len() == 0 {
		t.Fatal("empty Cora")
	}
	b2 := adalsh.SyntheticSpotSigs(1, 0.4, 1)
	if b2.Dataset.Len() == 0 {
		t.Fatal("empty SpotSigs")
	}
	b3 := adalsh.SyntheticPopularImages("1.05", 3, 1)
	if b3.Dataset.Len() == 0 {
		t.Fatal("empty PopularImages")
	}
	if adalsh.ReductionPercent(b.Dataset, []int32{0}) <= 0 {
		t.Fatal("ReductionPercent")
	}
}
