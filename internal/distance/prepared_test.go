package distance

import (
	"math"
	"math/rand"
	"testing"

	"github.com/topk-er/adalsh/internal/record"
)

// The differential tests below drive every prepared kernel against the
// naive Rule.Match over fuzzed record slices and demand identical
// decisions on every pair — including zero vectors, empty sets,
// degenerate thresholds 0 and 1, and thresholds placed exactly on an
// observed pair distance (the float boundary where a transformed
// comparison is most likely to disagree). The kernels' probe forms are
// held to the same contract for probe records outside the slice.

// fuzzDataset builds a dataset of n records with one field of each
// kind: vectors (index 0: dense, plus zero vectors and duplicates),
// sets (index 1: varied sizes, plus empty sets and duplicates) and
// fingerprints (index 2: plus all-zero words). Duplicates land pairs
// exactly at distance 0; near-duplicates land near thresholds.
func fuzzDataset(t *testing.T, n, dim, width int, seed int64) *record.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := &record.Dataset{Name: "fuzz"}
	words := (width + 63) / 64
	for i := 0; i < n; i++ {
		var vec record.Vector
		switch {
		case i%11 == 3:
			vec = make(record.Vector, dim) // zero vector
		case i%7 == 5 && i > 0:
			// Duplicate of the previous record's vector: distance 0.
			vec = ds.Records[i-1].Fields[0].(record.Vector)
		default:
			vec = make(record.Vector, dim)
			for d := range vec {
				vec[d] = rng.NormFloat64()
				if rng.Intn(4) == 0 {
					vec[d] = 0 // sparsity, sign boundaries
				}
			}
		}
		var elems []uint64
		if i%9 != 4 { // i%9 == 4: empty set
			sz := 1 + rng.Intn(12)
			for e := 0; e < sz; e++ {
				elems = append(elems, uint64(rng.Intn(40))) // heavy overlap
			}
		}
		set := record.NewSet(elems)
		if i%8 == 6 && i > 0 {
			set = ds.Records[i-1].Fields[1].(record.Set)
		}
		w := make([]uint64, words)
		if i%10 != 7 { // i%10 == 7: all-zero fingerprint
			for wi := range w {
				w[wi] = rng.Uint64()
			}
		}
		bits := record.NewBits(w, width)
		if i%6 == 2 && i > 0 {
			bits = ds.Records[i-1].Fields[2].(record.Bits)
		}
		ds.Add(-1, vec, set, bits)
	}
	return ds
}

func allIdx(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}

// probeDataset is a second fuzzed dataset with ds's shape (vector
// dimension, fingerprint width, record count) and a seed of its own:
// probe records that lie outside the prepared slice.
func probeDataset(t *testing.T, ds *record.Dataset) *record.Dataset {
	t.Helper()
	r := ds.Records[0]
	dim, width := len(r.Fields[0].(record.Vector)), r.Fields[2].(record.Bits).Width
	return fuzzDataset(t, ds.Len(), dim, width, 1<<20+int64(ds.Len()))
}

// diffRule checks prepared-vs-naive decisions on every ordered pair of
// the slice, and the probe form's decision for every probe record of
// probeDataset(ds) against every slice record, and returns the number
// of pairs checked.
func diffRule(t *testing.T, ds *record.Dataset, rule Rule, label string) int {
	t.Helper()
	recs := allIdx(ds.Len())
	k := Prepare(ds, rule, recs)
	pairs := 0
	for i := 0; i < ds.Len(); i++ {
		for j := 0; j < ds.Len(); j++ {
			if i == j {
				continue
			}
			pairs++
			want := rule.Match(&ds.Records[i], &ds.Records[j])
			if got := k.MatchIdx(i, j); got != want {
				t.Fatalf("%s: pair (%d,%d): prepared=%v naive=%v (rule %s)",
					label, i, j, got, want, rule.String())
			}
		}
	}
	probes := probeDataset(t, ds)
	for qi := range probes.Records {
		q := &probes.Records[qi]
		match := k.Probe(q)
		for j := 0; j < ds.Len(); j++ {
			pairs++
			want := rule.Match(q, &ds.Records[j])
			if got := match(j); got != want {
				t.Fatalf("%s: probe %d vs record %d: probe form=%v naive=%v (rule %s)",
					label, qi, j, got, want, rule.String())
			}
		}
	}
	return pairs
}

// boundaryThresholds returns thresholds that sit exactly on observed
// pair distances under the metric (the adversarial case for the
// transformed comparisons), plus the degenerate 0 and 1 and nearby
// off-boundary values.
func boundaryThresholds(ds *record.Dataset, field int, m Metric) []float64 {
	thrs := []float64{0, 1, 0.25, 0.6, -0.5, 1.5}
	for i := 0; i < ds.Len() && len(thrs) < 30; i += 3 {
		for j := i + 1; j < ds.Len() && len(thrs) < 30; j += 5 {
			d := m.Distance(ds.Records[i].Fields[field], ds.Records[j].Fields[field])
			thrs = append(thrs, d)
			// One ulp to either side of the boundary.
			thrs = append(thrs, math.Nextafter(d, 0), math.Nextafter(d, 2))
		}
	}
	return thrs
}

func TestPreparedThresholdDifferential(t *testing.T) {
	ds := fuzzDataset(t, 40, 24, 100, 7)
	metrics := []struct {
		field int
		m     Metric
	}{
		{0, Cosine{}},
		{1, Jaccard{}},
		{0, Euclidean{Scale: 3}},
		{2, Hamming{}},
	}
	for _, mc := range metrics {
		for _, thr := range boundaryThresholds(ds, mc.field, mc.m) {
			rule := Threshold{Field: mc.field, Metric: mc.m, MaxDistance: thr}
			diffRule(t, ds, rule, mc.m.Name())
		}
	}
}

func TestPreparedCompoundDifferential(t *testing.T) {
	ds := fuzzDataset(t, 32, 16, 80, 11)
	cos := Threshold{Field: 0, Metric: Cosine{}, MaxDistance: 0.22}
	jac := Threshold{Field: 1, Metric: Jaccard{}, MaxDistance: 0.6}
	euc := Threshold{Field: 0, Metric: Euclidean{Scale: 4}, MaxDistance: 0.3}
	ham := Threshold{Field: 2, Metric: Hamming{}, MaxDistance: 0.45}
	wavg := WeightedAverage{
		Fields:      []int{0, 1, 2},
		Metrics:     []Metric{Cosine{}, Jaccard{}, Hamming{}},
		Weights:     []float64{0.5, 0.3, 0.2},
		MaxDistance: 0.4,
	}
	rules := []Rule{
		And{cos, jac},
		And{euc, ham, jac},
		Or{cos, jac},
		Or{ham, euc},
		And{Or{cos, euc}, jac},
		wavg,
		WeightedAverage{
			Fields:      []int{0, 0},
			Metrics:     []Metric{Cosine{}, Euclidean{Scale: 2}},
			Weights:     []float64{0.7, 0.3},
			MaxDistance: 0.18,
		},
		Or{wavg, And{cos, ham}},
	}
	for _, rule := range rules {
		diffRule(t, ds, rule, "compound")
	}
	// Weighted-average boundary thresholds: place the threshold exactly
	// on observed weighted distances.
	for i := 0; i < ds.Len(); i += 7 {
		for j := i + 1; j < ds.Len(); j += 9 {
			d := wavg.Distance(&ds.Records[i], &ds.Records[j])
			for _, thr := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 2)} {
				r := wavg
				r.MaxDistance = thr
				diffRule(t, ds, r, "wavg-boundary")
			}
		}
	}
}

// TestPreparedProbeBoundaryDifferential places thresholds exactly on
// observed probe-to-slice distances, and one ulp to either side, for
// every metric and for a weighted average, so the probe forms meet the
// float boundary on the pairs they decide.
func TestPreparedProbeBoundaryDifferential(t *testing.T) {
	ds := fuzzDataset(t, 40, 24, 100, 7)
	probes := probeDataset(t, ds)
	observed := func(dist func(q, r *record.Record) float64) []float64 {
		var thrs []float64
		for i := 0; i < probes.Len(); i += 3 {
			for j := i % 5; j < ds.Len(); j += 7 {
				d := dist(&probes.Records[i], &ds.Records[j])
				thrs = append(thrs, d, math.Nextafter(d, 0), math.Nextafter(d, 2))
			}
		}
		return thrs
	}
	metrics := []struct {
		field int
		m     Metric
	}{
		{0, Cosine{}},
		{1, Jaccard{}},
		{0, Euclidean{Scale: 3}},
		{2, Hamming{}},
	}
	for _, mc := range metrics {
		thrs := observed(func(q, r *record.Record) float64 {
			return mc.m.Distance(q.Fields[mc.field], r.Fields[mc.field])
		})
		for _, thr := range thrs {
			diffRule(t, ds, Threshold{Field: mc.field, Metric: mc.m, MaxDistance: thr}, "probe-boundary/"+mc.m.Name())
		}
	}
	wavg := WeightedAverage{
		Fields:      []int{0, 1, 2},
		Metrics:     []Metric{Cosine{}, Jaccard{}, Hamming{}},
		Weights:     []float64{0.5, 0.3, 0.2},
		MaxDistance: 0.4,
	}
	for _, thr := range observed(wavg.Distance) {
		r := wavg
		r.MaxDistance = thr
		diffRule(t, ds, r, "probe-boundary/wavg")
	}
}

// TestPreparedManySeeds fuzzes across dataset shapes: tiny sets, high
// dimensions, single-word and multi-word fingerprints, several seeds.
func TestPreparedManySeeds(t *testing.T) {
	shapes := []struct {
		n, dim, width int
	}{
		{12, 1, 1},
		{20, 64, 64},
		{16, 8, 200},
		{24, 3, 63},
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			ds := fuzzDataset(t, sh.n, sh.dim, sh.width, seed)
			for _, thr := range []float64{0, 0.15, 0.5, 0.85, 1} {
				diffRule(t, ds, Threshold{Field: 0, Metric: Cosine{}, MaxDistance: thr}, "cosine")
				diffRule(t, ds, Threshold{Field: 1, Metric: Jaccard{}, MaxDistance: thr}, "jaccard")
				diffRule(t, ds, Threshold{Field: 0, Metric: Euclidean{Scale: 2.5}, MaxDistance: thr}, "euclidean")
				diffRule(t, ds, Threshold{Field: 2, Metric: Hamming{}, MaxDistance: thr}, "hamming")
			}
		}
	}
}

// customMetric exercises the unknown-metric fallbacks (naive kernel
// for Threshold, exact per-pair distance inside WeightedAverage).
type customMetric struct{}

func (customMetric) Distance(a, b record.Field) float64 {
	va, vb := a.(record.Vector), b.(record.Vector)
	d := math.Abs(va[0]-vb[0]) / 10
	if d > 1 {
		return 1
	}
	return d
}
func (customMetric) P(x float64) float64         { return 1 - x }
func (customMetric) FieldKind() record.FieldKind { return record.VectorKind }
func (customMetric) Name() string                { return "custom" }

func TestPreparedUnknownMetricFallsBack(t *testing.T) {
	ds := fuzzDataset(t, 18, 4, 64, 5)
	diffRule(t, ds, Threshold{Field: 0, Metric: customMetric{}, MaxDistance: 0.05}, "custom")
	diffRule(t, ds, WeightedAverage{
		Fields:      []int{0, 1},
		Metrics:     []Metric{customMetric{}, Jaccard{}},
		Weights:     []float64{0.4, 0.6},
		MaxDistance: 0.5,
	}, "custom-wavg")
}

// TestPreparedStatsCount sanity-checks the effectiveness counters:
// a dataset with zero vectors and heavy mismatch must report
// prefilter rejections, and large disjoint sets must report early
// exits, while the decisions stay identical (checked by diffRule).
func TestPreparedStatsCount(t *testing.T) {
	ds := fuzzDataset(t, 40, 24, 100, 13)
	rule := Threshold{Field: 0, Metric: Cosine{}, MaxDistance: 0.2}
	recs := allIdx(ds.Len())
	k := Prepare(ds, rule, recs)
	for i := 0; i < ds.Len(); i++ {
		for j := i + 1; j < ds.Len(); j++ {
			k.MatchIdx(i, j)
		}
	}
	if st := k.Stats(); st.PrefilterRejects == 0 {
		t.Error("cosine kernel saw zero vectors but reports no prefilter rejects")
	}

	ham := Prepare(ds, Threshold{Field: 2, Metric: Hamming{}, MaxDistance: 0.05}, recs)
	for i := 0; i < ds.Len(); i++ {
		for j := i + 1; j < ds.Len(); j++ {
			ham.MatchIdx(i, j)
		}
	}
	if st := ham.Stats(); st.PrefilterRejects == 0 && st.EarlyExits == 0 {
		t.Error("tight hamming kernel reports no prefilter rejects nor early exits")
	}
}

// TestPreparedEuclideanBudgetBoundary pins the bit-exact squared-sum
// budget: for a threshold exactly at an observed distance, the pair at
// the boundary must match (d <= thr), and one ulp below must not.
func TestPreparedEuclideanBudgetBoundary(t *testing.T) {
	ds := &record.Dataset{Name: "euclid-boundary"}
	ds.Add(-1, record.Vector{0, 0, 0})
	ds.Add(-1, record.Vector{1, 2, 2}) // distance 3 before scaling
	m := Euclidean{Scale: 6}
	d := m.Distance(ds.Records[0].Fields[0], ds.Records[1].Fields[0]) // 0.5
	for _, thr := range []float64{d, math.Nextafter(d, 0), math.Nextafter(d, 1)} {
		rule := Threshold{Field: 0, Metric: m, MaxDistance: thr}
		k := Prepare(ds, rule, []int32{0, 1})
		want := rule.Match(&ds.Records[0], &ds.Records[1])
		if got := k.MatchIdx(0, 1); got != want {
			t.Errorf("thr=%v: prepared=%v naive=%v", thr, got, want)
		}
	}
}
