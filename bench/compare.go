package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// quartiles returns the first and third quartiles of xs the way
// Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so -compare reports the spreads the benchmark
// contract is checked with.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 0 {
		return 0, 0
	}
	if ld == 1 {
		return d[0], d[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q(1), q(3)
}

// loadRuns reads the untraced per-run files of a results directory,
// keyed workload → seed → metrics.
func loadRuns(dir string) (map[string]map[uint64]map[string]metric, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[uint64]map[string]metric{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".traced.json") || strings.HasSuffix(p, ".perfetto.json") {
			continue
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(raw, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if out[rf.Workload] == nil {
			out[rf.Workload] = map[uint64]map[string]metric{}
		}
		out[rf.Workload][rf.Seed] = rf.Metrics
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no run files", dir)
	}
	return out, nil
}

// absBounds holds the end-to-end metrics whose bound is an amount, not
// a share of the parent's median. BENCHMARK.json has one kind of bound,
// a share; its topk_f1 bound is this amount at an F1 of 1, and so at
// most this amount below.
var absBounds = map[string]float64{"topk_f1": 0.005}

// verdict compares the change's runs b against the parent's runs a of
// one metric, paired by seed (the rule of the choosing-metrics guide).
// slack(m) is how far a median m may worsen within the metric's bound.
//
//   - better: the change wins at least 9 in 10 pairs, ties counting for
//     neither side, and its median beats the parent's by more than the
//     parent's quartile spread;
//   - unresolved: otherwise, when no seed is shared, or when the
//     parent's own spread exceeds the bound and some run of the change
//     reads no better than some run of the parent;
//   - worse: the change's median is worse than the parent's by more
//     than the bound;
//   - same: anything else.
func verdict(a, b map[uint64]float64, lower bool, slack func(median float64) float64) string {
	var av, bv []float64
	wins, pairs := 0, 0
	better := func(x, y float64) bool { return (lower && y < x) || (!lower && y > x) }
	for seed, x := range a {
		y, ok := b[seed]
		if !ok {
			continue
		}
		pairs++
		av, bv = append(av, x), append(bv, y)
		if better(x, y) {
			wins++
		}
	}
	if pairs == 0 {
		return "unresolved"
	}
	ma, mb := median(av), median(bv)
	q1, q3 := quartiles(av)
	gain := ma - mb
	if !lower {
		gain = -gain
	}
	if 10*wins >= 9*pairs && gain > q3-q1 {
		return "better"
	}
	if q3-q1 > slack(ma) {
		worstB, bestA := slices.Max(bv), slices.Min(av)
		if !lower {
			worstB, bestA = slices.Min(bv), slices.Max(av)
		}
		if !better(bestA, worstB) {
			return "unresolved"
		}
	}
	if -gain > slack(ma) {
		return "worse"
	}
	return "same"
}

// compareDirs prints, for every workload × end-to-end metric, each
// side's median and quartiles and the verdict for B against A.
func compareDirs(w io.Writer, c *contract, dirA, dirB string) error {
	ra, err := loadRuns(dirA)
	if err != nil {
		return err
	}
	rb, err := loadRuns(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-14s %5s %12s %25s %12s %25s  %s\n", "workload", "metric", "runs", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "verdict")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			a, b := map[uint64]float64{}, map[uint64]float64{}
			for seed, ms := range ra[wl.Name] {
				if v, ok := ms[m.Name]; ok {
					a[seed] = v.Value
				}
			}
			for seed, ms := range rb[wl.Name] {
				if v, ok := ms[m.Name]; ok {
					b[seed] = v.Value
				}
			}
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			av, bv := values(a), values(b)
			a1, a3 := quartiles(av)
			b1, b3 := quartiles(bv)
			slack := func(med float64) float64 { return m.Bound * math.Abs(med) }
			if abs, ok := absBounds[m.Name]; ok {
				slack = func(float64) float64 { return abs }
			}
			fmt.Fprintf(w, "%-16s %-14s %2d/%-2d %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g]  %s\n",
				wl.Name, m.Name, len(a), len(b), median(av), a1, a3, median(bv), b1, b3,
				verdict(a, b, m.Better == "lower", slack))
		}
	}
	return nil
}

func values(m map[uint64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	return out
}
