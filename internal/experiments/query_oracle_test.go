package experiments

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// queryOracle is the from-scratch reference for core.QueryIndex.Query.
// It holds H_1's buckets over every record as one map per table (bucket
// key -> the records under it, keys folded with oracleKey from
// from-scratch lshfamily.HashRange values) and the clusters a filtering
// run emitted.
type queryOracle struct {
	ds        *record.Dataset
	plan      *core.Plan
	buckets   []map[uint64][]int32
	clusters  []core.Cluster
	clusterOf map[int32]int
}

func newQueryOracle(ds *record.Dataset, plan *core.Plan, clusters []core.Cluster) *queryOracle {
	hf := plan.Funcs[0]
	o := &queryOracle{ds: ds, plan: plan, buckets: make([]map[uint64][]int32, len(hf.Tables)),
		clusters: clusters, clusterOf: map[int32]int{}}
	for t := range o.buckets {
		o.buckets[t] = map[uint64][]int32{}
	}
	for rec := range ds.Records {
		vals, _ := o.hash(&ds.Records[rec])
		for t := range hf.Tables {
			key := oracleKey(hf, t, vals)
			o.buckets[t][key] = append(o.buckets[t][key], int32(rec))
		}
	}
	for ord, c := range clusters {
		for _, rec := range c.Records {
			o.clusterOf[rec] = ord
		}
	}
	return o
}

// hash returns r's base hash values and runner-up alternatives under
// every hasher H_1 uses.
func (o *queryOracle) hash(r *record.Record) ([][]uint64, [][]lshfamily.ProbeAlt) {
	hf := o.plan.Funcs[0]
	vals := make([][]uint64, len(o.plan.Hashers))
	alts := make([][]lshfamily.ProbeAlt, len(o.plan.Hashers))
	for h, n := range hf.FuncsPerHasher {
		vals[h] = make([]uint64, n)
		alts[h] = make([]lshfamily.ProbeAlt, n)
		lshfamily.HashRange(o.plan.Hashers[h], 0, n, r, vals[h])
		lshfamily.ProbeRange(o.plan.Hashers[h], 0, n, r, alts[h])
	}
	return vals, alts
}

// query answers a lookup as QueryResult documents it: per table the
// exact key plus the probes-1 cheapest single flips (ascending penalty,
// ties by hasher then function, infinite penalties skipped), the union
// of those buckets as candidates, Rule.Match against the probe, and the
// candidates' clusters tallied and ranked, at most m of them.
func (o *queryOracle) query(q *record.Record, probes, m int) *core.QueryResult {
	hf := o.plan.Funcs[0]
	vals, alts := o.hash(q)
	res := &core.QueryResult{}
	cands := map[int32]bool{}
	take := func(t int) {
		res.Probes++
		for _, rec := range o.buckets[t][oracleKey(hf, t, vals)] {
			cands[rec] = true
		}
	}
	type flip struct {
		h, fn   int
		penalty float64
	}
	for t, table := range hf.Tables {
		take(t)
		var flips []flip
		for _, part := range table.Parts {
			for fn := part.Start; fn < part.Start+part.Count; fn++ {
				if p := alts[part.Hasher][fn].Penalty; !math.IsInf(p, 1) {
					flips = append(flips, flip{part.Hasher, fn, p})
				}
			}
		}
		sort.Slice(flips, func(i, j int) bool {
			a, b := flips[i], flips[j]
			if a.penalty != b.penalty {
				return a.penalty < b.penalty
			}
			if a.h != b.h {
				return a.h < b.h
			}
			return a.fn < b.fn
		})
		for _, f := range flips[:min(probes-1, len(flips))] {
			orig := vals[f.h][f.fn]
			vals[f.h][f.fn] = alts[f.h][f.fn].Alt
			take(t)
			vals[f.h][f.fn] = orig
		}
	}
	for rec := range cands {
		res.Candidates = append(res.Candidates, rec)
	}
	sort.Slice(res.Candidates, func(i, j int) bool { return res.Candidates[i] < res.Candidates[j] })
	type tally struct{ matched, candidates int }
	perCluster := map[int]*tally{}
	for _, rec := range res.Candidates {
		matched := o.plan.Rule.Match(q, &o.ds.Records[rec])
		if matched {
			res.MatchedRecords = append(res.MatchedRecords, rec)
		}
		ord, ok := o.clusterOf[rec]
		if !ok {
			if matched {
				res.Unclustered++
			}
			continue
		}
		if perCluster[ord] == nil {
			perCluster[ord] = &tally{}
		}
		perCluster[ord].candidates++
		if matched {
			perCluster[ord].matched++
		}
	}
	for ord, tl := range perCluster {
		if tl.matched > 0 {
			res.Matches = append(res.Matches, core.QueryMatch{
				Cluster: ord, Records: o.clusters[ord].Records,
				Matched: tl.matched, Candidates: tl.candidates,
			})
		}
	}
	sort.Slice(res.Matches, func(i, j int) bool {
		a, b := res.Matches[i], res.Matches[j]
		if a.Matched != b.Matched {
			return a.Matched > b.Matched
		}
		if a.Candidates != b.Candidates {
			return a.Candidates > b.Candidates
		}
		return a.Cluster < b.Cluster
	})
	if len(res.Matches) > m {
		res.Matches = res.Matches[:m]
	}
	return res
}

// perturbRecord copies r with about a fifth of each set's elements
// dropped, every vector component noised by 5% of the vector's RMS
// value, and about 2% of each fingerprint's bits flipped.
func perturbRecord(r *record.Record, rng *xhash.RNG) record.Record {
	fields := make([]record.Field, len(r.Fields))
	for f, field := range r.Fields {
		switch v := field.(type) {
		case record.Set:
			var elems []uint64
			for _, e := range v {
				if rng.Float64() >= 0.2 {
					elems = append(elems, e)
				}
			}
			fields[f] = record.NewSet(elems)
		case record.Vector:
			rms := 0.0
			for _, x := range v {
				rms += x * x
			}
			rms = math.Sqrt(rms / float64(max(len(v), 1)))
			out := make(record.Vector, len(v))
			for i, x := range v {
				out[i] = x + 0.05*rms*rng.NormFloat64()
			}
			fields[f] = out
		case record.Bits:
			w := append([]uint64(nil), v.Words...)
			for b := 0; b < v.Width/50; b++ {
				pos := rng.Intn(v.Width)
				w[pos/64] ^= 1 << (pos % 64)
			}
			fields[f] = record.NewBits(w, v.Width)
		default:
			fields[f] = field
		}
	}
	return record.Record{ID: r.ID, Fields: fields}
}

// fingerprintBenchmark is a synthetic Hamming workload: 600 256-bit
// fingerprints in entities of 1 to 40 records, members flipping ~3% of
// their entity's base bits. Bit sampling gives every perturbation the
// same penalty, so its lookups exercise the flip order's tie-breaks.
func fingerprintBenchmark() *datasets.Benchmark {
	const n, width = 600, 256
	ds := &record.Dataset{Name: "fingerprints"}
	rng := xhash.NewRNG(5)
	for ent := 0; ds.Len() < n; ent++ {
		base := []uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()}
		for r := 1 + rng.Intn(40); r > 0 && ds.Len() < n; r-- {
			w := append([]uint64(nil), base...)
			for b := 0; b < width/32; b++ {
				pos := rng.Intn(width)
				w[pos/64] ^= 1 << (pos % 64)
			}
			ds.Add(ent, record.NewBits(w, width))
		}
	}
	return &datasets.Benchmark{Dataset: ds, Rule: distance.Threshold{Field: 0, Metric: distance.Hamming{}, MaxDistance: 0.1}}
}

// TestQueryMatchesOracleOnBuilders pins every field of a point lookup's
// result to queryOracle on a slice of each paper dataset builder and on
// a synthetic fingerprint workload, for
// indices captured serially (Workers 1) and by parallel table workers
// (Workers 4, HashMinParallel 1), at probes {1, 2, 4} and m
// {1, 3}, probing every indexed record and a perturbed copy of every
// other one. Each index captures the slice, then a prefix of it, then
// the slice again, so the recaptures reuse the arrays of the previous
// build, as a Stream's index does on every TopK.
func TestQueryMatchesOracleOnBuilders(t *testing.T) {
	if testing.Short() {
		t.Skip("full filter runs per dataset")
	}
	p := NewProvider(42)
	benches := map[string]*datasets.Benchmark{
		"cora":     p.Cora(1),
		"spotsigs": p.SpotSigs(1, 0.4),
		"images":   p.Images("1.05", 15),
		"bits":     fingerprintBenchmark(),
	}
	const slice, prefix = 600, 400
	for name, full := range benches {
		b := sliceBenchmark(full, slice)
		plan, err := p.Plan(b, defaultSeq())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, capture := range []struct {
			name string
			opts core.Options
		}{
			{"workers=1", core.Options{K: 5, Workers: 1}},
			{"workers=4", core.Options{K: 5, Workers: 4, HashMinParallel: 1}},
		} {
			ix := &core.QueryIndex{}
			for round, n := range []int{slice, prefix, slice} {
				ds := sliceBenchmark(full, n).Dataset
				rng := xhash.NewRNG(7)
				probes := make([]record.Record, 0, ds.Len()*3/2)
				probes = append(probes, ds.Records...)
				for rec := 0; rec < ds.Len(); rec += 2 {
					probes = append(probes, perturbRecord(&ds.Records[rec], rng))
				}
				label := fmt.Sprintf("%s/%s/capture %d (%d records)", name, capture.name, round, n)
				opts := capture.opts
				opts.Capture = ix
				res, err := core.Filter(ds, plan, opts)
				if err != nil {
					t.Fatalf("%s: Filter: %v", label, err)
				}
				oracle := newQueryOracle(ds, plan, res.Clusters)
				lookups, matched := 0, 0
				cands := map[int]int{} // probes -> candidates over all lookups
				for _, np := range []int{1, 2, 4} {
					for qi := range probes {
						q := &probes[qi]
						// The oracle's answer at m = 1 is its answer at
						// m = 3 cut to one match; compute it once.
						want3 := oracle.query(q, np, 3)
						for _, m := range []int{1, 3} {
							at := fmt.Sprintf("%s/probes=%d/m=%d: probe %d", label, np, m, qi)
							got, err := ix.Query(q, m, core.QueryOptions{Probes: np})
							if err != nil {
								t.Fatalf("%s: %v", at, err)
							}
							want := *want3
							if len(want.Matches) > m {
								want.Matches = want.Matches[:m]
							}
							if !reflect.DeepEqual(got, &want) {
								t.Fatalf("%s: lookup differs from the oracle\n got %+v\nwant %+v", at, got, &want)
							}
							lookups++
							matched += len(got.MatchedRecords)
							cands[np] += len(got.Candidates)
						}
					}
				}
				if matched == 0 || cands[4] <= cands[1] {
					t.Fatalf("%s: %d matched records, candidates per probe count %v: the sweep exercises nothing", label, matched, cands)
				}
				t.Logf("%s: %d lookups equal the oracle (%d matched records, candidates per probe count %v)", label, lookups, matched, cands)
			}
		}
	}
}
