package main

import (
	"runtime"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/rulespec"
	"github.com/topk-er/adalsh/internal/xhash"
	"github.com/topk-er/adalsh/internal/zipfian"
)

// contentSeed fixes the records of every workload, and with them the
// probe records. The committed cost pins (pins.go) were calibrated on
// exactly these records, and record content decides Algorithm 1's
// route, its time and its F1: a seed that changed the records would
// move every metric with the records rather than with the program. The
// run seed (--seed) picks the records' arrival order (record IDs, shard
// placement, bucket insertion order) and the order of every send, which
// leaves the work nearly unchanged.
const contentSeed = 1

// runConfig is one invocation of a workload.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	// toy shrinks the inputs so the smoke test runs every workload in
	// seconds through the same code. The F1 floors hold only for the
	// full-size records and are not checked on toy ones.
	toy       bool
	workDir   string // scratch files (.col, snapshots); removed after the run
	tracePath string // Chrome trace-event JSON of a traced run
	commit    string
}

// env is the hardware and build context recorded with every output.
func (c runConfig) env() map[string]any {
	return map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"go_version": runtime.Version(),
		"commit":     c.commit,
		"workers":    workers,
		// shard.hash_overlap is a speed-up only with a core per shard.
		"hash_overlap_is_speedup": runtime.NumCPU() >= corpusSpec.shards,
	}
}

// workload is one named traffic mix of the benchmark.
type workload struct {
	name string
	run  func(runConfig) (*result, error)
	// calibrate returns the records and rule the workload's cost pin
	// is calibrated on.
	calibrate func() (*record.Dataset, distance.Rule)
}

var workloads = []workload{
	{"corpus-250k-sharded", func(c runConfig) (*result, error) { return runBatch(corpusSpec, c) },
		func() (*record.Dataset, distance.Rule) { return corpusSpec.content(false) }},
	{"spotsigs", func(c runConfig) (*result, error) { return runBatch(spotsigsSpec, c) },
		func() (*record.Dataset, distance.Rule) { return spotsigsSpec.content(false) }},
	{"images-query", func(c runConfig) (*result, error) { return runBatch(imagesSpec, c) },
		func() (*record.Dataset, distance.Rule) { return imagesSpec.content(false) }},
	{"serve-mixed", func(c runConfig) (*result, error) { return runServe(serveMixed, c) }, serveCalibration},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// The sizes below keep a filter pass to a few seconds at most and a
// lookup to a few milliseconds, so that one run holds several passes
// (dozens on the smaller workloads) and thousands of lookups spread over
// its whole length. The cores of a shared machine run the same code up
// to twice as slow for tens of seconds at a time; only medians over a
// whole run repeat from run to run.

// corpus-250k-sharded: the scale path at a quarter of the 1M records
// it was specified with. 250k small token-set records are written to a
// .col file and mapped; the 2-shard engine filters them. Bucket-key
// composition, table insert, forest reduce and cross-shard reconcile do
// most of the work; sets are short, so signature extension and
// verification are light. At this size the shards' signature caches
// (about 260 MB) and bucket tables are far beyond the CPU caches, and a
// bucket collision costs within about 10% of what it costs at 1M
// records (415 vs 462 ns of hashing work on a 2-vCPU Xeon VM); at 10k
// records it cost half. At 1M records a pass takes 12 s and the engine alone
// 2.7 GB, twice that while the lookup index is built: too long for the
// benchmark's run budget and too large for a shared machine.
var corpusSpec = &batchSpec{
	content:        corpusContent,
	k:              10,
	shards:         2,
	lookupsPerPass: 1000,
	lookupRate:     500,
	probes:         200,
	f1Floor:        0.95,
	pin:            pinCorpus,
}

// spotsigs: long shingle sets (2.2k articles, hundreds of spot
// signatures each), so signature extension in Cache.Ensure dominates
// the passes and the lookups' probe hashing.
var spotsigsSpec = &batchSpec{
	content: func(toy bool) (*record.Dataset, distance.Rule) {
		b := datasets.SpotSigs(1, 0.4, contentSeed)
		if toy {
			return b.Dataset.Subset(b.Dataset.Name, seq(600)), b.Rule
		}
		return b.Dataset, b.Rule
	},
	k:              10,
	lookupsPerPass: 150,
	lookupRate:     500,
	probes:         200,
	f1Floor:        0.6,
	pin:            pinSpotSigs,
}

// images-query: cosine colour histograms, every third entity of the
// 10k-record PopularImages set (3.6k records, the same Zipf head).
// Lookups verify about a thousand candidates each with the prepared
// kernel; after the index is built no hashing happens, so a hashing
// change should leave query_* flat.
var imagesSpec = &batchSpec{
	content: func(toy bool) (*record.Dataset, distance.Rule) {
		b := datasets.PopularImages("1.05", 3, contentSeed)
		every := 3
		if toy {
			every = 12
		}
		var keep []int
		for i, ent := range b.Dataset.Truth {
			if ent%every == 0 {
				keep = append(keep, i)
			}
		}
		return b.Dataset.Subset(b.Dataset.Name, keep), b.Rule
	},
	k:              10,
	lookupsPerPass: 100,
	lookupRate:     350,
	probes:         200,
	f1Floor:        0.9,
	pin:            pinImages,
}

// serve-mixed: the same kind of stream used as a service. Writes run
// beside reads, the signature cache is warm, TopK holds the session
// write lock while queries wait, and checkpoints go through snapio.
// The warm set is a quarter of the load generator's 20k records; it
// must stay above four times the records ingested between two TopKs
// (1000), or point queries would find the index stale and rebuild it
// under the write lock, which the 20k-record session never does.
var serveMixed = &serveSpec{
	warm: 5000, k: 10,
	rule:            "jaccard@0 <= 0.4",
	ingestRate:      100,
	ingestBatch:     20,
	topkEvery:       10 * time.Second,
	checkpointEvery: 2000,
	ladder:          []float64{150, 300, 600, 1200},
	probes:          200,
	latencyLimit:    250 * time.Millisecond,
	f1Floor:         0.9,
	pin:             pinServe,
}

func serveCalibration() (*record.Dataset, distance.Rule) {
	warm, err := serveRecords(serveMixed.warm, 0, 1)
	if err != nil {
		panic(err) // no records are ingested
	}
	rule, err := rulespec.Parse(serveMixed.rule)
	if err != nil {
		panic(err) // a constant of this file
	}
	return warm, rule
}

// corpusContent builds the scale corpus: Zipf(0.6)-sized entities over
// n/20 entities, each record a 90% sample of its entity's 24 base
// tokens plus up to two noise tokens, matched at Jaccard distance 0.5
// (the recipe of paperbench -scale).
func corpusContent(toy bool) (*record.Dataset, distance.Rule) {
	n := 250000
	if toy {
		n = 4000
	}
	ds := &record.Dataset{Name: "corpus"}
	buf := make([]uint64, 0, 26)
	for ent, size := range zipfian.Sizes(n, n/20, 0.6) {
		entSeed := xhash.Combine(contentSeed, uint64(ent))
		for j := 0; j < size; j++ {
			rng := xhash.NewRNG(xhash.Combine(entSeed, uint64(j)+0x9e3779b97f4a7c15))
			buf = buf[:0]
			for t := 0; t < 24; t++ {
				if rng.Float64() < 0.9 {
					buf = append(buf, xhash.SplitMix64(entSeed+uint64(t)))
				}
			}
			for extra := rng.Intn(3); extra > 0; extra-- {
				buf = append(buf, rng.Uint64())
			}
			ds.Add(ent, record.NewSet(buf))
		}
	}
	return ds, distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
}

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// medianCost calibrates the cost model live reps times and returns the
// per-parameter medians (the -calibrate mode; its output is pasted
// into pins.go).
func medianCost(ds *record.Dataset, rule distance.Rule, reps int) (core.CostModel, error) {
	var ps []float64
	var fs [][]float64
	for i := 0; i < reps; i++ {
		plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: contentSeed})
		if err != nil {
			return core.CostModel{}, err
		}
		ps = append(ps, plan.Cost.CostP)
		for h, c := range plan.Cost.CostFunc {
			if h == len(fs) {
				fs = append(fs, nil)
			}
			fs[h] = append(fs[h], c)
		}
	}
	m := core.CostModel{CostP: median(ps)}
	for _, f := range fs {
		m.CostFunc = append(m.CostFunc, median(f))
	}
	return m, nil
}
