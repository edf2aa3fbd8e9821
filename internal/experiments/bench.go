package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/snapio"
)

// StageBench is one stage's aggregate in a BenchReport: wall and
// cumulative busy time summed over the stage's spans.
type StageBench struct {
	Stage  string  `json:"stage"`
	WallMS float64 `json:"wall_ms"`
	WorkMS float64 `json:"work_ms"`
	Spans  int     `json:"spans"`
	// Memory deltas summed over the stage's spans (Options.MemSample;
	// the bench harness always samples). AllocBytes/Mallocs are the
	// runtime's TotalAlloc/Mallocs growth across the stage, GCPauseNS
	// the stop-the-world pause time — process-wide counters, meaningful
	// here because the measured run is the only workload.
	AllocBytes int64 `json:"alloc_bytes"`
	Mallocs    int64 `json:"mallocs"`
	GCPauseNS  int64 `json:"gc_pause_ns"`
}

// RunBench is one instrumented filtering run inside a BenchReport.
type RunBench struct {
	// Workers is the resolved worker-pool size of the run.
	Workers int `json:"workers"`
	// ElapsedMS is the run's wall-clock filtering time.
	ElapsedMS float64 `json:"elapsed_ms"`
	// ModelCost is the Definition 3 cost of the run.
	ModelCost float64 `json:"model_cost"`
	// HashEvals is the total base hash evaluations across hashers.
	HashEvals int64 `json:"hash_evals"`
	// PairsComputed counts exact distance evaluations by P.
	PairsComputed int64 `json:"pairs_computed"`
	// PairwiseNsPerPair is the pairwise stage's wall time divided by
	// PairsComputed — the per-pair cost of the prepared match kernels
	// on this dataset (0 when P never ran). Read it together with the
	// kernel_prefilter_rejects / kernel_early_exits counters to judge
	// kernel effectiveness per dataset.
	PairwiseNsPerPair float64 `json:"pairwise_ns_per_pair"`
	// Stages aggregates the run's spans per stage, stage-name order.
	Stages []StageBench `json:"stages"`
	// Counters snapshots every non-zero obs counter by stable name.
	Counters map[string]int64 `json:"counters"`
}

// BenchReport is the machine-readable outcome of one paperbench
// dataset benchmark: the same filtering problem run serially and with
// a worker pool, with per-stage breakdowns and the work counters of
// both runs. The counters are deterministic — Parallel.Counters must
// equal Serial.Counters exactly (the parallel stages do the same
// logical work; the pairwise stage is pinned serial via
// PairwiseMinPairs so its comparison count cannot drift).
type BenchReport struct {
	Dataset         string   `json:"dataset"`
	Records         int      `json:"records"`
	K               int      `json:"k"`
	Seed            uint64   `json:"seed"`
	Serial          RunBench `json:"serial"`
	Parallel        RunBench `json:"parallel"`
	SpeedupVsSerial float64  `json:"speedup_vs_serial"`
	// Query benchmarks the online point-query path against the same
	// dataset: one captured index, then one lookup per sampled record.
	Query QueryBench `json:"query"`
	// Restore benchmarks the warm-restart path: snapshot a finished
	// streaming session, restore it, and re-answer the query from the
	// restored signature cache.
	Restore RestoreBench `json:"restore"`
}

// RestoreBench summarizes the snapshot/restore path (snapio) for one
// dataset: encoded size, save/load latency, and the cold-vs-warm query
// cost. WarmHashEvals is contractually 0 — a restored session answers
// the same query entirely from its persisted signature cache.
type RestoreBench struct {
	// SnapshotBytes is the encoded snapshot size.
	SnapshotBytes int64 `json:"snapshot_bytes"`
	// SaveMS / RestoreMS are the wall-clock encode and decode times.
	SaveMS    float64 `json:"save_ms"`
	RestoreMS float64 `json:"restore_ms"`
	// ColdMS is the first TopK on a fresh stream (plan design, cost
	// calibration and every hash evaluation included); WarmMS is the
	// same TopK re-answered by the restored session.
	ColdMS      float64 `json:"cold_ms"`
	WarmMS      float64 `json:"warm_ms"`
	WarmSpeedup float64 `json:"warm_speedup"`
	// WarmHashEvals counts base hash evaluations during the warm
	// query (obs hash_evals); anything above 0 means the restored
	// cache failed to serve a signature.
	WarmHashEvals int64 `json:"warm_hash_evals"`
}

// benchRestore runs the warm-restart benchmark: feed the dataset into
// a stream, answer TopK cold, snapshot, restore, answer again warm.
func benchRestore(b *datasets.Benchmark, k int) (RestoreBench, error) {
	var rb RestoreBench
	s := core.NewStream(b.Rule, core.SequenceConfig{})
	s.SetReplanGrowth(math.Inf(1))
	for i := range b.Dataset.Records {
		s.AddWithTruth(b.Dataset.Truth[i], b.Dataset.Records[i].Fields...)
	}
	start := time.Now()
	if _, err := s.TopK(k); err != nil {
		return rb, err
	}
	rb.ColdMS = time.Since(start).Seconds() * 1000

	var buf bytes.Buffer
	start = time.Now()
	if err := snapio.Snapshot(&buf, s); err != nil {
		return rb, err
	}
	rb.SaveMS = time.Since(start).Seconds() * 1000
	rb.SnapshotBytes = int64(buf.Len())

	col := obs.NewCollector()
	start = time.Now()
	r, err := snapio.RestoreWithObs(bytes.NewReader(buf.Bytes()), col)
	if err != nil {
		return rb, err
	}
	rb.RestoreMS = time.Since(start).Seconds() * 1000

	start = time.Now()
	if _, err := r.TopK(k); err != nil {
		return rb, err
	}
	rb.WarmMS = time.Since(start).Seconds() * 1000
	rb.WarmHashEvals = col.Counter(obs.CtrHashEvals)
	if rb.WarmMS > 0 {
		rb.WarmSpeedup = rb.ColdMS / rb.WarmMS
	}
	return rb, nil
}

// QueryBench summarizes the online point-query path (Stream.Query /
// QueryIndex.Query): per-lookup latency quantiles plus the probe and
// candidate work counters, over one index captured by a serial filter.
type QueryBench struct {
	// Lookups is the number of point queries timed.
	Lookups int `json:"lookups"`
	// MedianUS / P95US are per-lookup latency quantiles in microseconds.
	MedianUS float64 `json:"median_us"`
	P95US    float64 `json:"p95_us"`
	// Probes / Candidates are the CtrQueryProbes / CtrQueryCandidates
	// totals across the lookups (bucket keys probed, records verified).
	Probes     int64 `json:"query_probes"`
	Candidates int64 `json:"query_candidates"`
}

// benchQueryLookups caps the number of point queries a QueryBench
// times (records are sampled evenly when the dataset is larger).
const benchQueryLookups = 256

// benchQuery captures a point-query index from one serial filter run
// and times a Query per sampled record.
func benchQuery(b *datasets.Benchmark, plan *core.Plan, k int) (QueryBench, error) {
	ix := &core.QueryIndex{}
	if _, err := core.Filter(b.Dataset, plan, core.Options{K: k, Workers: 1, Capture: ix}); err != nil {
		return QueryBench{}, err
	}
	stride := 1
	if n := b.Dataset.Len(); n > benchQueryLookups {
		stride = n / benchQueryLookups
	}
	col := obs.NewCollector()
	var lat []float64
	for i := 0; i < b.Dataset.Len(); i += stride {
		start := time.Now()
		if _, err := ix.Query(&b.Dataset.Records[i], 3, core.QueryOptions{Obs: col}); err != nil {
			return QueryBench{}, err
		}
		lat = append(lat, time.Since(start).Seconds()*1e6)
	}
	sort.Float64s(lat)
	counters := col.Counters()
	return QueryBench{
		Lookups:    len(lat),
		MedianUS:   lat[len(lat)/2],
		P95US:      lat[len(lat)*95/100],
		Probes:     counters[obs.CtrQueryProbes.String()],
		Candidates: counters[obs.CtrQueryCandidates.String()],
	}, nil
}

// benchHashMinParallel is the cluster-size floor for the parallel
// run's hash stage. The built-in floor targets production datasets;
// the bench datasets sit below it, so the parallel run lowers the bar
// to actually exercise the parallel hash path (counters are identical
// either way — that is the contract under test).
const benchHashMinParallel = 256

// benchRun executes one instrumented filter over the benchmark.
func benchRun(b *datasets.Benchmark, plan *core.Plan, k, workers, hashShards, hashMin int) (RunBench, error) {
	col := obs.NewCollector()
	opts := core.Options{
		K: k, Workers: workers, HashShards: hashShards,
		HashMinParallel: hashMin,
		// Pin the pairwise stage serial: its parallel path may compare
		// a few extra pairs per wave (a merge can land mid-wave), and
		// BENCH counters are contractually identical across runs.
		PairwiseMinPairs: 1 << 62,
		Obs:              col,
		// Per-stage allocation deltas are part of the BENCH report.
		MemSample: true,
	}
	res, err := core.Filter(b.Dataset, plan, opts)
	if err != nil {
		return RunBench{}, err
	}
	run := RunBench{
		Workers:       res.Stats.Workers,
		ElapsedMS:     res.Stats.Elapsed.Seconds() * 1000,
		ModelCost:     res.Stats.ModelCost,
		PairsComputed: res.Stats.PairsComputed,
		Counters:      col.Counters(),
	}
	for _, n := range res.Stats.HashEvals {
		run.HashEvals += n
	}
	for s := obs.Stage(0); int(s) < obs.NumStages; s++ {
		wall, work, spans := col.StageAgg(s)
		if spans == 0 {
			continue
		}
		mem, _ := col.StageMem(s)
		run.Stages = append(run.Stages, StageBench{
			Stage:      s.String(),
			WallMS:     wall.Seconds() * 1000,
			WorkMS:     work.Seconds() * 1000,
			Spans:      spans,
			AllocBytes: mem.AllocBytes,
			Mallocs:    mem.Mallocs,
			GCPauseNS:  mem.GCPauseNS,
		})
	}
	if run.PairsComputed > 0 {
		wall, _, _ := col.StageAgg(obs.StagePairwise)
		run.PairwiseNsPerPair = float64(wall.Nanoseconds()) / float64(run.PairsComputed)
	}
	return run, nil
}

// Bench runs the serial-vs-parallel benchmark for one named benchmark
// dataset. workers <= 1 resolves the parallel run to GOMAXPROCS.
func Bench(p *Provider, name string, b *datasets.Benchmark, k, workers, hashShards int) (*BenchReport, error) {
	if workers <= 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	plan, err := p.Plan(b, core.SequenceConfig{})
	if err != nil {
		return nil, err
	}
	rep := &BenchReport{Dataset: name, Records: b.Dataset.Len(), K: k, Seed: p.Seed}
	if rep.Serial, err = benchRun(b, plan, k, 1, 0, 0); err != nil {
		return nil, err
	}
	if rep.Parallel, err = benchRun(b, plan, k, workers, hashShards, benchHashMinParallel); err != nil {
		return nil, err
	}
	if rep.Parallel.ElapsedMS > 0 {
		rep.SpeedupVsSerial = rep.Serial.ElapsedMS / rep.Parallel.ElapsedMS
	}
	if rep.Query, err = benchQuery(b, plan, k); err != nil {
		return nil, err
	}
	if rep.Restore, err = benchRestore(b, k); err != nil {
		return nil, err
	}
	return rep, nil
}

// CounterMismatch compares the serial and parallel counter snapshots
// of a report and returns the names that differ (empty means the
// determinism contract holds).
func (r *BenchReport) CounterMismatch() []string {
	var bad []string
	seen := make(map[string]bool)
	for name, v := range r.Serial.Counters {
		seen[name] = true
		if r.Parallel.Counters[name] != v {
			bad = append(bad, name)
		}
	}
	for name := range r.Parallel.Counters {
		if !seen[name] && r.Parallel.Counters[name] != 0 {
			bad = append(bad, name)
		}
	}
	sort.Strings(bad)
	return bad
}

// WriteJSON writes the report as indented JSON.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// BenchAll runs the standard paperbench benchmark suite: one report
// per dataset. quick trims to the smallest scales.
func BenchAll(p *Provider, quick bool, skipImages bool, workers, hashShards int) ([]*BenchReport, error) {
	type entry struct {
		name string
		b    *datasets.Benchmark
		k    int
	}
	entries := []entry{
		{"cora", p.Cora(1), 10},
		{"spotsigs", p.SpotSigs(1, 0.4), 10},
	}
	if !skipImages && !quick {
		entries = append(entries, entry{"images", p.Images("1.05", 3), 10})
	}
	var reports []*BenchReport
	for _, e := range entries {
		rep, err := Bench(p, e.name, e.b, e.k, workers, hashShards)
		if err != nil {
			return reports, fmt.Errorf("experiments: bench %s: %w", e.name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
