package experiments

// The -scale benchmark exercises the sharded scale-out path end to
// end at dataset sizes the in-memory harness never reaches: a Zipfian
// workload is streamed record-by-record into an out-of-core .col file
// (bounded generator memory), opened back through the mapping, and
// filtered with the sharded engine. The report (BENCH_scale.json)
// carries per-shard work/busy/cache stats, the cross-shard reconcile
// accounting and the hash stage's effective parallelism
// (work / wall — approaches the shard count when the hardware has the
// cores to run shards concurrently).

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/shard"
	"github.com/topk-er/adalsh/internal/xhash"
	"github.com/topk-er/adalsh/internal/zipfian"
)

// ScaleOptions configures one RunScale run.
type ScaleOptions struct {
	// Records is the workload size (required). Entities defaults to
	// Records/20 (at least 2). Zipf is the entity-size exponent,
	// default 0.6: flat enough that the head entity stays a fraction
	// of a percent of the corpus. Signature-cache memory is dominated
	// by the records of the largest clusters (they climb the whole
	// budget ladder, ~2.5k cached words each), so a head-heavy
	// exponent (1.0+) makes memory grow with head size — at 10M
	// records and zipf 1.0 the head entity alone holds ~7% of the
	// corpus and the run needs hundreds of GB of RAM.
	Records  int
	Entities int
	Zipf     float64
	// Shards is the engine width (default 4); Workers the concurrent
	// hashing bound (default Shards).
	Shards  int
	Workers int
	// K is the top-k argument (default 10).
	K    int
	Seed uint64
	// Family selects the signature family for the workload's Jaccard
	// rule: "classic" (default) or "oph" (one-permutation MinHash).
	// With "oph" the run also filters the same .col file once more
	// with the classic family and reports it as the Baseline row, so
	// one report carries the A/B comparison.
	Family string
	// Dir holds the working .col file (default: a temp dir). With
	// KeepCol the file survives the run (reported in ColFile).
	Dir     string
	KeepCol bool
	// Progress, when non-nil, receives phase log lines.
	Progress func(format string, args ...any)
}

// ScaleShardStats is one shard's report row: the engine's stats plus
// derived milliseconds (the raw struct reports nanoseconds).
type ScaleShardStats struct {
	shard.ShardStats
	BusyMS  float64 `json:"busy_ms"`
	CacheMB float64 `json:"cache_mb"`
}

// ScaleFamilyRow is one signature family's filter outcome over the
// scale workload — the comparable core of a run (plan+filter walls,
// hash-stage decomposition, output shape, counters). The main run's
// numbers stay in the top-level ScaleBench fields; a Baseline row
// appears only when ScaleOptions.Family selects a non-classic family.
type ScaleFamilyRow struct {
	Family         string           `json:"family"`
	PlanMS         float64          `json:"plan_ms"`
	FilterMS       float64          `json:"filter_ms"`
	HashWallMS     float64          `json:"hash_wall_ms"`
	HashWorkMS     float64          `json:"hash_work_ms"`
	PairwiseWallMS float64          `json:"pairwise_wall_ms"`
	Clusters       int              `json:"clusters"`
	Kept           int              `json:"kept_records"`
	Counters       map[string]int64 `json:"counters"`
}

// ScaleBench is the machine-readable outcome of one scale run
// (BENCH_scale.json).
type ScaleBench struct {
	// Workload shape.
	Records  int     `json:"records"`
	Entities int     `json:"entities"`
	Zipf     float64 `json:"zipf"`
	Shards   int     `json:"shards"`
	Workers  int     `json:"workers"`
	K        int     `json:"k"`
	Seed     uint64  `json:"seed"`
	// Family is the signature family of the main run ("classic" or
	// "oph"); Baseline (below) is the classic A/B row when oph.
	Family string `json:"family,omitempty"`
	// CPUs is GOMAXPROCS at run time — the context for reading
	// HashParallelism (see below).
	CPUs int `json:"cpus"`

	// Out-of-core store.
	ColFile  string `json:"col_file,omitempty"`
	ColBytes int64  `json:"col_bytes"`
	// Mapped is false only on platforms without mmap (heap fallback).
	Mapped bool `json:"mapped"`

	// Phase walls.
	GenerateMS float64 `json:"generate_ms"`
	OpenMS     float64 `json:"open_ms"`
	PlanMS     float64 `json:"plan_ms"`
	FilterMS   float64 `json:"filter_ms"`

	// Hash-stage decomposition. HashWorkMS sums the per-shard hashing
	// span durations; HashWallMS is the stage's wall clock, so the
	// ratio is the average number of shards in flight. On hardware
	// with >= min(shards, workers) cores each in-flight shard has its
	// own core and the ratio IS the hashing-stage speedup over
	// running the shards back-to-back; on fewer cores (see CPUs) the
	// spans overlap through the scheduler and the ratio reports
	// concurrency, not speedup.
	HashWallMS      float64 `json:"hash_wall_ms"`
	HashWorkMS      float64 `json:"hash_work_ms"`
	HashParallelism float64 `json:"hash_parallelism"`
	// ReconcileWallMS is the cross-shard reconcile's wall time.
	ReconcileWallMS float64 `json:"reconcile_wall_ms"`
	PairwiseWallMS  float64 `json:"pairwise_wall_ms"`

	// Outcome.
	Clusters       int     `json:"clusters"`
	Kept           int     `json:"kept_records"`
	TopClusterSize int     `json:"top_cluster_size"`
	HeapMB         float64 `json:"heap_mb"`

	PerShard []ScaleShardStats   `json:"per_shard"`
	Boundary shard.BoundaryStats `json:"boundary"`
	Counters map[string]int64    `json:"counters"`

	// Baseline is the classic-family A/B row over the same .col file
	// (set only when ScaleOptions.Family is "oph").
	Baseline *ScaleFamilyRow `json:"baseline,omitempty"`
}

// WriteJSON writes the report as indented JSON.
func (r *ScaleBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// scaleRule is the workload's matching rule: Jaccard distance at most
// 0.5 on the single token-set field. Two perturbed copies of an
// entity sit at ~0.25 expected distance, unrelated records at ~1.0 —
// a wide margin on both sides, which matters at this scale: the
// sharper the rule separates, the shorter the hash prefixes the
// adaptive loop needs, and the signature cache (not the mmap'd
// dataset) is what bounds how many records fit in RAM.
func scaleRule() distance.Rule {
	return distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
}

// scaleBaseTokens is the entity base-set size; scaleRetain the token
// retention per record (see scaleRule on why retention is high).
const (
	scaleBaseTokens = 24
	scaleRetain     = 0.9
)

// scaleRecord derives record fields deterministically from (seed,
// entity, record index): the entity's base tokens are a pure function
// of the entity ID, each record keeps ~85% of them plus up to two
// noise tokens. No per-entity state is retained, so generation memory
// stays flat in the dataset size.
func scaleRecord(seed uint64, ent, rec int, buf []uint64) record.Set {
	rng := xhash.NewRNG(xhash.Combine(seed, uint64(rec)+0x9e3779b97f4a7c15))
	buf = buf[:0]
	entSeed := xhash.Combine(seed, uint64(ent))
	for j := 0; j < scaleBaseTokens; j++ {
		if rng.Float64() < scaleRetain {
			buf = append(buf, xhash.SplitMix64(entSeed+uint64(j)))
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		buf = append(buf, rng.Uint64())
	}
	return record.NewSet(buf)
}

// generateScaleCol streams the Zipfian workload into a .col file.
func generateScaleCol(path string, opts ScaleOptions) error {
	sizes := zipfian.Sizes(opts.Records, opts.Entities, opts.Zipf)
	// Interleave entities so ingest order carries no signal: lay out
	// the truth sequence entity-by-entity, then shuffle it.
	truth := make([]int32, 0, opts.Records)
	for ent, sz := range sizes {
		for i := 0; i < sz; i++ {
			truth = append(truth, int32(ent))
		}
	}
	rng := xhash.NewRNG(opts.Seed ^ 0x5ca1e)
	rng.Shuffle(len(truth), func(i, j int) { truth[i], truth[j] = truth[j], truth[i] })

	w, err := dsio.CreateCol(path, fmt.Sprintf("scale-%d", opts.Records))
	if err != nil {
		return err
	}
	buf := make([]uint64, 0, scaleBaseTokens+2)
	for rec, ent := range truth {
		if err := w.Append(int(ent), scaleRecord(opts.Seed, int(ent), rec, buf)); err != nil {
			return err
		}
	}
	return w.Close()
}

// scaleFilterPhase is one family's plan+filter pass over the opened
// workload: design a plan for rule, filter through a fresh sharded
// engine, and aggregate the comparable outcome row. The engine and
// result are returned so the main run can also report per-shard and
// boundary detail (the baseline pass discards them).
func scaleFilterPhase(ds *record.Dataset, rule distance.Rule, family string, opts ScaleOptions) (*ScaleFamilyRow, *shard.Engine, *core.Result, error) {
	row := &ScaleFamilyRow{Family: family}
	t0 := time.Now()
	plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{Seed: opts.Seed})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scale: designing plan: %w", err)
	}
	row.PlanMS = time.Since(t0).Seconds() * 1000

	col := obs.NewCollector()
	eng, err := shard.New(ds, shard.Options{
		Shards: opts.Shards, K: opts.K, Workers: opts.Workers, Obs: col,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	t0 = time.Now()
	res, err := eng.Filter(plan)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("scale: filtering: %w", err)
	}
	row.FilterMS = time.Since(t0).Seconds() * 1000

	hashWall, hashWork, _ := col.StageAgg(obs.StageHash)
	row.HashWallMS = hashWall.Seconds() * 1000
	row.HashWorkMS = hashWork.Seconds() * 1000
	pairWall, _, _ := col.StageAgg(obs.StagePairwise)
	row.PairwiseWallMS = pairWall.Seconds() * 1000
	row.Clusters = len(res.Clusters)
	row.Kept = len(res.Output)
	row.Counters = col.Counters()
	return row, eng, res, nil
}

// RunScale generates the workload out-of-core, runs the sharded
// engine over the mapping and reports the result.
func RunScale(opts ScaleOptions) (*ScaleBench, error) {
	if opts.Records < 4 {
		return nil, fmt.Errorf("scale: %d records, want >= 4", opts.Records)
	}
	if opts.Entities <= 0 {
		opts.Entities = opts.Records / 20
	}
	if opts.Entities < 2 {
		opts.Entities = 2
	}
	if opts.Zipf == 0 {
		opts.Zipf = 0.6
	}
	if opts.Shards <= 0 {
		opts.Shards = 4
	}
	if opts.Workers <= 0 {
		opts.Workers = opts.Shards
	}
	if opts.K <= 0 {
		opts.K = 10
	}
	switch opts.Family {
	case "":
		opts.Family = "classic"
	case "classic", "oph":
	default:
		return nil, fmt.Errorf("scale: unknown family %q (want classic or oph)", opts.Family)
	}
	progress := opts.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}
	dir := opts.Dir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "adalsh-scale"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rep := &ScaleBench{
		Records: opts.Records, Entities: opts.Entities, Zipf: opts.Zipf,
		Shards: opts.Shards, Workers: opts.Workers, K: opts.K, Seed: opts.Seed,
		CPUs: runtime.GOMAXPROCS(0),
	}

	colPath := filepath.Join(dir, fmt.Sprintf("scale_%d.col", opts.Records))
	t0 := time.Now()
	if err := generateScaleCol(colPath, opts); err != nil {
		return nil, fmt.Errorf("scale: generating workload: %w", err)
	}
	rep.GenerateMS = time.Since(t0).Seconds() * 1000
	if st, err := os.Stat(colPath); err == nil {
		rep.ColBytes = st.Size()
	}
	if opts.KeepCol {
		rep.ColFile = colPath
	}
	progress("generated %d records (%d entities, zipf %.2f) into %s (%.1f MB) in %.1fs",
		opts.Records, opts.Entities, opts.Zipf, colPath,
		float64(rep.ColBytes)/(1<<20), rep.GenerateMS/1000)

	t0 = time.Now()
	cf, err := dsio.OpenCol(colPath)
	if err != nil {
		return nil, fmt.Errorf("scale: opening col file: %w", err)
	}
	defer cf.Close()
	rep.OpenMS = time.Since(t0).Seconds() * 1000
	rep.Mapped = cf.Mapped

	rule := scaleRule()
	rep.Family = opts.Family
	if opts.Family == "oph" {
		rule = distance.WithJaccardOPH(rule)
	}
	progress("opened (mapped=%v, %.1fms); filtering with %d shards x %d workers, family %s",
		cf.Mapped, rep.OpenMS, opts.Shards, opts.Workers, opts.Family)
	row, eng, res, err := scaleFilterPhase(cf.Dataset, rule, opts.Family, opts)
	if err != nil {
		return nil, err
	}
	rep.PlanMS = row.PlanMS
	rep.FilterMS = row.FilterMS
	rep.HashWallMS = row.HashWallMS
	rep.HashWorkMS = row.HashWorkMS
	if row.HashWallMS > 0 {
		rep.HashParallelism = row.HashWorkMS / row.HashWallMS
	}
	rep.PairwiseWallMS = row.PairwiseWallMS
	rep.Clusters = row.Clusters
	rep.Kept = row.Kept
	rep.Counters = row.Counters
	if len(res.Clusters) > 0 {
		rep.TopClusterSize = res.Clusters[0].Size()
	}
	for _, st := range eng.PerShard() {
		rep.PerShard = append(rep.PerShard, ScaleShardStats{
			ShardStats: st,
			BusyMS:     st.Busy.Seconds() * 1000,
			CacheMB:    float64(st.CacheBytes) / (1 << 20),
		})
	}
	rep.Boundary = eng.Boundary()
	rep.ReconcileWallMS = rep.Boundary.Wall.Seconds() * 1000

	if opts.Family == "oph" {
		// A/B row: the classic family over the very same .col file, so
		// the report carries both hash-stage decompositions side by side.
		progress("running classic-family baseline over the same workload")
		base, _, _, err := scaleFilterPhase(cf.Dataset, scaleRule(), "classic", opts)
		if err != nil {
			return nil, fmt.Errorf("scale: classic baseline: %w", err)
		}
		rep.Baseline = base
		progress("baseline: hash wall %.1fs vs %.1fs oph (%.2fx)",
			base.HashWallMS/1000, rep.HashWallMS/1000,
			base.HashWallMS/max(rep.HashWallMS, 1e-9))
	}

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	rep.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	progress("filtered in %.1fs: %d clusters, %d records kept (top %d); hash wall %.1fs work %.1fs (parallelism %.2f), reconcile %.1fs",
		rep.FilterMS/1000, rep.Clusters, rep.Kept, rep.TopClusterSize,
		rep.HashWallMS/1000, rep.HashWorkMS/1000, rep.HashParallelism, rep.ReconcileWallMS/1000)
	return rep, nil
}
