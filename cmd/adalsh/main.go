// Command adalsh filters a JSON dataset down to the records of its k
// largest entities using Adaptive LSH.
//
// Usage:
//
//	adalsh -input data.json -rule 'jaccard@0 <= 0.6' -k 10 [-khat 20]
//	       [-method ada|lsh|pairs] [-x 1280] [-workers 0]
//	       [-seed 42] [-family classic|oph] [-json]
//	adalsh -input data.json -rule '...' -k 10 -query 5,17 [-query-m 3]
//	       [-query-probes 2]   # online point lookups after one build
//	adalsh -input data.json -rule '...' -k 10 -save-state s.snap
//	adalsh -load-state s.snap -k 10 [-input more.json]
//	       # warm restart: reuse the saved plan and hash cache
//
// The dataset format is documented in internal/dsio. The rule language
// (internal/rulespec):
//
//	jaccard@FIELD <= DIST | cosine@FIELD <= DIST
//	hamming@FIELD <= DIST | l2(SCALE[,BUCKET])@FIELD <= DIST
//	and(R, R, ...) | or(R, R, ...) | wavg(metric@F*W + ... <= DIST)
//
// Output: one line per cluster with its record IDs, or -json for a
// machine-readable report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	adalsh "github.com/topk-er/adalsh"
	"github.com/topk-er/adalsh/internal/dsio"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/profiling"
	"github.com/topk-er/adalsh/internal/rulespec"
	"github.com/topk-er/adalsh/internal/snapio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adalsh: ")
	input := flag.String("input", "", "dataset file (required; - for JSON on stdin; a .col suffix opens the out-of-core column format)")
	ruleStr := flag.String("rule", "", "matching rule, e.g. 'jaccard@0 <= 0.6' (required)")
	k := flag.Int("k", 10, "number of top entities to find")
	khat := flag.Int("khat", 0, "clusters to return (default k)")
	method := flag.String("method", "ada", "ada (adaptive LSH), lsh (one-shot LSH-X) or pairs (exact)")
	x := flag.Int("x", 1280, "hash budget for -method lsh")
	workers := flag.Int("workers", 0, "worker-pool size for the parallel pairwise/hashing stages (0 = all CPUs, 1 = serial)")
	shards := flag.Int("shards", 0, "run through the sharded scale-out engine with this many record partitions (-method ada; output is byte-identical; 0/1 = single engine)")
	seed := flag.Uint64("seed", 42, "hashing seed")
	family := flag.String("family", "classic", "signature family for jaccard leaves: classic (one hash per function) or oph (one-permutation MinHash, O(|S|+K) signatures)")
	asJSON := flag.Bool("json", false, "emit a JSON report")
	planIn := flag.String("plan", "", "load a previously saved plan instead of designing one (-method ada)")
	planOut := flag.String("save-plan", "", "save the designed plan to this file (-method ada)")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	tracePath := flag.String("trace", "", "write an execution trace of the run to this file (inspect with go tool trace)")
	memprofPath := flag.String("memprofile", "", "write an allocation (heap) profile of the run to this file (inspect with go tool pprof -sample_index=alloc_objects)")
	statsJSON := flag.String("stats-json", "", "stream per-stage spans and work counters as JSON lines to this file (- for stderr)")
	saveState := flag.String("save-state", "", "snapshot the stream session (records, plan, hash cache) to this file after the run (-method ada; atomic write)")
	loadState := flag.String("load-state", "", "warm-restart from a -save-state snapshot instead of hashing from scratch (-method ada; -input and -rule become optional; an -input larger than the snapshot appends its tail records)")
	queryRecs := flag.String("query", "", "comma-separated record indices to point-query after one top-k build (online Stream.Query mode; -method ada only)")
	queryM := flag.Int("query-m", 3, "candidate clusters to return per -query lookup")
	queryProbes := flag.Int("query-probes", 0, "multi-probe keys per table for -query (0 = default)")
	flag.Parse()

	if (*input == "" || *ruleStr == "") && *loadState == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := validateMethodFlags(*method, *queryRecs, *saveState, *loadState, *planIn, *planOut); err != nil {
		log.Fatal(err)
	}
	if *shards > 1 {
		if *method != "ada" {
			log.Fatalf("-shards requires -method ada (got -method %s)", *method)
		}
		if *queryRecs != "" {
			log.Fatal("-query is unavailable with -shards > 1: the sharded engine retains no point-query index")
		}
	}
	stopProf, err := profiling.Start(*pprofPath, *tracePath, *memprofPath)
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Fatal(err)
		}
	}()
	var ds *adalsh.Dataset
	switch {
	case strings.HasSuffix(*input, ".col"):
		// Out-of-core column file: the token data stays memory-mapped on
		// disk, only record headers come into the heap.
		cf, err := dsio.OpenCol(*input)
		if err != nil {
			log.Fatal(err)
		}
		defer cf.Close()
		ds = cf.Dataset
	case *input != "":
		in := os.Stdin
		if *input != "-" {
			f, err := os.Open(*input)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			in = f
		}
		if ds, err = dsio.Read(in); err != nil {
			log.Fatal(err)
		}
	}
	var rule adalsh.Rule
	if *ruleStr != "" {
		if rule, err = rulespec.Parse(*ruleStr); err != nil {
			log.Fatal(err)
		}
	}
	switch *family {
	case "", "classic":
	case "oph":
		if rule != nil {
			rule = adalsh.WithJaccardOPH(rule)
		}
	default:
		log.Fatalf("unknown -family %q (want classic or oph)", *family)
	}

	cfg := adalsh.Config{
		K: *k, ReturnClusters: *khat,
		Workers: *workers, Shards: *shards,
		Sequence: adalsh.SequenceConfig{Seed: *seed},
	}
	var statsSink *adalsh.StatsWriter
	if *statsJSON != "" {
		out := os.Stderr
		if *statsJSON != "-" {
			f, err := os.Create(*statsJSON)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			out = f
		}
		statsSink = adalsh.NewStatsWriter(out)
		cfg.Obs = statsSink
	}
	defer func() {
		if statsSink != nil {
			if err := statsSink.Err(); err != nil {
				log.Fatalf("writing -stats-json: %v", err)
			}
		}
	}()
	if *queryRecs != "" {
		if err := runQueries(ds, rule, cfg, *queryRecs, *queryM, *queryProbes, *asJSON, *loadState, *saveState); err != nil {
			log.Fatal(err)
		}
		return
	}
	var res *adalsh.Result
	switch *method {
	case "ada":
		if *saveState != "" || *loadState != "" {
			// Stream mode: the session (records, plan, hash cache) can
			// be snapshotted after the run and warm-restarted later.
			var st *adalsh.Stream
			if st, ds, err = buildStream(ds, rule, cfg, *loadState); err != nil {
				log.Fatal(err)
			}
			if res, err = st.TopKClusters(cfg.K, cfg.ReturnClusters); err != nil {
				log.Fatal(err)
			}
			if *saveState != "" {
				if err = snapio.SaveFile(*saveState, st); err != nil {
					log.Fatal(err)
				}
			}
			break
		}
		var plan *adalsh.Plan
		if *planIn != "" {
			f, err := os.Open(*planIn)
			if err != nil {
				log.Fatal(err)
			}
			plan, err = adalsh.LoadPlan(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
		} else {
			plan, err = adalsh.NewPlan(ds, rule, cfg.Sequence)
			if err != nil {
				log.Fatal(err)
			}
		}
		if *planOut != "" {
			f, err := os.Create(*planOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := adalsh.SavePlan(f, plan); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
		res, err = adalsh.FilterWithPlan(ds, plan, cfg)
	case "lsh":
		res, err = adalsh.FilterLSH(ds, rule, *x, cfg)
	case "pairs":
		res, err = adalsh.FilterPairs(ds, rule, cfg)
	default:
		log.Fatalf("unknown -method %q", *method)
	}
	if err != nil {
		log.Fatal(err)
	}

	if *asJSON {
		type cluster struct {
			Size    int     `json:"size"`
			Records []int32 `json:"records"`
		}
		report := struct {
			Dataset        string    `json:"dataset"`
			Records        int       `json:"records"`
			K              int       `json:"k"`
			Method         string    `json:"method"`
			Clusters       []cluster `json:"clusters"`
			Kept           int       `json:"kept_records"`
			ElapsedMS      float64   `json:"elapsed_ms"`
			Workers        int       `json:"workers,omitempty"`
			PairsComputed  int64     `json:"pairs_computed"`
			PairwiseWallMS float64   `json:"pairwise_wall_ms"`
			PairwiseWorkMS float64   `json:"pairwise_work_ms"`
			F1Gold         *float64  `json:"f1_gold,omitempty"`
		}{
			Dataset: ds.Name, Records: ds.Len(), K: *k, Method: *method,
			Kept: len(res.Output), ElapsedMS: res.Stats.Elapsed.Seconds() * 1000,
			Workers:        res.Stats.Workers,
			PairsComputed:  res.Stats.PairsComputed,
			PairwiseWallMS: res.Stats.PairwiseWall.Seconds() * 1000,
			PairwiseWorkMS: res.Stats.PairwiseWork.Seconds() * 1000,
		}
		for _, c := range res.Clusters {
			report.Clusters = append(report.Clusters, cluster{Size: c.Size(), Records: c.Records})
		}
		if len(ds.Entities()) > 0 {
			f1 := metrics.Gold(ds, res.Output, *k).F1
			report.F1Gold = &f1
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("%s: %d records, method=%s, k=%d: kept %d records in %d clusters (%.1fms)\n",
		ds.Name, ds.Len(), *method, *k, len(res.Output), len(res.Clusters),
		res.Stats.Elapsed.Seconds()*1000)
	if res.Stats.PairwiseRounds > 0 {
		fmt.Printf("pairwise: %d distances over %d rounds, wall %.1fms, work %.1fms, %d workers\n",
			res.Stats.PairsComputed, res.Stats.PairwiseRounds,
			res.Stats.PairwiseWall.Seconds()*1000, res.Stats.PairwiseWork.Seconds()*1000,
			res.Stats.Workers)
	}
	for i, c := range res.Clusters {
		fmt.Printf("cluster %d (%d records):", i+1, c.Size())
		for _, r := range c.Records {
			fmt.Printf(" %d", r)
		}
		fmt.Println()
	}
	if len(ds.Entities()) > 0 {
		g := metrics.Gold(ds, res.Output, *k)
		fmt.Printf("vs ground truth: precision %.3f recall %.3f F1 %.3f\n", g.Precision, g.Recall, g.F1)
	}
}

// validateMethodFlags rejects flag combinations whose mode the chosen
// -method cannot serve, naming the offending flag. The stream modes
// (-query, -save-state, -load-state) and the plan files (-plan,
// -save-plan) only exist for the adaptive method; before this check
// ran up front, -query with -method lsh died mid-run and -plan was
// silently ignored.
func validateMethodFlags(method, query, saveState, loadState, planIn, planOut string) error {
	if method == "ada" {
		return nil
	}
	for _, f := range []struct{ name, value string }{
		{"-query", query},
		{"-save-state", saveState},
		{"-load-state", loadState},
		{"-plan", planIn},
		{"-save-plan", planOut},
	} {
		if f.value != "" {
			return fmt.Errorf("%s requires -method ada (got -method %s)", f.name, method)
		}
	}
	return nil
}

// buildStream assembles the session for the stream modes (-query,
// -save-state, -load-state): a fresh stream fed from the dataset, or a
// warm restart from a snapshot. On a warm restart an -input larger
// than the snapshot contributes its tail records; the returned dataset
// is the stream's own (so reports and -query indices cover everything
// restored). Runtime knobs are process-local and re-applied here.
func buildStream(ds *adalsh.Dataset, rule adalsh.Rule, cfg adalsh.Config, loadState string) (*adalsh.Stream, *adalsh.Dataset, error) {
	var st *adalsh.Stream
	if loadState != "" {
		var err error
		if st, err = snapio.LoadFile(loadState); err != nil {
			return nil, nil, err
		}
		if ds != nil {
			if ds.Len() < st.Len() {
				return nil, nil, fmt.Errorf("-load-state: snapshot holds %d records but -input only %d; pass the original input (or none)", st.Len(), ds.Len())
			}
			for i := st.Len(); i < ds.Len(); i++ {
				st.AddWithTruth(truthOf(ds, i), ds.Records[i].Fields...)
			}
		}
	} else {
		st = adalsh.NewStream(rule, cfg.Sequence)
		st.Dataset().Name = ds.Name
		for i := range ds.Records {
			st.AddWithTruth(truthOf(ds, i), ds.Records[i].Fields...)
		}
	}
	st.SetWorkers(cfg.Workers)
	st.SetObs(cfg.Obs)
	if cfg.Shards > 1 {
		if err := adalsh.ShardStream(st, cfg.Shards); err != nil {
			return nil, nil, err
		}
	}
	return st, st.Dataset(), nil
}

func truthOf(ds *adalsh.Dataset, i int) int {
	if i < len(ds.Truth) {
		return ds.Truth[i]
	}
	return -1
}

// runQueries is the -query mode: one top-k build through a Stream
// (which captures the point-query index), then an online Query per
// requested record — no re-clustering between lookups.
func runQueries(ds *adalsh.Dataset, rule adalsh.Rule, cfg adalsh.Config, recsArg string, m, probes int, asJSON bool, loadState, saveState string) error {
	st, ds, err := buildStream(ds, rule, cfg, loadState)
	if err != nil {
		return err
	}
	st.SetQueryProbes(probes)
	var ids []int
	for _, tok := range strings.Split(recsArg, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return fmt.Errorf("-query: bad record index %q: %v", tok, err)
		}
		if id < 0 || id >= ds.Len() {
			return fmt.Errorf("-query: record index %d out of range [0,%d)", id, ds.Len())
		}
		ids = append(ids, id)
	}
	buildStart := time.Now()
	if _, err := st.TopKClusters(cfg.K, cfg.ReturnClusters); err != nil {
		return err
	}
	buildMS := time.Since(buildStart).Seconds() * 1000
	if saveState != "" {
		if err := snapio.SaveFile(saveState, st); err != nil {
			return err
		}
	}

	type match struct {
		Cluster    int     `json:"cluster"`
		Matched    int     `json:"matched"`
		Candidates int     `json:"candidates"`
		Records    []int32 `json:"records"`
	}
	type lookup struct {
		Record    int     `json:"record"`
		Probes    int     `json:"probes"`
		ElapsedUS float64 `json:"elapsed_us"`
		Matches   []match `json:"matches"`
	}
	var lookups []lookup
	for _, id := range ids {
		start := time.Now()
		qr, err := st.Query(&ds.Records[id], m)
		if err != nil {
			return err
		}
		lk := lookup{Record: id, Probes: qr.Probes, ElapsedUS: time.Since(start).Seconds() * 1e6}
		for _, qm := range qr.Matches {
			lk.Matches = append(lk.Matches, match{
				Cluster: qm.Cluster, Matched: qm.Matched, Candidates: qm.Candidates, Records: qm.Records,
			})
		}
		lookups = append(lookups, lk)
	}
	if asJSON {
		report := struct {
			Dataset string   `json:"dataset"`
			Records int      `json:"records"`
			K       int      `json:"k"`
			BuildMS float64  `json:"build_ms"`
			Lookups []lookup `json:"lookups"`
		}{Dataset: ds.Name, Records: ds.Len(), K: cfg.K, BuildMS: buildMS, Lookups: lookups}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	fmt.Printf("%s: %d records, built top-%d query index in %.1fms\n", ds.Name, ds.Len(), cfg.K, buildMS)
	for _, lk := range lookups {
		fmt.Printf("query %d (%d probes, %.0fus):", lk.Record, lk.Probes, lk.ElapsedUS)
		if len(lk.Matches) == 0 {
			fmt.Println(" no matching cluster")
			continue
		}
		fmt.Println()
		for _, qm := range lk.Matches {
			fmt.Printf("  cluster %d: %d/%d candidates verified, %d records\n",
				qm.Cluster+1, qm.Matched, qm.Candidates, len(qm.Records))
		}
	}
	return nil
}
