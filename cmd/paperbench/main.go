// Command paperbench regenerates the paper's evaluation figures
// (Section 7 and Appendix E) on the synthetic datasets.
//
// Usage:
//
//	paperbench [-fig fig9a] [-quick] [-skip-images] [-seed N] [-workers N] [-md]
//	           [-stats-json DIR] [-pprof FILE] [-trace FILE] [-memprofile FILE]
//
// With no -fig, every figure is regenerated in order; -fig none skips
// the figures entirely (useful with -stats-json). -quick trims the
// sweeps (fewer k values, 1x/2x scales only) for a fast sanity pass.
// -md emits GitHub-flavored markdown instead of aligned text.
//
// -stats-json DIR additionally runs the instrumented serial-vs-parallel
// benchmark per dataset and writes one machine-readable BENCH_<dataset>.json
// each (per-stage wall/work breakdowns, ModelCost, HashEvals, work
// counters, speedup vs the serial run). The serial and parallel counter
// sets must be identical; the command fails if they diverge.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/topk-er/adalsh/internal/experiments"
	"github.com/topk-er/adalsh/internal/profiling"
)

func main() {
	fig := flag.String("fig", "", "figure ID to regenerate (default: all; none to skip figures); see -list")
	list := flag.Bool("list", false, "list available figure IDs and exit")
	quick := flag.Bool("quick", false, "trim sweeps for a fast pass")
	skipImages := flag.Bool("skip-images", false, "skip the PopularImages figures (slowest datasets)")
	seed := flag.Uint64("seed", 42, "master seed for datasets and hash families")
	workers := flag.Int("workers", 0, "worker-pool size for pairwise/hashing stages (0 = serial, keeping work counters hardware-independent)")
	md := flag.Bool("md", false, "emit markdown tables")
	statsJSON := flag.String("stats-json", "", "directory for machine-readable BENCH_<dataset>.json reports (runs the serial-vs-parallel benchmark)")
	pprofPath := flag.String("pprof", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	tracePath := flag.String("trace", "", "write an execution trace of the run to this file (inspect with go tool trace)")
	memprofPath := flag.String("memprofile", "", "write an allocation (heap) profile of the run to this file (inspect with go tool pprof -sample_index=alloc_objects)")
	scale := flag.Bool("scale", false, "run the sharded scale-out benchmark: stream a Zipfian workload into an out-of-core .col file and filter it with the sharded engine, writing BENCH_scale.json (into -stats-json DIR, or the working directory)")
	scaleRecords := flag.Int("scale-records", 1_000_000, "workload size of the -scale run")
	scaleShards := flag.Int("scale-shards", 4, "shard count of the -scale run")
	scaleZipf := flag.Float64("scale-zipf", 0, "entity-size Zipf exponent of the -scale run (0 = default 0.6; head-heavy exponents >= 1 need RAM in proportion to the head entity)")
	scaleDir := flag.String("scale-dir", "", "working directory for the -scale .col file (default: a temp dir, removed afterwards; set to keep the file)")
	family := flag.String("family", "classic", "signature family of the -scale run: classic or oph (oph also runs a classic baseline over the same workload and reports both)")
	flag.Parse()

	if *list {
		for _, id := range experiments.Figures() {
			fmt.Printf("%-8s %s\n", id, experiments.Describe(id))
		}
		return
	}
	stopProf, err := profiling.Start(*pprofPath, *tracePath, *memprofPath)
	if err != nil {
		fatal(err)
	}

	p := experiments.NewProvider(*seed)
	p.Workers = *workers
	start := time.Now()
	var tables []*experiments.Table
	switch *fig {
	case "none":
	case "":
		tables, err = experiments.RunAll(p, *quick, *skipImages)
	default:
		for _, id := range strings.Split(*fig, ",") {
			var ts []*experiments.Table
			ts, err = experiments.Run(p, strings.TrimSpace(id), *quick)
			tables = append(tables, ts...)
			if err != nil {
				break
			}
		}
	}
	for _, t := range tables {
		if *md {
			fmt.Println(t.Markdown())
		} else {
			fmt.Println(t.String())
		}
	}
	if err != nil {
		stopProf()
		fatal(err)
	}

	if *statsJSON != "" {
		if err := writeBenchReports(p, *statsJSON, *quick, *skipImages, *workers); err != nil {
			stopProf()
			fatal(err)
		}
	}
	if *scale {
		if err := runScaleBench(*scaleRecords, *scaleShards, *scaleZipf, *workers, *seed, *scaleDir, *statsJSON, *family); err != nil {
			stopProf()
			fatal(err)
		}
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	fmt.Printf("total wall time: %.1fs\n", time.Since(start).Seconds())
}

// writeBenchReports runs the instrumented serial-vs-parallel benchmark
// and writes one BENCH_<dataset>.json per dataset into dir, enforcing
// the counter-determinism contract.
func writeBenchReports(p *experiments.Provider, dir string, quick, skipImages bool, workers int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	reports, err := experiments.BenchAll(p, quick, skipImages, workers)
	if err != nil {
		return err
	}
	for _, rep := range reports {
		if bad := rep.CounterMismatch(); len(bad) > 0 {
			return fmt.Errorf("bench %s: serial and parallel counters diverge: %s",
				rep.Dataset, strings.Join(bad, ", "))
		}
		path := filepath.Join(dir, "BENCH_"+rep.Dataset+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		ratio := fmt.Sprintf("%.2fx", rep.SpeedupVsSerial)
		if rep.SpeedupIsOverlap {
			ratio = fmt.Sprintf("overlap %.2f on %d CPUs", rep.SpeedupVsSerial, min(rep.GOMAXPROCS, rep.NumCPU))
		}
		fmt.Printf("bench %s: %d records, serial %.1fms, parallel %.1fms (%d workers, %s) -> %s\n",
			rep.Dataset, rep.Records, rep.Serial.ElapsedMS, rep.Parallel.ElapsedMS,
			rep.Parallel.Workers, ratio, path)
	}
	return nil
}

// runScaleBench runs the sharded out-of-core benchmark and writes
// BENCH_scale.json.
func runScaleBench(records, shards int, zipf float64, workers int, seed uint64, dir, statsDir, family string) error {
	rep, err := experiments.RunScale(experiments.ScaleOptions{
		Records: records, Shards: shards, Zipf: zipf, Workers: workers, Seed: seed,
		Dir: dir, KeepCol: dir != "", Family: family,
		Progress: func(format string, args ...any) {
			fmt.Printf("scale: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	outDir := statsDir
	if outDir == "" {
		outDir = "."
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outDir, "BENCH_scale.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("scale: %d records over %d shards: filter %.1fs (hash %s %.2f) -> %s\n",
		rep.Records, rep.Shards, rep.FilterMS/1000, rep.HashRatioName(), rep.HashParallelism, path)
	if rep.Baseline != nil {
		fmt.Printf("scale: family %s hash wall %.1fs vs classic baseline %.1fs (%.2fx)\n",
			rep.Family, rep.HashWallMS/1000, rep.Baseline.HashWallMS/1000,
			rep.Baseline.HashWallMS/max(rep.HashWallMS, 1e-9))
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
	os.Exit(1)
}
