// Command bench is the repository benchmark: four workloads that each
// load a different layer of the system, reported as end-to-end metrics
// (untraced runs) and per-layer metrics (traced runs), with the
// program's outputs checked before anything is reported. See
// README.md in this directory.
//
//	bash bench/run.sh --workload spotsigs --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -compare .bench_build/results-a .bench_build/results-b
//	bash bench/run.sh -calibrate -workload spotsigs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// contract is the part of BENCHMARK.json the program reads.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// names lists the metrics a run in the given mode must emit.
func (c *contract) names(trace bool) []string {
	var out []string
	if trace {
		for _, m := range c.PerLayer {
			out = append(out, m.Name)
		}
	} else {
		for _, m := range c.EndToEnd {
			out = append(out, m.Name)
		}
	}
	return out
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]valueInUnit `json:"metrics"`
}

type valueInUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runFile is the per-run JSON file: the summary plus its context.
type runFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Seconds  int                  `json:"seconds"`
	Trace    bool                 `json:"trace"`
	Env      map[string]any       `json:"env"`
	Correct  bool                 `json:"correct"`
	Attempt  int                  `json:"attempted"`
	Failed   int                  `json:"failed"`
	Failures []string             `json:"failures,omitempty"`
	Counters map[string]int64     `json:"counters"`
	Series   map[string][]float64 `json:"series"`
	Metrics  map[string]metric    `json:"metrics"`
}

// errChecks marks a run whose checks failed: its summary is printed,
// with correct=false, and the exit code is non-zero.
var errChecks = errors.New("checks failed")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see BENCHMARK.json), or all of them in turn")
	seed := fs.Uint64("seed", 1, "run seed: record arrival order, probes and schedules")
	secs := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a Perfetto trace")
	out := fs.String("out", ".bench_build/results", "directory for the per-run JSON files and traces")
	compare := fs.String("compare", "", "compare two result directories: -compare A B")
	calibrate := fs.Bool("calibrate", false, "print the median of 7 live cost calibrations for -workload")
	bench := fs.String("benchmark", "BENCHMARK.json", "path to BENCHMARK.json")
	commit := fs.String("commit", "unknown", "commit recorded in the outputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	c, err := loadContract(*bench)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	switch {
	case *compare != "":
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "bench: -compare takes two directories: -compare A B")
			return 2
		}
		if err := compareDirs(stdout, c, *compare, fs.Arg(0)); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		return 0
	case *calibrate:
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		ds, rule := w.calibrate()
		m, err := medianCost(ds, rule, 7)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		fmt.Fprintf(stdout, "core.CostModel{CostP: %.4g, CostFunc: []float64{%s}}\n", m.CostP, floats(m.CostFunc))
		return 0
	}
	cfg := runConfig{seed: *seed, seconds: *secs, trace: *trace == 1, commit: *commit}
	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range c.Workloads {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, n := range names {
		if err := runWorkload(stdout, c, n, cfg, *out); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			if !errors.Is(err, errChecks) {
				return 2
			}
			code = 1
		}
	}
	return code
}

func floats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ", ")
}

// runWorkload runs one workload, writes its JSON file (and trace), and
// prints every emitted metric as "name value unit" followed by the
// summary line.
func runWorkload(stdout io.Writer, c *contract, name string, cfg runConfig, outDir string) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds %d: want >= 1", cfg.seconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg.workDir = work
	stem := filepath.Join(outDir, fmt.Sprintf("%s.s%d", name, cfg.seed))
	if cfg.trace {
		cfg.tracePath = stem + ".perfetto.json"
		stem += ".traced"
	}
	res, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for n, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is not finite (%v)", name, n, m.Value)
		}
	}
	emitted := map[string]metric{}
	for _, n := range c.names(cfg.trace) {
		m, ok := res.metrics[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", name, n)
		}
		emitted[n] = m
	}
	rf := runFile{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Env: cfg.env(),
		Correct: res.failed == 0, Attempt: res.attempted, Failed: res.failed, Failures: res.failures,
		Counters: res.counters, Series: res.series, Metrics: res.metrics,
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(stem+".json", append(raw, '\n'), 0o644); err != nil {
		return err
	}

	keys := make([]string, 0, len(emitted))
	for n := range emitted {
		keys = append(keys, n)
	}
	sort.Strings(keys)
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%d trace=%v gomaxprocs=%v num_cpu=%v go=%v commit=%v\n",
		name, cfg.seed, cfg.seconds, cfg.trace, rf.Env["gomaxprocs"], rf.Env["num_cpu"], rf.Env["go_version"], rf.Env["commit"])
	for _, n := range keys {
		m := emitted[n]
		if m.Samples > 0 {
			fmt.Fprintf(stdout, "%s %g %s (n=%d)\n", n, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(stdout, "%s %g %s\n", n, m.Value, m.Unit)
		}
	}
	for _, f := range res.failures {
		fmt.Fprintln(stdout, "# FAILED:", f)
	}
	sum := summary{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]valueInUnit{}}
	for n, m := range emitted {
		sum.Metrics[n] = valueInUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if res.failed > 0 {
		return fmt.Errorf("%s: %w", name, errChecks)
	}
	return nil
}
