// Package experiments reproduces every figure of the paper's
// evaluation (Section 7 and Appendix E): one runner per figure, backed
// by a caching dataset/plan provider so that repeated figures reuse the
// synthetic datasets and the offline-designed hashing sequences.
package experiments

import (
	"fmt"
	"sync"

	"github.com/topk-er/adalsh/internal/blocking"
	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/metrics"
	"github.com/topk-er/adalsh/internal/record"
)

// Provider caches datasets, designed plans, Pairs ground outputs and
// measured per-pair costs across figure runners.
type Provider struct {
	// Seed drives every generator and hashing family.
	Seed uint64

	// Workers is the worker-pool size passed to every method run
	// (core.Options.Workers semantics, except that the provider's
	// zero value means serial, not GOMAXPROCS): figure tables report
	// work counters such as PairsComputed, and the serial default
	// keeps them byte-identical across machines with different core
	// counts. cmd/paperbench -workers opts in to parallel runs.
	Workers int

	mu    sync.Mutex
	ds    map[string]*record.Dataset
	plans map[string]*core.Plan
	costP map[string]float64
	pairs map[string]*core.Result
}

// NewProvider creates a provider with the given master seed.
func NewProvider(seed uint64) *Provider {
	return &Provider{
		Seed:  seed,
		ds:    make(map[string]*record.Dataset),
		plans: make(map[string]*core.Plan),
		costP: make(map[string]float64),
		pairs: make(map[string]*core.Result),
	}
}

// workers resolves the provider's Workers default: 0 stays serial so
// figure work counters are hardware-independent.
func (p *Provider) workers() int {
	if p.Workers == 0 {
		return 1
	}
	return p.Workers
}

func (p *Provider) dataset(key string, build func() *record.Dataset) *record.Dataset {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d, ok := p.ds[key]; ok {
		return d
	}
	d := build()
	p.ds[key] = d
	return d
}

// Cora returns the Cora-like benchmark at the given scale.
func (p *Provider) Cora(scale int) *datasets.Benchmark {
	ds := p.dataset(fmt.Sprintf("cora/%d", scale), func() *record.Dataset {
		return datasets.CoraDataset(scale, p.Seed)
	})
	return &datasets.Benchmark{Dataset: ds, Rule: datasets.CoraRule()}
}

// SpotSigs returns the SpotSigs-like benchmark at the given scale and
// similarity threshold.
func (p *Provider) SpotSigs(scale int, simThreshold float64) *datasets.Benchmark {
	ds := p.dataset(fmt.Sprintf("spotsigs/%d", scale), func() *record.Dataset {
		return datasets.SpotSigsDataset(scale, p.Seed)
	})
	return &datasets.Benchmark{Dataset: ds, Rule: datasets.SpotSigsRule(simThreshold)}
}

// Images returns the PopularImages-like benchmark for one nominal Zipf
// exponent and cosine threshold in degrees.
func (p *Provider) Images(exponent string, thresholdDegrees float64) *datasets.Benchmark {
	ds := p.dataset("images/"+exponent, func() *record.Dataset {
		return datasets.PopularImagesDataset(exponent, p.Seed)
	})
	return &datasets.Benchmark{Dataset: ds, Rule: datasets.PopularImagesRule(thresholdDegrees)}
}

// Plan returns (designing and caching on first use) the Adaptive LSH
// plan for a benchmark under a sequence configuration. Design happens
// offline — outside any timed region.
func (p *Provider) Plan(b *datasets.Benchmark, cfg core.SequenceConfig) (*core.Plan, error) {
	key := fmt.Sprintf("%s|%s|%+v", b.Dataset.Name, b.Rule, cfg)
	p.mu.Lock()
	if pl, ok := p.plans[key]; ok {
		p.mu.Unlock()
		return pl, nil
	}
	p.mu.Unlock()
	cfg.Seed = p.Seed
	pl, err := core.DesignPlan(b.Dataset, b.Rule, cfg)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.plans[key] = pl
	p.mu.Unlock()
	return pl, nil
}

// CostP measures (and caches) the benchmark-ER per-pair cost of a
// benchmark's rule on its dataset, used by the speedup formulas.
func (p *Provider) CostP(b *datasets.Benchmark) float64 {
	key := fmt.Sprintf("%s|%s", b.Dataset.Name, b.Rule)
	p.mu.Lock()
	if c, ok := p.costP[key]; ok {
		p.mu.Unlock()
		return c
	}
	p.mu.Unlock()
	c := metrics.MeasureCostP(b.Dataset, b.Rule.Match, 3000, p.Seed)
	p.mu.Lock()
	p.costP[key] = c
	p.mu.Unlock()
	return c
}

// RunAdaLSH filters the benchmark with Adaptive LSH under the default
// sequence configuration (Exponential, starting at 20 functions).
func (p *Provider) RunAdaLSH(b *datasets.Benchmark, k, khat int) (*core.Result, error) {
	return p.RunAdaLSHConfig(b, k, khat, core.SequenceConfig{}, 0)
}

// RunAdaLSHConfig filters with an explicit sequence configuration and
// optional cost-model noise factor (0 = none).
func (p *Provider) RunAdaLSHConfig(b *datasets.Benchmark, k, khat int, cfg core.SequenceConfig, noise float64) (*core.Result, error) {
	plan, err := p.Plan(b, cfg)
	if err != nil {
		return nil, err
	}
	if noise != 0 {
		plan = plan.WithNoise(noise)
	}
	return core.Filter(b.Dataset, plan, core.Options{K: k, ReturnClusters: khat, Workers: p.workers()})
}

// RunLSHX runs the LSH-X blocking baseline (skipPairwise selects the
// nP variation).
func (p *Provider) RunLSHX(b *datasets.Benchmark, x, k, khat int, skipPairwise bool) (*core.Result, error) {
	cfg := core.SequenceConfig{InitialBudget: x, Levels: 1}
	plan, err := p.Plan(b, cfg)
	if err != nil {
		return nil, err
	}
	return blocking.LSHXWithPlan(b.Dataset, b.Rule, plan, blocking.LSHXOptions{
		X: x, K: k, ReturnClusters: khat, SkipPairwise: skipPairwise,
		Workers: p.workers(), Seed: p.Seed,
	})
}

// RunPairs runs (and caches, per dataset+rule+k+khat) the Pairs
// baseline.
func (p *Provider) RunPairs(b *datasets.Benchmark, k, khat int) (*core.Result, error) {
	key := fmt.Sprintf("%s|%s|%d|%d", b.Dataset.Name, b.Rule, k, khat)
	p.mu.Lock()
	if r, ok := p.pairs[key]; ok {
		p.mu.Unlock()
		return r, nil
	}
	p.mu.Unlock()
	r, err := blocking.Pairs(b.Dataset, b.Rule, k, khat, p.workers())
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	p.pairs[key] = r
	p.mu.Unlock()
	return r, nil
}
