// Package blocking implements the comparison methods of Section 6.1.1:
// the LSH-X blocking family (one-shot LSH with X hash functions,
// followed by pairwise verification), its nP variation (no
// verification, Appendix E.1), and Pairs (exact pairwise computation
// over the whole dataset).
//
// Per the paper, the LSH baselines get the same fairness optimizations
// as Adaptive LSH: (1) early termination once k verified clusters
// dominate every unverified one, (2) transitive-closure skipping inside
// P, and (3) the same parent-pointer-tree implementation.
package blocking

import (
	"fmt"
	"runtime"
	"sort"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
)

// LSHXOptions configures an LSH-X run.
type LSHXOptions struct {
	// X is the number of hash functions applied to every record.
	X int
	// K is the number of top entities to find.
	K int
	// ReturnClusters is k-hat; zero means K.
	ReturnClusters int
	// SkipPairwise selects the nP variation of Appendix E.1: treat the
	// transitive closure of stage one's buckets as final clusters
	// without verifying any distances.
	SkipPairwise bool
	// Workers is the worker-pool size for stage one's bucket keys and
	// whole-table insertion (core.HashOptions.Workers) and for the
	// pairwise verification stage; 0 means GOMAXPROCS, 1 forces the
	// serial paths (core.Options.Workers semantics).
	Workers int
	// Epsilon and Seed mirror core.SequenceConfig.
	Epsilon float64
	Seed    uint64
	// Obs receives per-stage spans and work counters for the run
	// (core.Options.Obs semantics); nil disables reporting.
	Obs obs.Sink
}

func (o LSHXOptions) khat() int {
	if o.ReturnClusters > o.K {
		return o.ReturnClusters
	}
	return o.K
}

// LSHX runs the LSH-X blocking baseline on the dataset: solve the same
// (w,z) optimization as Adaptive LSH for budget X, apply the scheme to
// every record, then verify candidate clusters with P largest-first
// until the k-hat largest verified clusters dominate everything
// unverified.
func LSHX(ds *record.Dataset, rule distance.Rule, opts LSHXOptions) (*core.Result, error) {
	if opts.X < 1 {
		return nil, fmt.Errorf("blocking: X = %d, want >= 1", opts.X)
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("blocking: K = %d, want >= 1", opts.K)
	}
	// Scheme design is offline (Section 5.1: "the whole function
	// sequence design process is run offline"), so it happens before
	// the timed region, as for Adaptive LSH.
	plan, err := core.DesignPlan(ds, rule, core.SequenceConfig{
		InitialBudget: opts.X,
		Levels:        1,
		Epsilon:       opts.Epsilon,
		Seed:          opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("blocking: designing LSH%d scheme: %w", opts.X, err)
	}
	return LSHXWithPlan(ds, rule, plan, opts)
}

// LSHXWithPlan runs LSH-X with a pre-designed single-function plan
// (plan.Funcs[0] is the X-budget scheme); only the filtering work is
// timed.
func LSHXWithPlan(ds *record.Dataset, rule distance.Rule, plan *core.Plan, opts LSHXOptions) (*core.Result, error) {
	if plan.L() != 1 {
		return nil, fmt.Errorf("blocking: LSH-X plan must have exactly one function, got %d", plan.L())
	}
	rt := obs.StartStage(opts.Obs, obs.StageBlocking)
	res := &core.Result{}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res.Stats.Workers = workers

	// Stage one: the scheme over every record, streaming (nil cache) —
	// a one-shot application never reuses hash values. The streamed
	// base-hash evaluations are counted by the scratches (they equal
	// X * |R| by construction, but measuring keeps the accounting
	// honest under DisableHashCache-style ablations).
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	var hashStats core.HashStats
	hashStats.Evals = make([]int64, len(plan.Hashers))
	var stage1 [][]int32
	ht := obs.StartStage(opts.Obs, obs.StageHash)
	if ds.Len() > 0 {
		stage1 = core.ApplyHashOpt(ds, plan, plan.Funcs[0], nil, all, core.HashOptions{Workers: workers}, &hashStats)
	}
	ht.Workers = workers
	ht.Items = ds.Len()
	ht.Work = hashStats.Work
	res.Stats.HashEvals = hashStats.Evals
	res.Stats.HashWall = ht.End()
	res.Stats.HashWork = hashStats.Work
	var evals int64
	for h, n := range res.Stats.HashEvals {
		res.Stats.ModelCost += float64(n) * plan.Cost.CostFunc[h]
		evals += n
	}
	obs.Count(opts.Obs, obs.CtrHashEvals, evals)
	obs.Count(opts.Obs, obs.CtrBucketCollisions, hashStats.Collisions)
	obs.Count(opts.Obs, obs.CtrMerges, hashStats.Merges)
	res.Stats.HashRounds = 1

	khat := opts.khat()
	if opts.SkipPairwise {
		// nP variation: stage-one clusters, already largest first, are
		// the answer.
		for _, recs := range stage1 {
			if len(res.Clusters) == khat {
				break
			}
			res.Clusters = append(res.Clusters, core.Cluster{Records: recs, Level: 1})
		}
	} else {
		bins := ppt.NewBins[*candidate](ds.Len())
		for _, recs := range stage1 {
			bins.Add(&candidate{recs: recs})
		}
		for len(res.Clusters) < khat {
			c, ok := bins.PopLargest()
			if !ok {
				break
			}
			if c.verified {
				// Optimization (1): k-hat verified clusters, each at
				// least as large as everything left — stop here.
				res.Clusters = append(res.Clusters, core.Cluster{Records: c.recs, ByPairwise: true})
				continue
			}
			subs, pst := core.ApplyPairwiseOpt(ds, rule, c.recs, core.PairwiseOptions{Workers: workers})
			res.Stats.AddPairwise(pst, len(c.recs), plan.Cost.CostP, obs.MemSnapshot{}, opts.Obs)
			for _, recs := range subs {
				bins.Add(&candidate{recs: recs, verified: true})
			}
		}
	}
	obs.Count(opts.Obs, obs.CtrClustersEmitted, int64(len(res.Clusters)))
	rt.Workers = workers
	rt.Items = ds.Len()
	rt.Work = rt.Elapsed() - (res.Stats.HashWall + res.Stats.PairwiseWall) +
		(res.Stats.HashWork + res.Stats.PairwiseWork)
	finishResult(res)
	res.Stats.Elapsed = rt.End()
	return res, nil
}

// Pairs runs the exact baseline: the pairwise computation function P
// over the whole dataset, returning the k-hat largest connected
// components. workers is the pairwise worker-pool size (0 means
// GOMAXPROCS, 1 forces the serial path); the output is identical for
// every value.
func Pairs(ds *record.Dataset, rule distance.Rule, k, returnClusters, workers int) (*core.Result, error) {
	return PairsObs(ds, rule, k, returnClusters, workers, nil)
}

// PairsObs is Pairs with an observability sink: the run is reported as
// one StageBlocking span containing one StagePairwise span, plus the
// pairwise counters. A nil sink makes it identical to Pairs.
func PairsObs(ds *record.Dataset, rule distance.Rule, k, returnClusters, workers int, sink obs.Sink) (*core.Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("blocking: K = %d, want >= 1", k)
	}
	khat := k
	if returnClusters > k {
		khat = returnClusters
	}
	rt := obs.StartStage(sink, obs.StageBlocking)
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	res := &core.Result{}
	if ds.Len() > 0 {
		// P's clusters come largest first; Pairs has no cost model.
		clusters, pst := core.ApplyPairwiseOpt(ds, rule, all, core.PairwiseOptions{Workers: workers})
		res.Stats.AddPairwise(pst, ds.Len(), 0, obs.MemSnapshot{}, sink)
		res.Stats.Workers = pst.Workers
		for _, recs := range clusters {
			if len(res.Clusters) == khat {
				break
			}
			res.Clusters = append(res.Clusters, core.Cluster{Records: recs, ByPairwise: true})
		}
		rt.Workers = pst.Workers
	}
	obs.Count(sink, obs.CtrClustersEmitted, int64(len(res.Clusters)))
	rt.Items = ds.Len()
	rt.Work = rt.Elapsed() - res.Stats.PairwiseWall + res.Stats.PairwiseWork
	finishResult(res)
	res.Stats.Elapsed = rt.End()
	return res, nil
}

// candidate is a stage-one cluster awaiting verification.
type candidate struct {
	recs     []int32
	verified bool
}

// Size implements ppt.Sized.
func (c *candidate) Size() int { return len(c.recs) }

func finishResult(res *core.Result) {
	for _, c := range res.Clusters {
		res.Output = append(res.Output, c.Records...)
	}
	sort.Slice(res.Output, func(i, j int) bool { return res.Output[i] < res.Output[j] })
}
