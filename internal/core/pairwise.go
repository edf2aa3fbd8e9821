package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/ppt"
	"github.com/topk-er/adalsh/internal/record"
)

// Tuning knobs of the parallel pairwise execution layer.

// pairwiseParallelThreshold is the minimum number of candidate pairs
// before ApplyPairwise fans out to a worker pool; below it the serial
// loop wins on dispatch overhead (8192 pairs is a cluster of about 130
// records). It is a var only so tests can pin the pairwise stage
// serial while exercising the parallel hash stage (export_test.go).
var pairwiseParallelThreshold int64 = 1 << 13

// pairwiseBlock is the number of pairs each worker evaluates per
// dispatch wave. Larger blocks amortize the wave barrier; smaller
// blocks prune transitively-closed pairs sooner, wasting fewer
// distance evaluations relative to the serial path.
const pairwiseBlock = 1024

// PairwiseOptions controls one invocation of the pairwise computation
// function P.
type PairwiseOptions struct {
	// Workers is the worker-pool size; 0 means runtime.GOMAXPROCS(0),
	// 1 forces the serial path. The partition produced is identical
	// for every worker count (components of the match graph do not
	// depend on edge evaluation order, and CollectClusters emits a
	// canonical ordering).
	Workers int
	// NoSkip disables the transitive-closure skip (the ablation of
	// Section 6.1's optimization (2)): every pair's distance is
	// computed, even between records already connected.
	NoSkip bool
	// MinPairs overrides the candidate-pair floor below which the
	// serial path is used (0 means the built-in 8192 default). Pin it
	// above |S|(|S|-1)/2 to force the serial path regardless of
	// Workers — the BENCH reports do this so PairsComputed stays
	// byte-identical to a serial run while the hash stage fans out.
	MinPairs int64
}

// PairwiseStats describes the measured work of one pairwise
// invocation.
type PairwiseStats struct {
	// PairsComputed counts exact distance evaluations. Under the
	// transitive skip it is deterministic for a fixed worker count;
	// parallel runs may compute slightly more than the serial path
	// (pairs dispatched in the same wave as the merge that closed
	// them), but never more than the |S|(|S|-1)/2 the cost model
	// budgets.
	PairsComputed int64
	// Wall is the elapsed wall-clock time of the invocation.
	Wall time.Duration
	// Work is the cumulative busy time: concurrent distance
	// evaluation summed across workers, plus the sequential
	// dispatch/reduce portions counted once. Work ~= Wall on the
	// serial path; Work/Wall is the effective parallel speedup.
	Work time.Duration
	// Workers is the effective worker count (1 when the input was
	// below the parallel threshold).
	Workers int
	// Merges counts successful parent-pointer-tree merges. The count is
	// evaluation-order independent (every merge reduces the component
	// count by one), so it is identical for every worker count.
	Merges int64
	// Waves counts parallel dispatch waves (0 on the serial path).
	Waves int
	// PrefilterRejects and EarlyExits report the prepared match
	// kernel's effectiveness (distance.PreparedStats semantics): pairs
	// decided from per-record invariants alone, and element-wise
	// comparisons abandoned once the outcome was decided. Both still
	// count toward PairsComputed — they are exact decisions, reached
	// cheaply.
	PrefilterRejects, EarlyExits int64
}

// ApplyPairwise is the pairwise computation function P (Definition 2):
// it partitions recs into the connected components of the graph whose
// edges are record pairs within the rule's threshold(s), computing
// exact distances. Inputs above pairwiseParallelThreshold fan out to a
// GOMAXPROCS-wide worker pool; use ApplyPairwiseOpt for an explicit
// worker count.
//
// It implements the paper's optimization (2) from Section 6.1: pairs
// already connected transitively through earlier matches are skipped
// without computing their distance. The returned count is the number
// of distances actually computed (the skipped pairs cost nothing,
// although the cost model conservatively budgets for all pairs).
func ApplyPairwise(ds *record.Dataset, rule distance.Rule, recs []int32) (clusters [][]int32, pairsComputed int64) {
	clusters, st := ApplyPairwiseOpt(ds, rule, recs, PairwiseOptions{})
	return clusters, st.PairsComputed
}

// ApplyPairwiseNoSkip is the ablated variant: every pair's distance is
// computed even when the pair is already transitively connected.
func ApplyPairwiseNoSkip(ds *record.Dataset, rule distance.Rule, recs []int32) (clusters [][]int32, pairsComputed int64) {
	clusters, st := ApplyPairwiseOpt(ds, rule, recs, PairwiseOptions{NoSkip: true})
	return clusters, st.PairsComputed
}

// ApplyPairwiseOpt is ApplyPairwise with explicit options and full
// work accounting. The returned partition is identical for every
// Workers value.
func ApplyPairwiseOpt(ds *record.Dataset, rule distance.Rule, recs []int32, opts PairwiseOptions) ([][]int32, PairwiseStats) {
	start := time.Now()
	n := len(recs)
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	minPairs := opts.MinPairs
	if minPairs <= 0 {
		minPairs = pairwiseParallelThreshold
	}
	if totalPairs := int64(n) * int64(n-1) / 2; totalPairs < minPairs {
		workers = 1
	}
	forest := ppt.NewForest(n)
	for i := 0; i < n; i++ {
		forest.MakeTree(i)
	}
	// Prepare the threshold-aware match kernel once per invocation:
	// per-record invariants (norms, popcounts, intersection budgets)
	// are computed here so each pair pays only for the decision. The
	// kernel's decisions are identical to rule.Match, so clusters,
	// PairsComputed and Merges do not depend on it.
	kernel := distance.Prepare(ds, rule, recs)
	st := PairwiseStats{Workers: workers}
	if workers == 1 {
		st.PairsComputed = pairwiseSerial(kernel, recs, forest, !opts.NoSkip)
		st.Wall = time.Since(start)
		st.Work = st.Wall
	} else {
		var evalWall, evalBusy time.Duration
		st.PairsComputed, st.Waves, evalWall, evalBusy = pairwiseParallel(kernel, recs, forest, !opts.NoSkip, workers)
		st.Wall = time.Since(start)
		// Sequential portions count once; the evaluation waves count
		// their summed worker busy time instead of their wall time.
		st.Work = st.Wall - evalWall + evalBusy
	}
	kst := kernel.Stats()
	st.PrefilterRejects, st.EarlyExits = kst.PrefilterRejects, kst.EarlyExits
	// Merges are trees minus remaining components — order-independent.
	st.Merges = int64(n - len(forest.Roots()))
	return CollectClusters(forest, recs), st
}

// pairwiseSerial is the reference implementation: one pass over the
// pair space in (i, j) order, merging matches as it goes.
func pairwiseSerial(kernel distance.PreparedRule, recs []int32, forest *ppt.Forest, skipClosed bool) (pairsComputed int64) {
	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			ra, rb := forest.Root(i), forest.Root(j)
			if ra == rb {
				if skipClosed {
					continue // transitively closed already
				}
				pairsComputed++
				_ = kernel.MatchIdx(i, j)
				continue
			}
			pairsComputed++
			if kernel.MatchIdx(i, j) {
				forest.Merge(ra, rb)
			}
		}
	}
	return pairsComputed
}

// pairIdx is one candidate pair, as local indices into recs.
type pairIdx struct{ i, j int32 }

// pairwiseParallel shards the pair space into waves of open pairs and
// evaluates each wave on a worker pool. The forest is only ever
// touched by this (sequential) goroutine — workers see a read-only
// dataset and disjoint slices of the wave — so the reduction is
// deterministic and the partition matches the serial path exactly.
//
// The transitive-skip optimization survives in two places: pairs whose
// endpoints share a root are pruned when the wave is assembled (the
// periodic prune of pending shards), and merges re-check roots when
// the wave's matches are reduced. A pair can therefore be evaluated
// redundantly only when the merge that closes it lands in the same
// wave, bounding the extra distances per merge by the wave size; the
// total can never exceed the |S|(|S|-1)/2 budget of the cost model.
func pairwiseParallel(kernel distance.PreparedRule, recs []int32, forest *ppt.Forest, skipClosed bool, workers int) (pairsComputed int64, waves int, evalWall, evalBusy time.Duration) {
	waveCap := workers * pairwiseBlock
	wave := make([]pairIdx, 0, waveCap)
	matched := make([]bool, waveCap)
	var busyNS int64

	flush := func() {
		if len(wave) == 0 {
			return
		}
		waves++
		w0 := time.Now()
		var wg sync.WaitGroup
		chunk := (len(wave) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(wave) {
				hi = len(wave)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				t0 := time.Now()
				for x := lo; x < hi; x++ {
					p := wave[x]
					matched[x] = kernel.MatchIdx(int(p.i), int(p.j))
				}
				atomic.AddInt64(&busyNS, int64(time.Since(t0)))
			}(lo, hi)
		}
		wg.Wait()
		evalWall += time.Since(w0)
		// Sequential reducer: merge match edges in pair order,
		// re-checking roots (a match earlier in the wave may already
		// have connected this pair).
		for x := 0; x < len(wave); x++ {
			if !matched[x] {
				continue
			}
			p := wave[x]
			if ra, rb := forest.Root(int(p.i)), forest.Root(int(p.j)); ra != rb {
				forest.Merge(ra, rb)
			}
		}
		pairsComputed += int64(len(wave))
		wave = wave[:0]
	}

	for i := 0; i < len(recs); i++ {
		for j := i + 1; j < len(recs); j++ {
			if skipClosed && forest.Root(i) == forest.Root(j) {
				continue // pruned before dispatch
			}
			wave = append(wave, pairIdx{int32(i), int32(j)})
			if len(wave) == waveCap {
				flush()
			}
		}
	}
	flush()
	evalBusy = time.Duration(atomic.LoadInt64(&busyNS))
	return pairsComputed, waves, evalWall, evalBusy
}

// PairsBetween counts and evaluates matches between two disjoint record
// slices under the rule, returning the matching pairs. It is used by
// the recovery process evaluation. The match kernel is prepared once
// over both slices, so each pair costs only the threshold-aware
// decision.
func PairsBetween(ds *record.Dataset, rule distance.Rule, a, b []int32) (matches [][2]int32, pairsComputed int64) {
	recs := make([]int32, 0, len(a)+len(b))
	recs = append(append(recs, a...), b...)
	kernel := distance.Prepare(ds, rule, recs)
	for ai, i := range a {
		for bj, j := range b {
			pairsComputed++
			if kernel.MatchIdx(ai, len(a)+bj) {
				matches = append(matches, [2]int32{i, j})
			}
		}
	}
	return matches, pairsComputed
}
