package core_test

import (
	"sort"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// simCluster is a cluster in the strategy simulator.
type simCluster struct {
	recs  []int32
	level int
	final bool
}

// simulate runs the Algorithm 1 skeleton with an arbitrary cluster
// selection policy (the only freedom Theorem 1's algorithm family
// allows) over a fixed execution instance, and returns the Definition 3
// cost with unit hash/pair costs. pick receives the non-final clusters
// and returns the index to process next.
func simulate(t *testing.T, ds *record.Dataset, plan *core.Plan, k int,
	pick func(clusters []*simCluster) int) float64 {
	t.Helper()
	// Unit cost model: cost_i = budget_i per record, cost_P = 1 per
	// pair (the conservative all-pairs model of Definition 3).
	costH := func(level int) float64 { return float64(plan.Funcs[level-1].Budget) }
	preferP := func(level, n int) bool {
		if level == plan.L() {
			return false // already final; never reached
		}
		upgrade := (costH(level+1) - costH(level)) * float64(n)
		return upgrade >= float64(n)*float64(n-1)/2
	}
	// Shared execution instance: one cache per simulation is fine —
	// hashing outcomes are deterministic given the hashers, so every
	// strategy observes identical splits.
	cache := core.NewCache(ds, len(plan.Hashers))
	all := make([]int32, ds.Len())
	for i := range all {
		all[i] = int32(i)
	}
	cost := 0.0
	var clusters []*simCluster
	for _, recs := range core.ApplyHashOpt(ds, plan, plan.Funcs[0], cache, all, core.HashOptions{}, nil) {
		clusters = append(clusters, &simCluster{recs: recs, level: 1, final: plan.L() == 1})
	}
	cost += costH(1) * float64(ds.Len())

	topKFinal := func() bool {
		sorted := append([]*simCluster(nil), clusters...)
		sort.Slice(sorted, func(i, j int) bool { return len(sorted[i].recs) > len(sorted[j].recs) })
		n := k
		if n > len(sorted) {
			n = len(sorted)
		}
		for i := 0; i < n; i++ {
			if !sorted[i].final {
				return false
			}
		}
		return true
	}

	for !topKFinal() {
		var open []*simCluster
		for _, c := range clusters {
			if !c.final {
				open = append(open, c)
			}
		}
		if len(open) == 0 {
			break
		}
		c := open[pick(open)]
		// Remove it from the live list.
		for i, cc := range clusters {
			if cc == c {
				clusters = append(clusters[:i], clusters[i+1:]...)
				break
			}
		}
		var subs [][]int32
		if preferP(c.level, len(c.recs)) {
			subs, _ = core.ApplyPairwise(ds, plan.Rule, c.recs)
			cost += float64(len(c.recs)) * float64(len(c.recs)-1) / 2
			for _, recs := range subs {
				clusters = append(clusters, &simCluster{recs: recs, final: true})
			}
		} else {
			next := plan.Funcs[c.level]
			subs = core.ApplyHashOpt(ds, plan, next, cache, c.recs, core.HashOptions{}, nil)
			cost += (costH(c.level+1) - costH(c.level)) * float64(len(c.recs))
			for _, recs := range subs {
				clusters = append(clusters, &simCluster{recs: recs, level: c.level + 1, final: c.level+1 == plan.L()})
			}
		}
	}
	return cost
}

// TestLargestFirstOptimality spot-checks Theorem 1: among selection
// strategies that obey the no-jump-ahead and no-early-termination
// rules, largest-first attains the minimum Definition 3 cost on the
// same execution instance.
func TestLargestFirstOptimality(t *testing.T) {
	for _, seed := range []uint64{3, 17, 99} {
		ds := clusteredSetDataset(t, []int{25, 16, 9, 6, 4, 3, 2, 2, 1}, seed)
		plan, err := core.DesignPlan(ds, jaccardRule(), core.SequenceConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		const k = 3
		largest := func(open []*simCluster) int {
			best := 0
			for i, c := range open {
				if len(c.recs) > len(open[best].recs) {
					best = i
				}
			}
			return best
		}
		smallest := func(open []*simCluster) int {
			best := 0
			for i, c := range open {
				if len(c.recs) < len(open[best].recs) {
					best = i
				}
			}
			return best
		}
		fifo := func(open []*simCluster) int { return 0 }
		rng := xhash.NewRNG(seed * 7)
		random := func(open []*simCluster) int { return rng.Intn(len(open)) }

		base := simulate(t, ds, plan, k, largest)
		for name, policy := range map[string]func([]*simCluster) int{
			"smallest-first": smallest,
			"fifo":           fifo,
			"random":         random,
		} {
			got := simulate(t, ds, plan, k, policy)
			if got < base-1e-9 {
				t.Errorf("seed %d: %s cost %.1f beats largest-first %.1f (Theorem 1 violated)",
					seed, name, got, base)
			}
		}
	}
}
