package core

import (
	"fmt"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/wzopt"
	"github.com/topk-er/adalsh/internal/xhash"
)

// BudgetMode selects how the per-function hash budget grows along the
// sequence (Section 5.2).
type BudgetMode int

const (
	// Exponential multiplies the budget by Factor at each step (the
	// paper's default: 20, 40, 80, ...).
	Exponential BudgetMode = iota
	// Linear adds Step at each step (e.g. 320, 640, 960, ...).
	Linear
)

// String implements fmt.Stringer.
func (m BudgetMode) String() string {
	switch m {
	case Exponential:
		return "exponential"
	case Linear:
		return "linear"
	}
	return fmt.Sprintf("BudgetMode(%d)", int(m))
}

// SequenceConfig controls the design of the transitive hashing
// function sequence.
type SequenceConfig struct {
	// InitialBudget is H_1's hash-function budget (default 20, the
	// paper's default mode).
	InitialBudget int
	// Mode selects Exponential or Linear growth.
	Mode BudgetMode
	// Factor is the Exponential multiplier (default 2).
	Factor int
	// Step is the Linear increment (default InitialBudget).
	Step int
	// Levels is the sequence length L (default 8, growing the default
	// 20 up to 2560 — the neighborhood of a typical LSH budget).
	Levels int
	// Epsilon is the threshold-constraint slack of the scheme
	// optimizer (default 0.001, as in the paper's Example 5).
	Epsilon float64
	// Seed derives every random choice (hyperplanes, MinHash seeds,
	// weighted-average picks) deterministically.
	Seed uint64
	// AllowRemainder lets single-field schemes use non-divisor w
	// values with a remainder table (Section 5.1 extension).
	AllowRemainder bool
}

// withDefaults fills zero fields with the paper's defaults.
func (c SequenceConfig) withDefaults() SequenceConfig {
	if c.InitialBudget == 0 {
		c.InitialBudget = 20
	}
	if c.Factor == 0 {
		c.Factor = 2
	}
	if c.Step == 0 {
		c.Step = c.InitialBudget
	}
	if c.Levels == 0 {
		c.Levels = 8
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-3
	}
	return c
}

// Budgets returns the per-level hash budgets b_1..b_L.
func (c SequenceConfig) Budgets() []int {
	c = c.withDefaults()
	out := make([]int, c.Levels)
	b := c.InitialBudget
	for i := range out {
		if c.Mode == Linear {
			b = c.InitialBudget + i*c.Step
		} else if i > 0 {
			b *= c.Factor
		}
		out[i] = b
	}
	return out
}

// leafSpec is one hashing channel extracted from a rule: its base
// collision probability curve, its distance threshold, and a hasher
// descriptor factory (the descriptor is both buildable and
// serializable, so plans can be persisted).
type leafSpec struct {
	p    func(float64) float64
	dthr float64
	desc func(maxFuncs int, seed uint64) lshfamily.Desc
}

// build constructs the hasher for the leaf.
func (l leafSpec) build(maxFuncs int, seed uint64) lshfamily.Hasher {
	h, err := l.desc(maxFuncs, seed).Build()
	if err != nil {
		// Descs produced by analyzeLeaf are always buildable.
		panic(err)
	}
	return h
}

// analyzeLeaf converts a Threshold or WeightedAverage rule into a
// leafSpec. ds provides vector dimensions for hyperplane families.
func analyzeLeaf(ds *record.Dataset, r distance.Rule) (leafSpec, error) {
	switch rr := r.(type) {
	case distance.Threshold:
		metric := rr.Metric
		field := rr.Field
		switch metric.FieldKind() {
		case record.VectorKind:
			if ds.Len() == 0 {
				return leafSpec{}, fmt.Errorf("core: empty dataset, cannot size projection family for field %d", field)
			}
			dim := ds.Records[0].Fields[field].Len()
			if eu, ok := metric.(distance.Euclidean); ok {
				scale, bucket := eu.Scale, eu.EffectiveBucket()
				return leafSpec{
					p:    metric.P,
					dthr: rr.MaxDistance,
					desc: func(maxFuncs int, seed uint64) lshfamily.Desc {
						return lshfamily.Desc{Kind: lshfamily.KindPStable, Field: field, Dim: dim,
							Scale: scale, BucketFraction: bucket, MaxFuncs: maxFuncs, Seed: seed}
					},
				}, nil
			}
			return leafSpec{
				p:    metric.P,
				dthr: rr.MaxDistance,
				desc: func(maxFuncs int, seed uint64) lshfamily.Desc {
					return lshfamily.Desc{Kind: lshfamily.KindHyperplane, Field: field, Dim: dim, MaxFuncs: maxFuncs, Seed: seed}
				},
			}, nil
		case record.SetKind:
			kind := lshfamily.KindMinHash
			if j, ok := metric.(distance.Jaccard); ok && j.OPH {
				kind = lshfamily.KindMinHashOPH
			}
			return leafSpec{
				p:    metric.P,
				dthr: rr.MaxDistance,
				desc: func(maxFuncs int, seed uint64) lshfamily.Desc {
					return lshfamily.Desc{Kind: kind, Field: field, MaxFuncs: maxFuncs, Seed: seed}
				},
			}, nil
		case record.BitsKind:
			if ds.Len() == 0 {
				return leafSpec{}, fmt.Errorf("core: empty dataset, cannot size bit-sampling family for field %d", field)
			}
			width := ds.Records[0].Fields[field].Len()
			return leafSpec{
				p:    metric.P,
				dthr: rr.MaxDistance,
				desc: func(maxFuncs int, seed uint64) lshfamily.Desc {
					return lshfamily.Desc{Kind: lshfamily.KindBitSample, Field: field, Width: width, MaxFuncs: maxFuncs, Seed: seed}
				},
			}, nil
		}
		return leafSpec{}, fmt.Errorf("core: unsupported metric field kind %v", metric.FieldKind())
	case distance.WeightedAverage:
		if err := rr.Validate(); err != nil {
			return leafSpec{}, err
		}
		subs := make([]leafSpec, len(rr.Fields))
		for i := range rr.Fields {
			sub, err := analyzeLeaf(ds, distance.Threshold{Field: rr.Fields[i], Metric: rr.Metrics[i], MaxDistance: 1})
			if err != nil {
				return leafSpec{}, err
			}
			subs[i] = sub
		}
		weights := append([]float64(nil), rr.Weights...)
		return leafSpec{
			// Theorem 3: the mixed family collides with probability
			// 1 - dbar at weighted-average distance dbar.
			p:    func(x float64) float64 { return 1 - x },
			dthr: rr.MaxDistance,
			desc: func(maxFuncs int, seed uint64) lshfamily.Desc {
				descs := make([]lshfamily.Desc, len(subs))
				for i, s := range subs {
					descs[i] = s.desc(maxFuncs, xhash.SplitMix64(seed+uint64(i)+1))
				}
				return lshfamily.Desc{
					Kind: lshfamily.KindWeightedMix, MaxFuncs: maxFuncs, Seed: seed,
					Weights: weights, Subs: descs,
				}
			},
		}, nil
	}
	return leafSpec{}, fmt.Errorf("core: rule %T is not a hashable leaf (Threshold or WeightedAverage)", r)
}

// analyzeLeaves converts every sub-rule of a compound rule into a
// hashing channel. Compound rules must be flat: each sub-rule is a
// Threshold or WeightedAverage leaf.
func analyzeLeaves(ds *record.Dataset, subs []distance.Rule) ([]leafSpec, error) {
	if len(subs) < 2 {
		return nil, fmt.Errorf("compound rule with %d sub-rules, want >= 2", len(subs))
	}
	leaves := make([]leafSpec, len(subs))
	for i, sub := range subs {
		leaf, err := analyzeLeaf(ds, sub)
		if err != nil {
			return nil, fmt.Errorf("sub-rule %d: %w", i, err)
		}
		leaves[i] = leaf
	}
	return leaves, nil
}

// DesignPlan designs the full Adaptive LSH plan — hashers, the
// transitive hashing function sequence H_1..H_L (with each level's
// (w,z)-scheme chosen by the optimization programs of Section 5.1 /
// Appendix C under the sequence monotonicity constraints), and the
// calibrated cost model — for the given dataset and rule.
//
// Supported rule shapes: a single Threshold, a WeightedAverage, or a
// flat And/Or over two or more leaves, where leaves are Thresholds or
// WeightedAverages. Two-leaf compounds use the exact Programs 4-6 and
// 7-10 of Appendix C; wider compounds use the N-way generalizations of
// Appendix C.4 (hill-climbing for AND, budget DP for OR). A dataset
// whose records do not fit the rule (distance.CheckFields) is refused.
func DesignPlan(ds *record.Dataset, rule distance.Rule, cfg SequenceConfig) (*Plan, error) {
	if ds.Len() > 0 {
		if err := distance.CheckFields(rule, ds.Records[0].Fields); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	cfg = cfg.withDefaults()
	budgets := cfg.Budgets()

	switch r := rule.(type) {
	case distance.Threshold, distance.WeightedAverage:
		leaf, err := analyzeLeaf(ds, rule)
		if err != nil {
			return nil, err
		}
		return designSingle(ds, rule, leaf, budgets, cfg)
	case distance.And:
		leaves, err := analyzeLeaves(ds, r)
		if err != nil {
			return nil, fmt.Errorf("core: AND rule: %w", err)
		}
		if len(leaves) == 2 {
			return designAnd(ds, rule, leaves[0], leaves[1], budgets, cfg)
		}
		return designAndN(ds, rule, leaves, budgets, cfg)
	case distance.Or:
		leaves, err := analyzeLeaves(ds, r)
		if err != nil {
			return nil, fmt.Errorf("core: OR rule: %w", err)
		}
		if len(leaves) == 2 {
			return designOr(ds, rule, leaves[0], leaves[1], budgets, cfg)
		}
		return designOrN(ds, rule, leaves, budgets, cfg)
	}
	return nil, fmt.Errorf("core: unsupported rule type %T", rule)
}

func designSingle(ds *record.Dataset, rule distance.Rule, leaf leafSpec, budgets []int, cfg SequenceConfig) (*Plan, error) {
	funcs := make([]*HashFunc, len(budgets))
	minW, minZ := 0, 0
	maxFuncs := 0
	for i, b := range budgets {
		s, err := wzopt.SolveRelaxed(wzopt.Problem{
			P: leaf.p, DThr: leaf.dthr, Epsilon: cfg.Epsilon, Budget: b,
			MinW: minW, MinZ: minZ, AllowRemainder: cfg.AllowRemainder,
		})
		if err != nil {
			return nil, fmt.Errorf("core: designing H_%d: %w", i+1, err)
		}
		funcs[i] = singleFieldFunc(i+1, 0, s.W, s.Z, s.WRem)
		funcs[i].fillFuncsPerHasher(1)
		minW, minZ = s.W, s.Z
		if funcs[i].FuncsPerHasher[0] > maxFuncs {
			maxFuncs = funcs[i].FuncsPerHasher[0]
		}
	}
	descs := []lshfamily.Desc{leaf.desc(maxFuncs, xhash.SplitMix64(cfg.Seed+0xa11a))}
	plan := &Plan{Rule: rule, Hashers: []lshfamily.Hasher{leaf.build(maxFuncs, xhash.SplitMix64(cfg.Seed+0xa11a))}, HasherDescs: descs, Funcs: funcs}
	plan.Cost = Calibrate(ds, rule, plan.Hashers, cfg.Seed)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

func designAnd(ds *record.Dataset, rule distance.Rule, la, lb leafSpec, budgets []int, cfg SequenceConfig) (*Plan, error) {
	funcs := make([]*HashFunc, len(budgets))
	minW, minU, minZ := 0, 0, 0
	maxA, maxB := 0, 0
	for i, b := range budgets {
		s, err := wzopt.SolveAndRelaxed(wzopt.AndProblem{
			P1: la.p, P2: lb.p, DThr1: la.dthr, DThr2: lb.dthr,
			Epsilon: cfg.Epsilon, Budget: b,
			MinW: minW, MinU: minU, MinZ: minZ,
		})
		if err != nil {
			return nil, fmt.Errorf("core: designing AND H_%d: %w", i+1, err)
		}
		funcs[i] = andFunc(i+1, 0, 1, s.W, s.U, s.Z)
		funcs[i].fillFuncsPerHasher(2)
		minW, minU, minZ = s.W, s.U, s.Z
		if n := funcs[i].FuncsPerHasher[0]; n > maxA {
			maxA = n
		}
		if n := funcs[i].FuncsPerHasher[1]; n > maxB {
			maxB = n
		}
	}
	plan := &Plan{
		Rule: rule,
		Hashers: []lshfamily.Hasher{
			la.build(maxA, xhash.SplitMix64(cfg.Seed+0xa11b)),
			lb.build(maxB, xhash.SplitMix64(cfg.Seed+0xa11c)),
		},
		HasherDescs: []lshfamily.Desc{
			la.desc(maxA, xhash.SplitMix64(cfg.Seed+0xa11b)),
			lb.desc(maxB, xhash.SplitMix64(cfg.Seed+0xa11c)),
		},
		Funcs: funcs,
	}
	plan.Cost = Calibrate(ds, rule, plan.Hashers, cfg.Seed)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

func designOr(ds *record.Dataset, rule distance.Rule, la, lb leafSpec, budgets []int, cfg SequenceConfig) (*Plan, error) {
	funcs := make([]*HashFunc, len(budgets))
	minW, minZ, minU, minV := 0, 0, 0, 0
	maxA, maxB := 0, 0
	for i, b := range budgets {
		s, err := wzopt.SolveOr(wzopt.OrProblem{
			P1: la.p, P2: lb.p, DThr1: la.dthr, DThr2: lb.dthr,
			Epsilon: cfg.Epsilon, Budget: b,
			MinW: minW, MinZ: minZ, MinU: minU, MinV: minV,
		})
		if err != nil {
			// Fall back to an even split with relaxed per-field solves:
			// early functions are allowed to be inaccurate.
			s1, e1 := wzopt.SolveRelaxed(wzopt.Problem{P: la.p, DThr: la.dthr, Epsilon: cfg.Epsilon, Budget: b / 2, MinW: minW, MinZ: minZ})
			s2, e2 := wzopt.SolveRelaxed(wzopt.Problem{P: lb.p, DThr: lb.dthr, Epsilon: cfg.Epsilon, Budget: b - b/2, MinW: minU, MinZ: minV})
			if e1 != nil || e2 != nil {
				return nil, fmt.Errorf("core: designing OR H_%d: %w", i+1, err)
			}
			s = wzopt.OrScheme{Field1: s1, Field2: s2, Budget: b}
		}
		funcs[i] = orFunc(i+1, 0, 1, s.Field1.W, s.Field1.Z, s.Field2.W, s.Field2.Z)
		funcs[i].fillFuncsPerHasher(2)
		minW, minZ, minU, minV = s.Field1.W, s.Field1.Z, s.Field2.W, s.Field2.Z
		if n := funcs[i].FuncsPerHasher[0]; n > maxA {
			maxA = n
		}
		if n := funcs[i].FuncsPerHasher[1]; n > maxB {
			maxB = n
		}
	}
	plan := &Plan{
		Rule: rule,
		Hashers: []lshfamily.Hasher{
			la.build(maxA, xhash.SplitMix64(cfg.Seed+0xa11d)),
			lb.build(maxB, xhash.SplitMix64(cfg.Seed+0xa11e)),
		},
		HasherDescs: []lshfamily.Desc{
			la.desc(maxA, xhash.SplitMix64(cfg.Seed+0xa11d)),
			lb.desc(maxB, xhash.SplitMix64(cfg.Seed+0xa11e)),
		},
		Funcs: funcs,
	}
	plan.Cost = Calibrate(ds, rule, plan.Hashers, cfg.Seed)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}
