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

// Sequence bounds Validate enforces. Each level's solver scans every w
// up to its budget, and each hasher pre-generates the longest prefix
// any level uses, so a config from outside (a snapshot) must not name
// an unbounded sequence. The largest budget any caller uses is 5120
// (LSH5120 and the linear figure modes).
const (
	maxLevels      = 64
	maxLevelBudget = 1 << 16
)

// Validate checks the defaulted config: Levels in [1, 64], a known
// Mode, Epsilon in (0, 1), and every level budget in [1, 1<<16]. Its
// cost is O(Levels); DesignPlan and RestoreStream apply it.
func (c SequenceConfig) Validate() error {
	_, err := c.budgets()
	return err
}

// Budgets returns the per-level hash budgets b_1..b_L, or nil for a
// config Validate refuses.
func (c SequenceConfig) Budgets() []int {
	out, _ := c.budgets()
	return out
}

// budgets validates the defaulted config and computes b_1..b_L, each
// step checked before it is taken so that no budget can overflow.
func (c SequenceConfig) budgets() ([]int, error) {
	c = c.withDefaults()
	if c.Levels < 1 || c.Levels > maxLevels {
		return nil, fmt.Errorf("core: sequence config: Levels %d outside [1, %d]", c.Levels, maxLevels)
	}
	if c.Mode != Exponential && c.Mode != Linear {
		return nil, fmt.Errorf("core: sequence config: unknown Mode %v", c.Mode)
	}
	if !(c.Epsilon > 0 && c.Epsilon < 1) {
		return nil, fmt.Errorf("core: sequence config: Epsilon %g outside (0, 1)", c.Epsilon)
	}
	b := c.InitialBudget
	if b < 1 || b > maxLevelBudget {
		return nil, fmt.Errorf("core: sequence config: H_1 budget %d outside [1, %d]", b, maxLevelBudget)
	}
	out := make([]int, c.Levels)
	out[0] = b
	for i := 1; i < c.Levels; i++ {
		switch {
		case c.Mode == Linear && c.Step >= 1-b && c.Step <= maxLevelBudget-b:
			b += c.Step
		case c.Mode == Exponential && c.Factor >= 1 && b <= maxLevelBudget/c.Factor:
			b *= c.Factor
		default:
			return nil, fmt.Errorf("core: sequence config: H_%d budget outside [1, %d]", i+1, maxLevelBudget)
		}
		out[i] = b
	}
	return out, nil
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
// WeightedAverages. Every shape runs the same loop: per level budget
// the shape's solver picks a scheme, laid out as table groups, and the
// hashers are built once from the longest prefix any level uses. One
// leaf uses Programs 1-3; two-leaf compounds use the exact Programs 4-6
// and 7-10 of Appendix C; wider compounds use the N-way generalizations
// of Appendix C.4 (hill-climbing for AND, budget DP for OR). A dataset
// whose records do not fit the rule (distance.CheckFields), a config
// that fails SequenceConfig.Validate, and a hasher that cannot be built
// are refused with an error.
func DesignPlan(ds *record.Dataset, rule distance.Rule, cfg SequenceConfig) (*Plan, error) {
	if ds.Len() > 0 {
		if err := distance.CheckFields(rule, ds.Records[0].Fields); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	cfg = cfg.withDefaults()
	budgets, err := cfg.budgets()
	if err != nil {
		return nil, err
	}
	leaves, sh, err := ruleShape(ds, rule, cfg)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Rule: rule, Funcs: make([]*HashFunc, len(budgets))}
	maxFuncs := make([]int, len(leaves))
	for i, b := range budgets {
		label, groups, err := sh.solve(b)
		if err != nil {
			return nil, fmt.Errorf("core: designing %sH_%d: %w", sh.name, i+1, err)
		}
		plan.Funcs[i] = layoutFunc(i+1, len(leaves), label, groups)
		for h, n := range plan.Funcs[i].FuncsPerHasher {
			maxFuncs[h] = max(maxFuncs[h], n)
		}
	}
	for i, l := range leaves {
		desc := l.desc(maxFuncs[i], xhash.SplitMix64(cfg.Seed+sh.seed+uint64(i)))
		h, err := desc.Build()
		if err != nil {
			return nil, fmt.Errorf("core: hasher %d: %w", i, err)
		}
		plan.Hashers = append(plan.Hashers, h)
		plan.HasherDescs = append(plan.HasherDescs, desc)
	}
	plan.Cost = Calibrate(ds, rule, plan.Hashers, cfg.Seed)
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	return plan, nil
}

// levelSolver picks one level's scheme for a budget and returns its
// label and table groups. It keeps the previous level's minima between
// calls (Section 4.1's monotonicity), so DesignPlan calls it once per
// level, in order.
type levelSolver func(budget int) (label string, groups []tableGroup, err error)

// designShape is what one rule shape brings to DesignPlan's loop: its
// level solver, the base its hashers' seeds derive from (leaf i gets
// SplitMix64(Seed+seed+i)), and the name its errors carry.
type designShape struct {
	name  string
	seed  uint64
	solve levelSolver
}

// ruleShape analyzes the rule's leaves and picks its shape's solver.
func ruleShape(ds *record.Dataset, rule distance.Rule, cfg SequenceConfig) ([]leafSpec, designShape, error) {
	switch r := rule.(type) {
	case distance.Threshold, distance.WeightedAverage:
		leaf, err := analyzeLeaf(ds, rule)
		if err != nil {
			return nil, designShape{}, err
		}
		return []leafSpec{leaf}, designShape{seed: 0xa11a, solve: singleSolver(leaf, cfg)}, nil
	case distance.And:
		leaves, err := analyzeLeaves(ds, r)
		if err != nil {
			return nil, designShape{}, fmt.Errorf("core: AND rule: %w", err)
		}
		if len(leaves) == 2 {
			return leaves, designShape{name: "AND ", seed: 0xa11b, solve: andSolver(leaves[0], leaves[1], cfg)}, nil
		}
		return leaves, designShape{name: "AndN ", seed: 0xa21a, solve: andNSolver(leaves, cfg)}, nil
	case distance.Or:
		leaves, err := analyzeLeaves(ds, r)
		if err != nil {
			return nil, designShape{}, fmt.Errorf("core: OR rule: %w", err)
		}
		if len(leaves) == 2 {
			return leaves, designShape{name: "OR ", seed: 0xa11d, solve: orSolver(leaves[0], leaves[1], cfg)}, nil
		}
		return leaves, designShape{name: "OrN ", seed: 0xa22a, solve: orNSolver(leaves, cfg)}, nil
	}
	return nil, designShape{}, fmt.Errorf("core: unsupported rule type %T", rule)
}

// singleSolver designs one leaf's levels with Programs 1-3 (Section
// 5.1), with a remainder table when cfg.AllowRemainder.
func singleSolver(l leafSpec, cfg SequenceConfig) levelSolver {
	minW, minZ := 0, 0
	return func(b int) (string, []tableGroup, error) {
		s, err := wzopt.SolveRelaxed(wzopt.Problem{
			P: l.p, DThr: l.dthr, Epsilon: cfg.Epsilon, Budget: b,
			MinW: minW, MinZ: minZ, AllowRemainder: cfg.AllowRemainder,
		})
		if err != nil {
			return "", nil, err
		}
		minW, minZ = s.W, s.Z
		return s.String(), []tableGroup{{w: []int{s.W}, z: s.Z, rem: s.WRem}}, nil
	}
}

// andSolver designs a two-leaf AND with Programs 4-6 (Appendix C.1).
func andSolver(la, lb leafSpec, cfg SequenceConfig) levelSolver {
	minW, minU, minZ := 0, 0, 0
	return func(b int) (string, []tableGroup, error) {
		s, err := wzopt.SolveAndRelaxed(wzopt.AndProblem{
			P1: la.p, P2: lb.p, DThr1: la.dthr, DThr2: lb.dthr,
			Epsilon: cfg.Epsilon, Budget: b,
			MinW: minW, MinU: minU, MinZ: minZ,
		})
		if err != nil {
			return "", nil, err
		}
		minW, minU, minZ = s.W, s.U, s.Z
		return s.String(), []tableGroup{{w: []int{s.W, s.U}, z: s.Z}}, nil
	}
}

// orSolver designs a two-leaf OR with Programs 7-10 (Appendix C.2).
// When no split meets both thresholds it falls back to an even split
// with relaxed per-field solves: early functions are allowed to be
// inaccurate.
func orSolver(la, lb leafSpec, cfg SequenceConfig) levelSolver {
	minW, minZ, minU, minV := 0, 0, 0, 0
	return func(b int) (string, []tableGroup, error) {
		s, err := wzopt.SolveOr(wzopt.OrProblem{
			P1: la.p, P2: lb.p, DThr1: la.dthr, DThr2: lb.dthr,
			Epsilon: cfg.Epsilon, Budget: b,
			MinW: minW, MinZ: minZ, MinU: minU, MinV: minV,
		})
		if err != nil {
			s1, e1 := wzopt.SolveRelaxed(wzopt.Problem{P: la.p, DThr: la.dthr, Epsilon: cfg.Epsilon, Budget: b / 2, MinW: minW, MinZ: minZ})
			s2, e2 := wzopt.SolveRelaxed(wzopt.Problem{P: lb.p, DThr: lb.dthr, Epsilon: cfg.Epsilon, Budget: b - b/2, MinW: minU, MinZ: minV})
			if e1 != nil || e2 != nil {
				return "", nil, err
			}
			s = wzopt.OrScheme{Field1: s1, Field2: s2, Budget: b}
		}
		f1, f2 := s.Field1, s.Field2
		minW, minZ, minU, minV = f1.W, f1.Z, f2.W, f2.Z
		return fmt.Sprintf("or[(w=%d,z=%d)|(u=%d,v=%d)]", f1.W, f1.Z, f2.W, f2.Z), orGroups(f1, f2), nil
	}
}

// andNSolver designs an AND over three or more leaves (Appendix C.4).
func andNSolver(leaves []leafSpec, cfg SequenceConfig) levelSolver {
	fields := fieldSpecs(leaves)
	var minW []int
	minZ := 0
	return func(b int) (string, []tableGroup, error) {
		s, err := wzopt.SolveAndN(wzopt.AndNProblem{
			Fields: fields, Epsilon: cfg.Epsilon, Budget: b, MinW: minW, MinZ: minZ,
		})
		if err != nil {
			return "", nil, err
		}
		minW, minZ = s.W, s.Z
		return s.String(), []tableGroup{{w: s.W, z: s.Z}}, nil
	}
}

// orNSolver designs an OR over three or more leaves (Appendix C.4).
func orNSolver(leaves []leafSpec, cfg SequenceConfig) levelSolver {
	fields := fieldSpecs(leaves)
	minW, minZ := make([]int, len(leaves)), make([]int, len(leaves))
	return func(b int) (string, []tableGroup, error) {
		s, err := wzopt.SolveOrN(wzopt.OrNProblem{
			Fields: fields, Epsilon: cfg.Epsilon, Budget: b, MinW: minW, MinZ: minZ,
		})
		if err != nil {
			return "", nil, err
		}
		for i, sub := range s.Schemes {
			minW[i], minZ[i] = sub.W, sub.Z
		}
		return s.String(), orGroups(s.Schemes...), nil
	}
}

func fieldSpecs(leaves []leafSpec) []wzopt.FieldSpec {
	fields := make([]wzopt.FieldSpec, len(leaves))
	for i, l := range leaves {
		fields[i] = wzopt.FieldSpec{P: l.p, DThr: l.dthr}
	}
	return fields
}
