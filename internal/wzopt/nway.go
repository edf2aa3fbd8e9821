package wzopt

import (
	"fmt"
	"math"
)

// FieldSpec describes one hashing channel of an N-way compound rule:
// its base collision-probability curve and its distance threshold.
type FieldSpec struct {
	P    func(x float64) float64
	DThr float64
}

// AndNProblem generalizes Programs 4-6 to N fields (the "combining
// rules" setting of Appendix C.4): z tables, each concatenating w_i
// functions of field i, with (sum w_i) * z = budget, such that pairs
// within every field threshold collide with probability >= 1 - eps.
type AndNProblem struct {
	Fields  []FieldSpec
	Epsilon float64
	Budget  int
	// MinW[i] and MinZ enforce sequence monotonicity.
	MinW []int
	MinZ int
}

// AndNScheme is a solved N-way AND allocation.
type AndNScheme struct {
	// W[i] is the number of field-i functions per table.
	W         []int
	Z         int
	Budget    int
	Objective float64
}

// String implements fmt.Stringer.
func (s AndNScheme) String() string {
	return fmt.Sprintf("andN(w=%v,z=%d)", s.W, s.Z)
}

// Prob returns the collision probability for a pair with the given
// per-field base probabilities: 1 - (1 - prod p_i^w_i)^z.
func (s AndNScheme) Prob(ps []float64) float64 {
	prod := 1.0
	for i, p := range ps {
		prod *= math.Pow(p, float64(s.W[i]))
	}
	return 1 - math.Pow(1-prod, float64(s.Z))
}

// haltonPrimes are the coprime bases of the Halton objective, one per
// field: SolveAndN takes at most this many fields.
var haltonPrimes = []int{2, 3, 5, 7, 11, 13, 17, 19, 23, 29}

// haltonPoints generates deterministic low-discrepancy sample points in
// [0,1]^dim (dim <= len(haltonPrimes)) for the Monte Carlo objective
// (van der Corput sequences in coprime bases).
func haltonPoints(n, dim int) [][]float64 {
	pts := make([][]float64, n)
	flat := make([]float64, n*dim)
	for i := range pts {
		pts[i], flat = flat[:dim], flat[dim:]
		for d := 0; d < dim; d++ {
			base := haltonPrimes[d]
			f := 1.0
			x := 0.0
			idx := i + 1
			for idx > 0 {
				f /= float64(base)
				x += f * float64(idx%base)
				idx /= base
			}
			pts[i][d] = x
		}
	}
	return pts
}

// andNObjective estimates the N-dimensional collision-probability
// integral over precomputed base-probability samples.
func andNObjective(samples [][]float64, s AndNScheme) float64 {
	sum := 0.0
	zf := float64(s.Z)
	for _, ps := range samples {
		prod := 1.0
		for i, p := range ps {
			prod *= math.Pow(p, float64(s.W[i]))
		}
		sum += 1 - math.Pow(1-prod, zf)
	}
	return sum / float64(len(samples))
}

// SolveAndN finds a good N-way AND scheme: for each divisor z of the
// budget it starts from a feasibility-driven allocation of the per-
// table function budget across fields, then hill-climbs by moving one
// function at a time between fields while the threshold constraint
// holds. For N = 2 prefer SolveAnd, which scans the space exactly.
func SolveAndN(pr AndNProblem) (AndNScheme, error) {
	n := len(pr.Fields)
	if n < 2 {
		return AndNScheme{}, fmt.Errorf("wzopt: AndN needs >= 2 fields, got %d", n)
	}
	if n > len(haltonPrimes) {
		return AndNScheme{}, fmt.Errorf("wzopt: AndN takes at most %d fields, got %d", len(haltonPrimes), n)
	}
	if pr.Budget < n {
		return AndNScheme{}, fmt.Errorf("wzopt: AndN budget %d < fields %d", pr.Budget, n)
	}
	minW := pr.MinW
	if minW == nil {
		minW = make([]int, n)
	}
	if len(minW) != n {
		return AndNScheme{}, fmt.Errorf("wzopt: MinW has %d entries for %d fields", len(minW), n)
	}
	// Base-probability samples: the objective integrates the collision
	// probability over the unit cube of per-field distances.
	const nSamples = 2048
	raw := haltonPoints(nSamples, n)
	samples := make([][]float64, nSamples)
	flat := make([]float64, nSamples*n)
	for i, pt := range raw {
		samples[i], flat = flat[:n], flat[n:]
		for d, x := range pt {
			samples[i][d] = pr.Fields[d].P(x)
		}
	}
	pThr := make([]float64, n)
	for i, f := range pr.Fields {
		pThr[i] = f.P(f.DThr)
	}
	feasible := func(s AndNScheme) bool {
		if s.Z < max(1, pr.MinZ) {
			return false
		}
		for i, w := range s.W {
			if w < max(1, minW[i]) {
				return false
			}
		}
		return s.Prob(pThr) >= 1-pr.Epsilon
	}

	best := AndNScheme{}
	bestObj := math.Inf(1)
	found := false
	bestFallback := AndNScheme{}
	bestFallbackProb := -1.0
	for z := max(1, pr.MinZ); z <= pr.Budget/n; z++ {
		if pr.Budget%z != 0 {
			continue
		}
		total := pr.Budget / z
		sumMin := 0
		for _, w := range minW {
			sumMin += max(1, w)
		}
		if total < sumMin {
			continue
		}
		// Start from the minimum allocation and grow greedily: give
		// the next function to the field whose threshold-point term
		// p_i^w_i is currently the largest (that hurts the constraint
		// the least while sharpening the scheme the most).
		w := make([]int, n)
		for i := range w {
			w[i] = max(1, minW[i])
		}
		for used := sumMin; used < total; used++ {
			bestI, bestTerm := 0, -1.0
			for i := range w {
				if term := math.Pow(pThr[i], float64(w[i])); term > bestTerm {
					bestI, bestTerm = i, term
				}
			}
			w[bestI]++
		}
		cand := AndNScheme{W: append([]int(nil), w...), Z: z, Budget: pr.Budget}
		if prob := cand.Prob(pThr); prob > bestFallbackProb {
			bestFallback = cand
			bestFallbackProb = prob
		}
		if !feasible(cand) {
			continue
		}
		cand.Objective = andNObjective(samples, cand)
		// Hill-climb: try moving one function from field a to field b.
		improved := true
		for improved {
			improved = false
			for a := 0; a < n; a++ {
				if cand.W[a] <= max(1, minW[a]) {
					continue
				}
				for bI := 0; bI < n; bI++ {
					if bI == a {
						continue
					}
					next := AndNScheme{W: append([]int(nil), cand.W...), Z: cand.Z, Budget: cand.Budget}
					next.W[a]--
					next.W[bI]++
					if !feasible(next) {
						continue
					}
					next.Objective = andNObjective(samples, next)
					if next.Objective < cand.Objective-1e-12 {
						cand = next
						improved = true
					}
				}
			}
		}
		if cand.Objective < bestObj {
			best, bestObj, found = cand, cand.Objective, true
		}
	}
	if !found {
		if bestFallbackProb < 0 {
			return AndNScheme{}, fmt.Errorf("%w: AndN budget=%d", ErrInfeasible, pr.Budget)
		}
		// Relaxed fallback: the allocation with the highest threshold
		// collision probability (early sequence functions are allowed
		// to be inaccurate).
		bestFallback.Objective = andNObjective(samples, bestFallback)
		return bestFallback, nil
	}
	return best, nil
}

// OrNProblem generalizes Programs 7-10 to N fields: field i gets its
// own (w_i, z_i) sub-scheme, the sub-budgets sum to the budget, and
// every field's sub-scheme satisfies its own threshold constraint.
type OrNProblem struct {
	Fields  []FieldSpec
	Epsilon float64
	Budget  int
	// MinW[i], MinZ[i] enforce sequence monotonicity per field.
	MinW, MinZ []int
}

// OrNScheme is a solved N-way OR allocation.
type OrNScheme struct {
	Schemes   []Scheme
	Budget    int
	Objective float64
}

// String implements fmt.Stringer.
func (s OrNScheme) String() string {
	out := "orN["
	for i, sub := range s.Schemes {
		if i > 0 {
			out += "|"
		}
		out += sub.String()
	}
	return out + "]"
}

// Prob returns the scheme collision probability for per-field base
// probabilities ps.
func (s OrNScheme) Prob(ps []float64) float64 {
	q := 1.0
	for i, sub := range s.Schemes {
		q *= 1 - sub.Prob(ps[i])
	}
	return 1 - q
}

// SolveOrN allocates the budget across the N fields by dynamic
// programming over budget quanta, exploiting the same objective
// factorization as SolveOr: the total objective is one minus the
// product of the per-field non-collision integrals, so each field's
// contribution depends only on its own sub-budget.
func SolveOrN(pr OrNProblem) (OrNScheme, error) {
	n := len(pr.Fields)
	if n < 2 {
		return OrNScheme{}, fmt.Errorf("wzopt: OrN needs >= 2 fields, got %d", n)
	}
	if pr.Budget < 2*n {
		return OrNScheme{}, fmt.Errorf("wzopt: OrN budget %d too small for %d fields", pr.Budget, n)
	}
	minW := pr.MinW
	minZ := pr.MinZ
	if minW == nil {
		minW = make([]int, n)
	}
	if minZ == nil {
		minZ = make([]int, n)
	}
	// Budget quanta: at most 64 steps keeps the DP and the per-cell
	// single-field solves cheap while bracketing the optimum closely.
	steps := 64
	if pr.Budget < steps {
		steps = pr.Budget
	}
	quantum := pr.Budget / steps

	// solve[i][q] caches the single-field solution of field i with
	// budget q*quantum; score is log(1 - objective) or -Inf.
	type cell struct {
		scheme Scheme
		score  float64
		ok     bool
	}
	solve := make([][]cell, n)
	for i := range solve {
		solve[i] = make([]cell, steps+1)
		for q := 1; q <= steps; q++ {
			b := q * quantum
			if i == n-1 && q == steps {
				// Let the last quantum absorb rounding.
				b = pr.Budget - (steps-1)*quantum
				if b < 1 {
					b = 1
				}
			}
			s, err := Solve(Problem{
				P: pr.Fields[i].P, DThr: pr.Fields[i].DThr, Epsilon: pr.Epsilon,
				Budget: b, MinW: minW[i], MinZ: minZ[i],
			})
			if err != nil {
				continue
			}
			solve[i][q] = cell{scheme: s, score: math.Log(math.Max(1e-300, 1-s.Objective)), ok: true}
		}
	}

	// DP over fields: dp[q] = best cumulative score using q quanta,
	// with choice tracking for reconstruction.
	const negInf = math.MaxFloat64
	dp := make([]float64, steps+1)
	choice := make([][]int, n)
	for i := range choice {
		choice[i] = make([]int, steps+1)
		for q := range choice[i] {
			choice[i][q] = -1
		}
	}
	for q := range dp {
		dp[q] = -negInf
	}
	dp[0] = 0
	for i := 0; i < n; i++ {
		next := make([]float64, steps+1)
		for q := range next {
			next[q] = -negInf
		}
		for used := 0; used <= steps; used++ {
			if dp[used] == -negInf {
				continue
			}
			for take := 1; used+take <= steps; take++ {
				c := solve[i][take]
				if !c.ok {
					continue
				}
				if sc := dp[used] + c.score; sc > next[used+take] {
					next[used+take] = sc
					choice[i][used+take] = take
				}
			}
		}
		dp = next
	}
	// Pick the best total (using at most all quanta; unused budget is
	// allowed but never optimal since more tables only help).
	bestQ, bestScore := -1, -negInf
	for q := n; q <= steps; q++ {
		if dp[q] > bestScore {
			bestQ, bestScore = q, dp[q]
		}
	}
	if bestQ < 0 {
		// Relaxed fallback for small budgets (early sequence functions
		// are allowed to be inaccurate): split the budget evenly and
		// take each field's best-effort scheme.
		out := OrNScheme{Schemes: make([]Scheme, n), Budget: pr.Budget}
		prod := 1.0
		for i := range out.Schemes {
			b := pr.Budget / n
			if i == n-1 {
				b = pr.Budget - (n-1)*(pr.Budget/n)
			}
			s, err := SolveRelaxed(Problem{
				P: pr.Fields[i].P, DThr: pr.Fields[i].DThr, Epsilon: pr.Epsilon,
				Budget: b, MinW: minW[i], MinZ: minZ[i],
			})
			if err != nil {
				return OrNScheme{}, fmt.Errorf("%w: OrN budget=%d (relaxed: %v)", ErrInfeasible, pr.Budget, err)
			}
			out.Schemes[i] = s
			prod *= 1 - s.Objective
		}
		out.Objective = 1 - prod
		return out, nil
	}
	// Reconstruct.
	out := OrNScheme{Schemes: make([]Scheme, n), Budget: pr.Budget}
	q := bestQ
	for i := n - 1; i >= 0; i-- {
		take := choice[i][q]
		if take < 0 {
			return OrNScheme{}, fmt.Errorf("wzopt: OrN reconstruction failed at field %d", i)
		}
		out.Schemes[i] = solve[i][take].scheme
		q -= take
	}
	// Objective = 1 - prod(1 - O_i).
	prod := 1.0
	for _, s := range out.Schemes {
		prod *= 1 - s.Objective
	}
	out.Objective = 1 - prod
	return out, nil
}
