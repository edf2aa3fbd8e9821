package distance

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"

	"github.com/topk-er/adalsh/internal/record"
)

// This file implements the prepared match kernels: threshold-aware
// specializations of Rule.Match built once per record slice. A
// PreparedRule answers MatchIdx(i, j) with a decision provably
// identical to Rule.Match on the same records, but pays per pair only
// for the work the threshold actually requires:
//
//   - Cosine: each record's squared norm (accumulated in exactly the
//     order CosineVec uses, so the value is bit-identical) and its
//     inverse square root are computed once at prepare time. A pair
//     then costs one dot product, summed in four independent
//     accumulators: the angular test d <= thr is answered as
//     dot*invNa*invNb >= cos(pi*thr) with a guard band, falling back to
//     CosineVec's sequential dot and exact sqrt/acos arithmetic only
//     inside the band (see cosineGuard).
//   - Jaccard: d <= thr is rewritten as an integer bound on the
//     intersection size. The bound doubles as a set-size-ratio
//     prefilter (when even full containment cannot reach it the pair
//     is rejected without merging), and the merge early-exits as soon
//     as the remaining elements decide the outcome either way.
//   - Euclidean: the squared-distance budget equivalent to
//     (thr*Scale)^2 is resolved at prepare time to the exact float
//     boundary of the naive decision, and the squared partial sums are
//     compared against it with early exit — no sqrt per pair.
//   - Hamming: math/bits.OnesCount64 per word with early exit once the
//     bit-difference budget is exhausted, plus a per-record-popcount
//     prefilter (|ones(a) - ones(b)| lower-bounds the XOR popcount).
//   - And/Or/WeightedAverage compose prepared sub-kernels; the
//     weighted rule additionally fails fast once the accumulated
//     weighted distance alone exceeds the threshold (sound because
//     float addition of non-negative terms is monotone).
//
// Every exactness argument reduces to two facts: (1) the kernels
// accumulate sums in the same order as the naive metrics, so shared
// intermediate values are bit-identical; (2) where the kernels compare
// in a transformed domain (cosine space, squared-distance space,
// integer intersection/bit counts) the transformed bound is resolved
// against the naive float predicate itself — by probing or
// bit-level binary search — never against real-valued algebra alone.
//
// Every kernel also has a probe form (PreparedRule.Probe) for a record
// outside the prepared slice, as point lookups need: the probe's
// invariants are computed once, and each pair then runs the same
// per-pair function MatchIdx runs, with the probe as the left operand.

// PreparedStats counts the cheap decisions a prepared kernel made. The
// counts are deterministic per evaluated pair, so serial and parallel
// runs over the same pairs report identical values.
type PreparedStats struct {
	// PrefilterRejects counts pairs decided (in either direction) from
	// per-record invariants alone, before any element-wise work: zero
	// norms, impossible intersection bounds, popcount gaps, degenerate
	// thresholds.
	PrefilterRejects int64
	// EarlyExits counts element-wise comparisons abandoned before the
	// last element once the outcome was already decided.
	EarlyExits int64
}

// PreparedRule is a match kernel specialized to a fixed record slice.
// MatchIdx, Probe and the probe forms are safe for concurrent use (the
// parallel pairwise wave workers and concurrent point lookups share one
// kernel); the stats counters are atomic.
type PreparedRule interface {
	// MatchIdx reports whether the records at local indices i and j
	// match — exactly the decision Rule.Match makes on the same pair.
	MatchIdx(i, j int) bool
	// Probe returns the kernel's probe form for q, a record that need
	// not belong to the prepared slice: match(j) reports exactly
	// Rule.Match(q, &ds.Records[recs[j]]), with q the left operand.
	// q's invariants (norms, popcounts, budgets) are computed here,
	// once; q must have the prepared records' field layout.
	Probe(q *record.Record) (match func(j int) bool)
	// Stats snapshots the kernel-effectiveness counters.
	Stats() PreparedStats
	// MemBytes reports the kernel's own per-record arrays: the field
	// headers it keeps and the invariants it computed, not the field
	// payloads, which stay the dataset's.
	MemBytes() int64
}

// sliceBytes is the size of s's elements up to its length.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(len(s)) * int64(unsafe.Sizeof(zero))
}

// Prepare builds the prepared kernel for rule over the records
// ds.Records[recs[0..n)]; MatchIdx takes local indices into recs.
// Rules and metrics outside the built-in shapes degrade to calling
// Rule.Match per pair, so Prepare never changes a decision.
func Prepare(ds *record.Dataset, rule Rule, recs []int32) PreparedRule {
	ctr := &kernelCounters{}
	return prepare(ds, rule, recs, ctr)
}

// kernelCounters is the shared, atomically-updated counter block of a
// prepared kernel tree.
type kernelCounters struct {
	prefilter int64
	early     int64
}

func (c *kernelCounters) stats() PreparedStats {
	return PreparedStats{
		PrefilterRejects: atomic.LoadInt64(&c.prefilter),
		EarlyExits:       atomic.LoadInt64(&c.early),
	}
}

func prepare(ds *record.Dataset, rule Rule, recs []int32, ctr *kernelCounters) PreparedRule {
	switch r := rule.(type) {
	case Threshold:
		switch m := r.Metric.(type) {
		case Cosine:
			return prepareCosine(ds, r, recs, ctr)
		case Jaccard:
			return prepareJaccard(ds, r, recs, ctr)
		case Euclidean:
			return prepareEuclidean(ds, r, m, recs, ctr)
		case Hamming:
			return prepareHamming(ds, r, recs, ctr)
		}
	case And:
		subs := make([]PreparedRule, len(r))
		for i, sub := range r {
			subs[i] = prepare(ds, sub, recs, ctr)
		}
		return andKernel{subs: subs, ctr: ctr}
	case Or:
		subs := make([]PreparedRule, len(r))
		for i, sub := range r {
			subs[i] = prepare(ds, sub, recs, ctr)
		}
		return orKernel{subs: subs, ctr: ctr}
	case WeightedAverage:
		if k := prepareWeighted(ds, r, recs, ctr); k != nil {
			return k
		}
	}
	return naiveKernel{ds: ds, rule: rule, recs: recs, ctr: ctr}
}

// naiveKernel is the fallback for rule shapes and metrics the kernel
// layer does not specialize: every pair goes through Rule.Match.
type naiveKernel struct {
	ds   *record.Dataset
	rule Rule
	recs []int32
	ctr  *kernelCounters
}

func (k naiveKernel) MatchIdx(i, j int) bool {
	return k.rule.Match(&k.ds.Records[k.recs[i]], &k.ds.Records[k.recs[j]])
}

func (k naiveKernel) Probe(q *record.Record) func(int) bool {
	return func(j int) bool { return k.rule.Match(q, &k.ds.Records[k.recs[j]]) }
}

func (k naiveKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k naiveKernel) MemBytes() int64 { return 0 }

// ---------------------------------------------------------------------------
// Cosine

// cosineGuard is the half-width of the exact-arithmetic band around
// cos(pi*thr). The fast path compares dot4(a, b)*invNa*invNb, whose dot
// product sums in four independent accumulators. Recursive summation of
// dim products errs by at most ~dim ulps of sum|a_i*b_i|, which
// Cauchy–Schwarz bounds by |a||b|; so after normalization the reordered
// sum differs from CosineVec's sequential one by at most about 2*dim
// ulps of a value <= 1, and the fast value from the naive
// dot/sqrt(na*nb) by ~(3*dim+8) ulps once the sequential sum's own
// error, the inverse roots and the cos-vs-acos threshold transformation
// are counted — far below 1e-8 for any dimension under ~2^23. Inside
// the band the kernel recomputes the sequential dot and re-derives the
// decision with the naive formula on the precomputed (bit-identical)
// squared norms, so the decision is exact even at the boundary.
const cosineGuard = 1e-8

type cosineKernel struct {
	field int
	vecs  []record.Vector
	norm  []float64 // squared norms, accumulated exactly as CosineVec does
	inv   []float64 // invRoot(norm)
	thr   float64
	// cosLo/cosHi bracket cos(pi*thr): fast-accept above cosHi,
	// fast-reject below cosLo, exact fallback in between.
	cosLo, cosHi  float64
	zeroOK, oneOK bool // naive decisions at d = 0 and d = 1
	always, never bool // degenerate thresholds (thr >= 1 / thr < 0)
	ctr           *kernelCounters
}

func prepareCosine(ds *record.Dataset, r Threshold, recs []int32, ctr *kernelCounters) PreparedRule {
	k := &cosineKernel{
		field: r.Field,
		vecs:  make([]record.Vector, len(recs)),
		norm:  make([]float64, len(recs)),
		inv:   make([]float64, len(recs)),
		thr:   r.MaxDistance,
		ctr:   ctr,
	}
	for x, id := range recs {
		v := ds.Records[id].Fields[r.Field].(record.Vector)
		k.vecs[x] = v
		k.norm[x] = sqNorm(v)
		k.inv[x] = invRoot(k.norm[x])
	}
	k.zeroOK = 0 <= r.MaxDistance
	k.oneOK = 1 <= r.MaxDistance
	// Normalized angular distance lies in [0, 1]: thresholds outside
	// the range decide every pair up front.
	k.never = r.MaxDistance < 0
	k.always = r.MaxDistance >= 1
	c := math.Cos(math.Pi * r.MaxDistance)
	k.cosLo, k.cosHi = c-cosineGuard, c+cosineGuard
	return k
}

// sqNorm accumulates v.v in CosineVec's order, so the value is
// bit-identical to CosineVec's squared norm.
func sqNorm(v record.Vector) float64 {
	var n float64
	for i := range v {
		n += v[i] * v[i]
	}
	return n
}

// invRoot is 1/sqrt(n), or 0 for a zero vector's norm.
func invRoot(n float64) float64 {
	if n == 0 {
		return 0
	}
	return 1 / math.Sqrt(n)
}

// dotSeq is the dot product summed in CosineVec's order.
func dotSeq(a, b record.Vector) float64 {
	var dot float64
	for x := range a {
		dot += a[x] * b[x]
	}
	return dot
}

// dot4 is the dot product of equal-length vectors summed in four
// independent accumulators, so consecutive adds do not wait on each
// other. Its rounding differs from dotSeq's (see cosineGuard).
func dot4(a, b record.Vector) float64 {
	var s0, s1, s2, s3 float64
	for len(a) >= 4 && len(b) >= 4 {
		s0 += a[0] * b[0]
		s1 += a[1] * b[1]
		s2 += a[2] * b[2]
		s3 += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for x := range a {
		s0 += a[x] * b[x]
	}
	return (s0 + s1) + (s2 + s3)
}

func (k *cosineKernel) MatchIdx(i, j int) bool {
	return k.match(k.vecs[i], k.norm[i], k.inv[i], j)
}

func (k *cosineKernel) Probe(q *record.Record) func(int) bool {
	v := q.Fields[k.field].(record.Vector)
	n := sqNorm(v)
	inv := invRoot(n)
	return func(j int) bool { return k.match(v, n, inv, j) }
}

// match decides the pair (va, record j) given va's squared norm na and
// inverse root invA.
func (k *cosineKernel) match(va record.Vector, na, invA float64, j int) bool {
	if k.never || k.always {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return k.always
	}
	vb, nb := k.vecs[j], k.norm[j]
	if len(va) != len(vb) {
		// Mirror the naive panic exactly.
		CosineVec(va, vb)
	}
	if na == 0 || nb == 0 {
		// Zero-vector prefilter: CosineVec returns 0 (both zero) or 1.
		atomic.AddInt64(&k.ctr.prefilter, 1)
		if na == 0 && nb == 0 {
			return k.zeroOK
		}
		return k.oneOK
	}
	c := dot4(va, vb) * invA * k.inv[j]
	if c >= k.cosHi {
		return true
	}
	if c <= k.cosLo {
		return false
	}
	// Boundary band: the naive arithmetic, on the sequential dot and
	// bit-identical na/nb.
	cc := dotSeq(va, vb) / math.Sqrt(na*nb)
	if cc > 1 {
		cc = 1
	} else if cc < -1 {
		cc = -1
	}
	return math.Acos(cc)/math.Pi <= k.thr
}

func (k *cosineKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k *cosineKernel) MemBytes() int64 {
	return sliceBytes(k.vecs) + sliceBytes(k.norm) + sliceBytes(k.inv)
}

// ---------------------------------------------------------------------------
// Jaccard

type jaccardKernel struct {
	field         int
	sets          []record.Set
	thr           float64
	s             float64 // 1 - thr, the similarity bound
	zeroOK        bool    // naive decision for two empty sets (d = 0)
	always, never bool
	ctr           *kernelCounters
}

func prepareJaccard(ds *record.Dataset, r Threshold, recs []int32, ctr *kernelCounters) PreparedRule {
	k := &jaccardKernel{
		field: r.Field,
		sets:  make([]record.Set, len(recs)),
		thr:   r.MaxDistance,
		s:     1 - r.MaxDistance,
		ctr:   ctr,
	}
	for x, id := range recs {
		k.sets[x] = ds.Records[id].Fields[r.Field].(record.Set)
	}
	k.zeroOK = 0 <= r.MaxDistance
	k.never = r.MaxDistance < 0
	k.always = r.MaxDistance >= 1
	return k
}

// jaccardPred is the naive decision for a given intersection size over
// sets totalling t elements: exactly JaccardSet's float expression.
func (k *jaccardKernel) jaccardPred(inter, t int) bool {
	return 1-float64(inter)/float64(t-inter) <= k.thr
}

// requiredInter resolves the smallest intersection size for which the
// naive float predicate holds. The predicate is monotone in inter
// (larger intersection, smaller distance — and float rounding is
// monotone), so the algebraic estimate ceil(s*t/(1+s)) only needs
// probing against the predicate itself to land on the exact float
// boundary.
func (k *jaccardKernel) requiredInter(t, minAB int) int {
	need := int(math.Ceil(k.s * float64(t) / (1 + k.s)))
	if need < 0 {
		need = 0
	}
	if need > minAB+1 {
		need = minAB + 1
	}
	for need > 0 && k.jaccardPred(need-1, t) {
		need--
	}
	for need <= minAB && !k.jaccardPred(need, t) {
		need++
	}
	return need // minAB+1 means unsatisfiable
}

func (k *jaccardKernel) MatchIdx(i, j int) bool { return k.match(k.sets[i], j) }

func (k *jaccardKernel) Probe(q *record.Record) func(int) bool {
	sa := q.Fields[k.field].(record.Set)
	return func(j int) bool { return k.match(sa, j) }
}

// match decides the pair (sa, record j).
func (k *jaccardKernel) match(sa record.Set, j int) bool {
	if k.never || k.always {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return k.always
	}
	sb := k.sets[j]
	la, lb := len(sa), len(sb)
	if la == 0 && lb == 0 {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return k.zeroOK
	}
	minAB := la
	if lb < minAB {
		minAB = lb
	}
	need := k.requiredInter(la+lb, minAB)
	if need > minAB {
		// Size-ratio prefilter: even full containment of the smaller
		// set cannot reach the required intersection.
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return false
	}
	if need <= 0 {
		// The threshold admits disjoint sets of these sizes.
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return true
	}
	inter, x, y := 0, 0, 0
	for x < la && y < lb {
		if inter >= need {
			atomic.AddInt64(&k.ctr.early, 1)
			return true
		}
		rem := la - x
		if lb-y < rem {
			rem = lb - y
		}
		if inter+rem < need {
			atomic.AddInt64(&k.ctr.early, 1)
			return false
		}
		switch {
		case sa[x] == sb[y]:
			inter++
			x++
			y++
		case sa[x] < sb[y]:
			x++
		default:
			y++
		}
	}
	return inter >= need
}

func (k *jaccardKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k *jaccardKernel) MemBytes() int64 { return sliceBytes(k.sets) }

// ---------------------------------------------------------------------------
// Euclidean

type euclideanKernel struct {
	field int
	vecs  []record.Vector
	// sumMax is the largest squared-distance accumulator value the
	// naive decision accepts — the float-exact version of
	// (thr*Scale)^2, resolved by bit-level binary search against the
	// naive predicate.
	sumMax        float64
	always, never bool
	ctr           *kernelCounters
}

func prepareEuclidean(ds *record.Dataset, r Threshold, m Euclidean, recs []int32, ctr *kernelCounters) PreparedRule {
	if m.Scale <= 0 {
		panic("distance: Euclidean.Scale must be positive")
	}
	k := &euclideanKernel{field: r.Field, vecs: make([]record.Vector, len(recs)), ctr: ctr}
	for x, id := range recs {
		k.vecs[x] = ds.Records[id].Fields[r.Field].(record.Vector)
	}
	switch {
	case r.MaxDistance < 0:
		k.never = true
	case r.MaxDistance >= 1:
		// The naive distance clamps to 1, so every pair matches.
		k.always = true
	default:
		// pred(sum) is the naive decision for an accumulator value sum:
		// sqrt(sum)/Scale <= thr (the clamp at 1 cannot accept here
		// because thr < 1). It is monotone in sum, and non-negative
		// float order equals bit order, so binary search over the bit
		// pattern finds the exact float boundary.
		pred := func(sum float64) bool {
			return math.Sqrt(sum)/m.Scale <= r.MaxDistance
		}
		lo, hi := uint64(0), math.Float64bits(math.MaxFloat64)
		if !pred(0) {
			k.never = true
			break
		}
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if pred(math.Float64frombits(mid)) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		k.sumMax = math.Float64frombits(lo)
	}
	return k
}

func (k *euclideanKernel) MatchIdx(i, j int) bool { return k.match(k.vecs[i], j) }

func (k *euclideanKernel) Probe(q *record.Record) func(int) bool {
	va := q.Fields[k.field].(record.Vector)
	return func(j int) bool { return k.match(va, j) }
}

// match decides the pair (va, record j).
func (k *euclideanKernel) match(va record.Vector, j int) bool {
	if k.never || k.always {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return k.always
	}
	vb := k.vecs[j]
	if len(va) != len(vb) {
		panic("distance: euclidean over mismatched dimensions")
	}
	var sum float64
	for x := 0; x < len(va); x++ {
		d := va[x] - vb[x]
		sum += d * d
		if sum > k.sumMax {
			// Partial sums of non-negative terms are monotone in float
			// arithmetic, so the final sum also exceeds the budget.
			if x+1 < len(va) {
				atomic.AddInt64(&k.ctr.early, 1)
			}
			return false
		}
	}
	return true
}

func (k *euclideanKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k *euclideanKernel) MemBytes() int64 { return sliceBytes(k.vecs) }

// ---------------------------------------------------------------------------
// Hamming

type hammingKernel struct {
	bits []record.Bits
	ones []int // per-record popcount (prefilter invariant)
	// budget[x] is the largest bit difference the naive decision
	// accepts at record x's width (-1: nothing matches). Widths are
	// uniform within a dataset, but the budget is kept per record so
	// mixed-width inputs stay well-defined up to the point where the
	// naive metric would panic.
	budget        []int
	rule          Threshold // for the exact panic on width mismatch
	zeroOK        bool      // naive decision at width 0 (d = 0)
	always, never bool
	ctr           *kernelCounters
}

func prepareHamming(ds *record.Dataset, r Threshold, recs []int32, ctr *kernelCounters) PreparedRule {
	k := &hammingKernel{
		bits:   make([]record.Bits, len(recs)),
		ones:   make([]int, len(recs)),
		budget: make([]int, len(recs)),
		rule:   r,
		ctr:    ctr,
	}
	budgets := map[int]int{}
	for x, id := range recs {
		b := ds.Records[id].Fields[r.Field].(record.Bits)
		k.bits[x] = b
		k.ones[x] = onesCount(b)
		bud, ok := budgets[b.Width]
		if !ok {
			bud = hammingBudget(b.Width, r.MaxDistance)
			budgets[b.Width] = bud
		}
		k.budget[x] = bud
	}
	k.zeroOK = 0 <= r.MaxDistance
	k.never = r.MaxDistance < 0
	k.always = r.MaxDistance >= 1
	return k
}

// onesCount is b's popcount.
func onesCount(b record.Bits) int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// hammingBudget resolves the largest diff with fl(diff/width) <= thr
// (-1 when even diff = 0 fails). The float predicate is monotone in
// the integer diff, so the algebraic estimate floor(thr*width) is
// probed against the predicate itself for the exact boundary.
func hammingBudget(width int, thr float64) int {
	if width == 0 {
		return 0
	}
	pred := func(diff int) bool {
		return float64(diff)/float64(width) <= thr
	}
	bud := int(thr * float64(width))
	if bud < -1 {
		bud = -1
	}
	if bud > width {
		bud = width
	}
	for bud >= 0 && !pred(bud) {
		bud--
	}
	for bud < width && pred(bud+1) {
		bud++
	}
	return bud
}

func (k *hammingKernel) MatchIdx(i, j int) bool {
	return k.match(k.bits[i], k.ones[i], k.budget[i], j)
}

func (k *hammingKernel) Probe(q *record.Record) func(int) bool {
	ba := q.Fields[k.rule.Field].(record.Bits)
	ones, bud := onesCount(ba), hammingBudget(ba.Width, k.rule.MaxDistance)
	return func(j int) bool { return k.match(ba, ones, bud, j) }
}

// match decides the pair (ba, record j) given ba's popcount onesA and
// bit-difference budget bud.
func (k *hammingKernel) match(ba record.Bits, onesA, bud, j int) bool {
	if k.never || k.always {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return k.always
	}
	bb := k.bits[j]
	if ba.Width != bb.Width {
		// Mirror the naive panic exactly.
		HammingBits(ba, bb)
	}
	if ba.Width == 0 {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return k.zeroOK
	}
	// Popcount prefilter: the XOR popcount is at least the absolute
	// difference of the per-record popcounts.
	gap := onesA - k.ones[j]
	if gap < 0 {
		gap = -gap
	}
	if gap > bud {
		atomic.AddInt64(&k.ctr.prefilter, 1)
		return false
	}
	diff := 0
	for w := range ba.Words {
		diff += bits.OnesCount64(ba.Words[w] ^ bb.Words[w])
		if diff > bud {
			if w+1 < len(ba.Words) {
				atomic.AddInt64(&k.ctr.early, 1)
			}
			return false
		}
	}
	return true
}

func (k *hammingKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k *hammingKernel) MemBytes() int64 {
	return sliceBytes(k.bits) + sliceBytes(k.ones) + sliceBytes(k.budget)
}

// ---------------------------------------------------------------------------
// Compound rules

// andKernel short-circuits prepared sub-kernels in rule order, exactly
// as And.Match does.
type andKernel struct {
	subs []PreparedRule
	ctr  *kernelCounters
}

func (k andKernel) MatchIdx(i, j int) bool {
	for _, sub := range k.subs {
		if !sub.MatchIdx(i, j) {
			return false
		}
	}
	return true
}

func (k andKernel) Probe(q *record.Record) func(int) bool {
	subs := probeAll(k.subs, q)
	return func(j int) bool {
		for _, sub := range subs {
			if !sub(j) {
				return false
			}
		}
		return true
	}
}

func (k andKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k andKernel) MemBytes() int64 { return subsBytes(k.subs) }

// orKernel short-circuits prepared sub-kernels in rule order, exactly
// as Or.Match does.
type orKernel struct {
	subs []PreparedRule
	ctr  *kernelCounters
}

func (k orKernel) MatchIdx(i, j int) bool {
	for _, sub := range k.subs {
		if sub.MatchIdx(i, j) {
			return true
		}
	}
	return false
}

func (k orKernel) Probe(q *record.Record) func(int) bool {
	subs := probeAll(k.subs, q)
	return func(j int) bool {
		for _, sub := range subs {
			if sub(j) {
				return true
			}
		}
		return false
	}
}

func (k orKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k orKernel) MemBytes() int64 { return subsBytes(k.subs) }

// subsBytes sums the sub-kernels' MemBytes.
func subsBytes(subs []PreparedRule) int64 {
	var total int64
	for _, sub := range subs {
		total += sub.MemBytes()
	}
	return total
}

// probeAll returns every sub-kernel's probe form for q, in rule order.
func probeAll(subs []PreparedRule, q *record.Record) []func(int) bool {
	out := make([]func(int) bool, len(subs))
	for i, sub := range subs {
		out[i] = sub.Probe(q)
	}
	return out
}

// ---------------------------------------------------------------------------
// Weighted average

// preparedDistance computes one field's exact distance — the same
// float64 the naive Metric.Distance returns — using per-record
// invariants where they help. probe is its probe form: dist(j) is the
// distance from q's field to record j's.
type preparedDistance interface {
	distIdx(i, j int) float64
	probe(q *record.Record) (dist func(j int) float64)
	memBytes() int64 // PreparedRule.MemBytes for one field
}

// weightedKernel accumulates the per-field weighted distances in rule
// order, exactly as WeightedAverage.Distance does, failing fast once
// the partial sum alone exceeds the threshold. The early exit is sound
// only when every remaining term is non-negative, which prepareWeighted
// verifies structurally (non-negative weights, metrics with range
// [0, 1]); otherwise failFast stays false and the full sum is compared.
type weightedKernel struct {
	parts    []preparedDistance
	weights  []float64
	thr      float64
	failFast bool
	ctr      *kernelCounters
}

// prepareWeighted builds the weighted kernel, or returns nil when the
// rule is structurally unusable (mismatched slices) and must fall back
// to the naive kernel so Match's behaviour is preserved verbatim.
func prepareWeighted(ds *record.Dataset, r WeightedAverage, recs []int32, ctr *kernelCounters) PreparedRule {
	if len(r.Fields) != len(r.Metrics) || len(r.Fields) != len(r.Weights) {
		return nil
	}
	k := &weightedKernel{
		weights:  append([]float64(nil), r.Weights...),
		thr:      r.MaxDistance,
		failFast: true,
		ctr:      ctr,
	}
	for idx, f := range r.Fields {
		var part preparedDistance
		switch m := r.Metrics[idx].(type) {
		case Cosine:
			part = prepareCosineDist(ds, f, recs)
		case Jaccard:
			part = prepareJaccardDist(ds, f, recs)
		case Euclidean:
			part = prepareEuclideanDist(ds, f, m, recs)
		case Hamming:
			part = prepareHammingDist(ds, f, recs)
		default:
			// Unknown metric: exact per-pair fallback; its range is
			// unknown, so the fail-fast shortcut is disabled.
			part = metricDist{ds: ds, field: f, metric: r.Metrics[idx], recs: recs}
			k.failFast = false
		}
		k.parts = append(k.parts, part)
		if r.Weights[idx] < 0 {
			k.failFast = false
		}
	}
	return k
}

func (k *weightedKernel) MatchIdx(i, j int) bool {
	return k.match(func(idx int) float64 { return k.parts[idx].distIdx(i, j) })
}

func (k *weightedKernel) Probe(q *record.Record) func(int) bool {
	dists := make([]func(int) float64, len(k.parts))
	for idx, part := range k.parts {
		dists[idx] = part.probe(q)
	}
	return func(j int) bool {
		return k.match(func(idx int) float64 { return dists[idx](j) })
	}
}

// match decides one pair, dist(idx) giving its distance in part idx.
func (k *weightedKernel) match(dist func(idx int) float64) bool {
	d := 0.0
	last := len(k.parts) - 1
	for idx := range k.parts {
		d += k.weights[idx] * dist(idx)
		if k.failFast && d > k.thr {
			// Remaining terms are non-negative and float addition of
			// non-negative terms is monotone: the full sum also
			// exceeds the threshold.
			if idx < last {
				atomic.AddInt64(&k.ctr.early, 1)
			}
			return false
		}
	}
	return d <= k.thr
}

func (k *weightedKernel) Stats() PreparedStats { return k.ctr.stats() }

func (k *weightedKernel) MemBytes() int64 {
	total := sliceBytes(k.weights)
	for _, part := range k.parts {
		total += part.memBytes()
	}
	return total
}

// metricDist is the exact fallback distance for unknown metrics.
type metricDist struct {
	ds     *record.Dataset
	field  int
	metric Metric
	recs   []int32
}

func (p metricDist) distIdx(i, j int) float64 {
	return p.metric.Distance(p.ds.Records[p.recs[i]].Fields[p.field], p.ds.Records[p.recs[j]].Fields[p.field])
}

func (p metricDist) memBytes() int64 { return 0 }

func (p metricDist) probe(q *record.Record) func(int) float64 {
	f := q.Fields[p.field]
	return func(j int) float64 { return p.metric.Distance(f, p.ds.Records[p.recs[j]].Fields[p.field]) }
}

// cosineDist reproduces CosineVec bit-for-bit, with the squared norms
// (accumulated in CosineVec's order) hoisted to prepare time — the
// per-pair cost drops from three multiply-add streams to one.
type cosineDist struct {
	field int
	vecs  []record.Vector
	norm  []float64
}

func prepareCosineDist(ds *record.Dataset, field int, recs []int32) *cosineDist {
	p := &cosineDist{field: field, vecs: make([]record.Vector, len(recs)), norm: make([]float64, len(recs))}
	for x, id := range recs {
		v := ds.Records[id].Fields[field].(record.Vector)
		p.vecs[x] = v
		p.norm[x] = sqNorm(v)
	}
	return p
}

func (p *cosineDist) distIdx(i, j int) float64 { return p.dist(p.vecs[i], p.norm[i], j) }

func (p *cosineDist) memBytes() int64 { return sliceBytes(p.vecs) + sliceBytes(p.norm) }

func (p *cosineDist) probe(q *record.Record) func(int) float64 {
	va := q.Fields[p.field].(record.Vector)
	na := sqNorm(va)
	return func(j int) float64 { return p.dist(va, na, j) }
}

// dist is CosineVec(va, record j) given va's squared norm na.
func (p *cosineDist) dist(va record.Vector, na float64, j int) float64 {
	vb, nb := p.vecs[j], p.norm[j]
	if len(va) != len(vb) {
		// Mirror the naive panic exactly.
		CosineVec(va, vb)
	}
	if na == 0 || nb == 0 {
		if na == 0 && nb == 0 {
			return 0
		}
		return 1
	}
	c := dotSeq(va, vb) / math.Sqrt(na*nb)
	if c > 1 {
		c = 1
	} else if c < -1 {
		c = -1
	}
	return math.Acos(c) / math.Pi
}

// jaccardDist is JaccardSet over prepared set references (the exact
// value is needed, so no early exit applies).
type jaccardDist struct {
	field int
	sets  []record.Set
}

func prepareJaccardDist(ds *record.Dataset, field int, recs []int32) *jaccardDist {
	p := &jaccardDist{field: field, sets: make([]record.Set, len(recs))}
	for x, id := range recs {
		p.sets[x] = ds.Records[id].Fields[field].(record.Set)
	}
	return p
}

func (p *jaccardDist) distIdx(i, j int) float64 { return JaccardSet(p.sets[i], p.sets[j]) }

func (p *jaccardDist) memBytes() int64 { return sliceBytes(p.sets) }

func (p *jaccardDist) probe(q *record.Record) func(int) float64 {
	sa := q.Fields[p.field].(record.Set)
	return func(j int) float64 { return JaccardSet(sa, p.sets[j]) }
}

// euclideanDist is Euclidean.Distance over prepared vector references.
type euclideanDist struct {
	field int
	vecs  []record.Vector
	scale float64
}

func prepareEuclideanDist(ds *record.Dataset, field int, m Euclidean, recs []int32) *euclideanDist {
	if m.Scale <= 0 {
		panic("distance: Euclidean.Scale must be positive")
	}
	p := &euclideanDist{field: field, vecs: make([]record.Vector, len(recs)), scale: m.Scale}
	for x, id := range recs {
		p.vecs[x] = ds.Records[id].Fields[field].(record.Vector)
	}
	return p
}

func (p *euclideanDist) distIdx(i, j int) float64 { return p.dist(p.vecs[i], j) }

func (p *euclideanDist) memBytes() int64 { return sliceBytes(p.vecs) }

func (p *euclideanDist) probe(q *record.Record) func(int) float64 {
	va := q.Fields[p.field].(record.Vector)
	return func(j int) float64 { return p.dist(va, j) }
}

// dist is Euclidean.Distance(va, record j).
func (p *euclideanDist) dist(va record.Vector, j int) float64 {
	vb := p.vecs[j]
	if len(va) != len(vb) {
		panic("distance: euclidean over mismatched dimensions")
	}
	var sum float64
	for x := range va {
		d := va[x] - vb[x]
		sum += d * d
	}
	d := math.Sqrt(sum) / p.scale
	if d > 1 {
		return 1
	}
	return d
}

// hammingDist is HammingBits over prepared fingerprint references.
type hammingDist struct {
	field int
	bits  []record.Bits
}

func prepareHammingDist(ds *record.Dataset, field int, recs []int32) *hammingDist {
	p := &hammingDist{field: field, bits: make([]record.Bits, len(recs))}
	for x, id := range recs {
		p.bits[x] = ds.Records[id].Fields[field].(record.Bits)
	}
	return p
}

func (p *hammingDist) distIdx(i, j int) float64 { return HammingBits(p.bits[i], p.bits[j]) }

func (p *hammingDist) memBytes() int64 { return sliceBytes(p.bits) }

func (p *hammingDist) probe(q *record.Record) func(int) float64 {
	ba := q.Fields[p.field].(record.Bits)
	return func(j int) float64 { return HammingBits(ba, p.bits[j]) }
}
