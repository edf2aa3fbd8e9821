// Package lshfamily implements the locality-sensitive hash families of
// the paper's Appendix A — random hyperplanes for the cosine distance
// and MinHash for the Jaccard distance — together with the
// weighted-average function selection of Definition 7 and the
// probability algebra of the AND/OR constructions (Definitions 5, 6).
//
// A Hasher exposes an indexed sequence of base hash functions over
// whole records. Indexing (rather than drawing) the functions is what
// makes the paper's incremental-computation property (Section 2.2,
// property 4) possible: a transitive hashing function later in the
// sequence reuses the hash values its predecessors already computed,
// because both address the same underlying function sequence.
package lshfamily

import (
	"fmt"

	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// Hasher is an indexed family of base LSH functions over records.
// Implementations pre-generate MaxFunctions functions deterministically
// from a seed, so Hash(fn, r) is pure.
type Hasher interface {
	// Hash applies base function fn (0 <= fn < MaxFunctions) to record r.
	Hash(fn int, r *record.Record) uint64
	// P returns the collision probability of one randomly selected base
	// function for a pair at normalized distance x under the metric (or
	// rule) this hasher targets.
	P(x float64) float64
	// MaxFunctions reports how many base functions are available.
	MaxFunctions() int
	// Name identifies the hasher in reports and cost tables.
	Name() string
}

// BatchHasher is an optional Hasher extension: HashBatch evaluates the
// contiguous function range [lo, hi) on one record in a single call,
// writing Hash(lo+i, r) into out[i]. Batching lets a family amortize
// per-call work over the range — the field is resolved and checked
// once, and MinHash and the projection families evaluate four
// functions per pass over the record in independent register chains —
// and saves one interface dispatch per base evaluation on the
// signature hot path. The results are identical to calling Hash
// function by function.
type BatchHasher interface {
	Hasher
	HashBatch(lo, hi int, r *record.Record, out []uint64)
}

// HashRange fills out[i] with Hash(lo+i, r), using the batched path
// when the hasher provides one. len(out) must be hi-lo.
func HashRange(h Hasher, lo, hi int, r *record.Record, out []uint64) {
	if bh, ok := h.(BatchHasher); ok {
		bh.HashBatch(lo, hi, r, out)
		return
	}
	for fn := lo; fn < hi; fn++ {
		out[fn-lo] = h.Hash(fn, r)
	}
}

// SetElemHasher is an optional Hasher extension for set-signature
// families: SigElems reports how many element hashes evaluating the
// function range [lo, hi) on r costs. This is the quantity
// one-permutation hashing shrinks — classic MinHash pays |S| element
// hashes per function, OPH pays |S| plus one visit per bin for the
// whole range — and what the sig_elems_hashed observability counter
// aggregates.
type SetElemHasher interface {
	Hasher
	SigElems(lo, hi int, r *record.Record) int64
}

// SigElems reports the element-hash work of HashRange(h, lo, hi, r),
// or 0 for families that do not hash set elements.
func SigElems(h Hasher, lo, hi int, r *record.Record) int64 {
	if hi <= lo {
		return 0
	}
	if se, ok := h.(SetElemHasher); ok {
		return se.SigElems(lo, hi, r)
	}
	return 0
}

// CostBatcher is an optional BatchHasher extension for families whose
// Hash amortizes a whole-signature pass across the range — timing a
// single Hash call would overstate the per-function cost by the
// amortization factor. The cost calibrator times HashBatch over
// CalibrationWindow functions instead and divides by the window.
type CostBatcher interface {
	BatchHasher
	CalibrationWindow() int
}

// Hyperplane is the random-hyperplanes family for the cosine distance
// (paper Example 2 / Example 6): function fn hashes a vector to 0 or 1
// according to the side of a random hyperplane through the origin the
// vector lies on. The family is (theta1, theta2, 1-theta1/180,
// 1-theta2/180)-sensitive, i.e. p(x) = 1 - x at normalized angle x.
type Hyperplane struct {
	field  int
	dim    int
	planes [][]float64
}

// NewHyperplane pre-generates maxFuncs random hyperplanes of the given
// dimension for record field `field`, deterministically from seed.
func NewHyperplane(field, dim, maxFuncs int, seed uint64) *Hyperplane {
	rng := xhash.NewRNG(seed)
	planes := make([][]float64, maxFuncs)
	flat := make([]float64, maxFuncs*dim)
	for i := range planes {
		planes[i], flat = flat[:dim], flat[dim:]
		for d := 0; d < dim; d++ {
			planes[i][d] = rng.NormFloat64()
		}
	}
	return &Hyperplane{field: field, dim: dim, planes: planes}
}

// Hash implements Hasher: the sign bit of the dot product with
// hyperplane fn.
func (h *Hyperplane) Hash(fn int, r *record.Record) uint64 {
	v := r.Fields[h.field].(record.Vector)
	if len(v) != h.dim {
		panic(fmt.Sprintf("lshfamily: hyperplane dim %d applied to vector of dim %d", h.dim, len(v)))
	}
	return side(project(v, h.planes[fn], 0))
}

// HashBatch implements BatchHasher: the vector field is resolved and
// dimension-checked once for the whole range, and project4 evaluates
// four planes per pass over the vector, with project taking the last
// hi-lo mod 4.
func (h *Hyperplane) HashBatch(lo, hi int, r *record.Record, out []uint64) {
	v := r.Fields[h.field].(record.Vector)
	if len(v) != h.dim {
		panic(fmt.Sprintf("lshfamily: hyperplane dim %d applied to vector of dim %d", h.dim, len(v)))
	}
	planes := h.planes[lo:hi]
	out = out[:len(planes)]
	i := 0
	for ; i+4 <= len(planes); i += 4 {
		d0, d1, d2, d3 := project4(v, planes[i:i+4], 0, 0, 0, 0)
		out[i], out[i+1], out[i+2], out[i+3] = side(d0), side(d1), side(d2), side(d3)
	}
	for ; i < len(planes); i++ {
		out[i] = side(project(v, planes[i], 0))
	}
}

// project returns dot plus the dot product of v and plane, adding the
// x*plane[d] terms in d order. The projection families' Hash and
// their batch tails both call it.
func project(v record.Vector, plane []float64, dot float64) float64 {
	plane = plane[:len(v)]
	for d, x := range v {
		dot += x * plane[d]
	}
	return dot
}

// project4 is project over four planes in one pass over v, one
// accumulator per plane starting at d0..d3. Each accumulator adds the
// same terms in the same order and expression shape as project, so
// its result is bit-identical to project's (a compiler that fuses
// multiply-adds fuses both alike); the independent chains keep the
// adds from waiting on each other.
func project4(v record.Vector, planes [][]float64, d0, d1, d2, d3 float64) (float64, float64, float64, float64) {
	p0, p1, p2, p3 := planes[0][:len(v)], planes[1][:len(v)], planes[2][:len(v)], planes[3][:len(v)]
	for d, x := range v {
		d0 += x * p0[d]
		d1 += x * p1[d]
		d2 += x * p2[d]
		d3 += x * p3[d]
	}
	return d0, d1, d2, d3
}

// side is Hash's sign bit of a dot product: 1 on the non-negative side
// of the hyperplane, 0 otherwise.
func side(dot float64) uint64 {
	if dot >= 0 {
		return 1
	}
	return 0
}

// P implements Hasher.
func (h *Hyperplane) P(x float64) float64 { return 1 - x }

// MaxFunctions implements Hasher.
func (h *Hyperplane) MaxFunctions() int { return len(h.planes) }

// Name implements Hasher.
func (h *Hyperplane) Name() string {
	return fmt.Sprintf("hyperplane(f%d,dim=%d)", h.field, h.dim)
}

// MinHash is the min-wise hashing family for the Jaccard distance:
// function fn maps a set to the minimum of a seeded 64-bit hash over
// its elements. Two sets collide under one function with probability
// equal to their Jaccard similarity, i.e. p(x) = 1 - x.
type MinHash struct {
	field int
	seeds []uint64
}

// NewMinHash pre-generates maxFuncs element-hash seeds for record field
// `field`, deterministically from seed.
func NewMinHash(field, maxFuncs int, seed uint64) *MinHash {
	rng := xhash.NewRNG(seed)
	seeds := make([]uint64, maxFuncs)
	for i := range seeds {
		seeds[i] = rng.Uint64()
	}
	return &MinHash{field: field, seeds: seeds}
}

// Hash implements Hasher: min over the set of splitmix64(elem ^ seed).
// The empty set hashes to a sentinel that only collides with other
// empty sets under the same function.
func (m *MinHash) Hash(fn int, r *record.Record) uint64 {
	s := r.Fields[m.field].(record.Set)
	if len(s) == 0 {
		return xhash.SplitMix64(m.seeds[fn] ^ 0xe7037ed1a0b428db)
	}
	seed := m.seeds[fn]
	min := ^uint64(0)
	for _, e := range s {
		if h := xhash.SplitMix64(e ^ seed); h < min {
			min = h
		}
	}
	return min
}

// HashBatch implements BatchHasher seed by seed: the functions go in
// blocks of four, one pass over the set per block, with the four
// running minima in registers and updated by a branchless min, then a
// scalar tail for the last hi-lo mod 4 functions. Each function's
// minimum is Hash's, bit for bit. Taking the minimum without a branch
// matters on real data: whether an element hash lowers a minimum
// depends on the record, so a branch on it mispredicts as records
// rotate.
func (m *MinHash) HashBatch(lo, hi int, r *record.Record, out []uint64) {
	s := r.Fields[m.field].(record.Set)
	seeds := m.seeds[lo:hi]
	out = out[:len(seeds)]
	if len(s) == 0 {
		for i, q := range seeds {
			out[i] = xhash.SplitMix64(q ^ 0xe7037ed1a0b428db)
		}
		return
	}
	i := 0
	for ; i+4 <= len(seeds); i += 4 {
		q0, q1, q2, q3 := seeds[i], seeds[i+1], seeds[i+2], seeds[i+3]
		m0, m1, m2, m3 := ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)
		for _, e := range s {
			m0 = min(m0, xhash.SplitMix64(e^q0))
			m1 = min(m1, xhash.SplitMix64(e^q1))
			m2 = min(m2, xhash.SplitMix64(e^q2))
			m3 = min(m3, xhash.SplitMix64(e^q3))
		}
		out[i], out[i+1], out[i+2], out[i+3] = m0, m1, m2, m3
	}
	for ; i < len(seeds); i++ {
		q, m0 := seeds[i], ^uint64(0)
		for _, e := range s {
			m0 = min(m0, xhash.SplitMix64(e^q))
		}
		out[i] = m0
	}
}

// SigElems implements SetElemHasher: each function in the range hashes
// every set element once (the empty set pays one sentinel hash per
// function).
func (m *MinHash) SigElems(lo, hi int, r *record.Record) int64 {
	s := r.Fields[m.field].(record.Set)
	if len(s) == 0 {
		return int64(hi - lo)
	}
	return int64(len(s)) * int64(hi-lo)
}

// P implements Hasher.
func (m *MinHash) P(x float64) float64 { return 1 - x }

// MaxFunctions implements Hasher.
func (m *MinHash) MaxFunctions() int { return len(m.seeds) }

// Name implements Hasher.
func (m *MinHash) Name() string { return fmt.Sprintf("minhash(f%d)", m.field) }

// BitSample is the bit-sampling family for the Hamming distance — the
// original LSH family of Indyk and Motwani: function fn returns bit
// position pos[fn] of the fingerprint. Two fingerprints collide under
// one function with probability 1 - x at normalized Hamming distance x.
type BitSample struct {
	field int
	width int
	pos   []int
}

// NewBitSample pre-draws maxFuncs random bit positions over
// fingerprints of the given width on record field `field`.
func NewBitSample(field, width, maxFuncs int, seed uint64) *BitSample {
	rng := xhash.NewRNG(seed)
	pos := make([]int, maxFuncs)
	for i := range pos {
		pos[i] = rng.Intn(width)
	}
	return &BitSample{field: field, width: width, pos: pos}
}

// Hash implements Hasher.
func (b *BitSample) Hash(fn int, r *record.Record) uint64 {
	f := r.Fields[b.field].(record.Bits)
	if f.Width != b.width {
		panic(fmt.Sprintf("lshfamily: bit sampler for width %d applied to width %d", b.width, f.Width))
	}
	return f.Bit(b.pos[fn])
}

// HashBatch implements BatchHasher: the fingerprint field is resolved
// and width-checked once for the whole range.
func (b *BitSample) HashBatch(lo, hi int, r *record.Record, out []uint64) {
	f := r.Fields[b.field].(record.Bits)
	if f.Width != b.width {
		panic(fmt.Sprintf("lshfamily: bit sampler for width %d applied to width %d", b.width, f.Width))
	}
	for fn := lo; fn < hi; fn++ {
		out[fn-lo] = f.Bit(b.pos[fn])
	}
}

// P implements Hasher.
func (b *BitSample) P(x float64) float64 { return 1 - x }

// MaxFunctions implements Hasher.
func (b *BitSample) MaxFunctions() int { return len(b.pos) }

// Name implements Hasher.
func (b *BitSample) Name() string {
	return fmt.Sprintf("bitsample(f%d,width=%d)", b.field, b.width)
}

// WeightedMix implements the weighted-average function selection of
// Definition 7: base function fn first picks one of the sub-hashers
// with probability proportional to its weight (the pick is fixed per
// function index, drawn at construction), then applies that hasher's
// function fn. By Theorem 3, if every sub-family has collision
// probability 1 - d on its field, the mix collides with probability
// 1 - dbar where dbar is the weighted average distance, so P(x) = 1-x
// with x the weighted-average normalized distance.
type WeightedMix struct {
	subs   []Hasher
	choice []uint8
	name   string
}

// NewWeightedMix builds the Definition 7 mixer over sub-hashers with
// the given positive weights (they are normalized internally). All
// sub-hashers must offer at least maxFuncs functions.
func NewWeightedMix(subs []Hasher, weights []float64, maxFuncs int, seed uint64) *WeightedMix {
	if len(subs) == 0 || len(subs) != len(weights) {
		panic(fmt.Sprintf("lshfamily: weighted mix needs parallel subs/weights, got %d/%d", len(subs), len(weights)))
	}
	if len(subs) > 256 {
		panic("lshfamily: weighted mix supports at most 256 sub-hashers")
	}
	total := 0.0
	for _, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("lshfamily: weighted mix weight %g is not positive", w))
		}
		total += w
	}
	for _, s := range subs {
		if s.MaxFunctions() < maxFuncs {
			panic(fmt.Sprintf("lshfamily: sub-hasher %s offers %d functions, mix needs %d", s.Name(), s.MaxFunctions(), maxFuncs))
		}
	}
	rng := xhash.NewRNG(seed)
	choice := make([]uint8, maxFuncs)
	for i := range choice {
		u := rng.Float64() * total
		acc := 0.0
		pick := len(weights) - 1
		for j, w := range weights {
			acc += w
			if u < acc {
				pick = j
				break
			}
		}
		choice[i] = uint8(pick)
	}
	name := "wavg("
	for i, s := range subs {
		if i > 0 {
			name += ","
		}
		name += s.Name()
	}
	name += ")"
	return &WeightedMix{subs: subs, choice: choice, name: name}
}

// Hash implements Hasher.
func (w *WeightedMix) Hash(fn int, r *record.Record) uint64 {
	return w.subs[w.choice[fn]].Hash(fn, r)
}

// HashBatch implements BatchHasher by grouping maximal runs of
// functions that picked the same sub-hasher and delegating each run to
// that sub-hasher's batched path.
func (w *WeightedMix) HashBatch(lo, hi int, r *record.Record, out []uint64) {
	for fn := lo; fn < hi; {
		pick := w.choice[fn]
		end := fn + 1
		for end < hi && w.choice[end] == pick {
			end++
		}
		HashRange(w.subs[pick], fn, end, r, out[fn-lo:end-lo])
		fn = end
	}
}

// SigElems implements SetElemHasher by summing the element-hash work
// of each same-pick run, exactly as HashBatch partitions the range.
// Sub-hashers that do not hash set elements contribute zero.
func (w *WeightedMix) SigElems(lo, hi int, r *record.Record) int64 {
	var total int64
	for fn := lo; fn < hi; {
		pick := w.choice[fn]
		end := fn + 1
		for end < hi && w.choice[end] == pick {
			end++
		}
		total += SigElems(w.subs[pick], fn, end, r)
		fn = end
	}
	return total
}

// P implements Hasher (Theorem 3): 1 - x at weighted-average distance x.
func (w *WeightedMix) P(x float64) float64 { return 1 - x }

// MaxFunctions implements Hasher.
func (w *WeightedMix) MaxFunctions() int { return len(w.choice) }

// Name implements Hasher.
func (w *WeightedMix) Name() string { return w.name }
