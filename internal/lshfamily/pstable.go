package lshfamily

import (
	"fmt"
	"math"

	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// PStable is the p-stable projection family for the (scaled) Euclidean
// distance — E2LSH (Datar et al.): function fn projects the vector on a
// Gaussian direction, shifts by a uniform offset, and quantizes into
// buckets of the given width. Two vectors at scaled distance c collide
// under one function with the probability distance.Euclidean.P
// computes.
type PStable struct {
	field   int
	dim     int
	scale   float64
	bucket  float64 // bucket width in *unscaled* vector units
	planes  [][]float64
	offsets []float64
}

// NewPStable pre-generates maxFuncs projection functions of the given
// dimension for record field `field`. scale and bucketFraction mirror
// the distance.Euclidean metric the family targets: quantization
// buckets are bucketFraction*scale wide in raw vector units.
func NewPStable(field, dim, maxFuncs int, scale, bucketFraction float64, seed uint64) *PStable {
	if scale <= 0 || bucketFraction <= 0 {
		panic(fmt.Sprintf("lshfamily: p-stable needs positive scale (%g) and bucket fraction (%g)", scale, bucketFraction))
	}
	rng := xhash.NewRNG(seed)
	planes := make([][]float64, maxFuncs)
	flat := make([]float64, maxFuncs*dim)
	offsets := make([]float64, maxFuncs)
	bucket := bucketFraction * scale
	for i := range planes {
		planes[i], flat = flat[:dim], flat[dim:]
		for d := 0; d < dim; d++ {
			planes[i][d] = rng.NormFloat64()
		}
		offsets[i] = rng.Float64() * bucket
	}
	return &PStable{field: field, dim: dim, scale: scale, bucket: bucket, planes: planes, offsets: offsets}
}

// Hash implements Hasher.
func (p *PStable) Hash(fn int, r *record.Record) uint64 {
	v := r.Fields[p.field].(record.Vector)
	if len(v) != p.dim {
		panic(fmt.Sprintf("lshfamily: p-stable dim %d applied to vector of dim %d", p.dim, len(v)))
	}
	return p.quantize(project(v, p.planes[fn], p.offsets[fn]))
}

// HashBatch implements BatchHasher: the vector field is resolved and
// dimension-checked once for the whole range, and project4 evaluates
// four projections per pass over the vector, each accumulator starting
// at its function's offset as in Hash, with project taking the last
// hi-lo mod 4.
func (p *PStable) HashBatch(lo, hi int, r *record.Record, out []uint64) {
	v := r.Fields[p.field].(record.Vector)
	if len(v) != p.dim {
		panic(fmt.Sprintf("lshfamily: p-stable dim %d applied to vector of dim %d", p.dim, len(v)))
	}
	planes, offsets := p.planes[lo:hi], p.offsets[lo:hi]
	out = out[:len(planes)]
	i := 0
	for ; i+4 <= len(planes); i += 4 {
		o := offsets[i : i+4 : i+4]
		d0, d1, d2, d3 := project4(v, planes[i:i+4], o[0], o[1], o[2], o[3])
		out[i], out[i+1], out[i+2], out[i+3] = p.quantize(d0), p.quantize(d1), p.quantize(d2), p.quantize(d3)
	}
	for ; i < len(planes); i++ {
		out[i] = p.quantize(project(v, planes[i], offsets[i]))
	}
}

// quantize maps a shifted projection to its bucket index.
func (p *PStable) quantize(dot float64) uint64 {
	return uint64(int64(math.Floor(dot / p.bucket)))
}

// P implements Hasher: the E2LSH collision probability at scaled
// distance x.
func (p *PStable) P(x float64) float64 {
	if x <= 1e-12 {
		return 1
	}
	r := (p.bucket / p.scale) / x
	phi := 0.5 * (1 + math.Erf(-r/math.Sqrt2))
	return 1 - 2*phi - (2/(math.Sqrt(2*math.Pi)*r))*(1-math.Exp(-r*r/2))
}

// MaxFunctions implements Hasher.
func (p *PStable) MaxFunctions() int { return len(p.planes) }

// Name implements Hasher.
func (p *PStable) Name() string {
	return fmt.Sprintf("pstable(f%d,dim=%d,w=%g)", p.field, p.dim, p.bucket)
}
