package lshfamily

import (
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// kernelFuncs is the function count of every hasher FuzzBatchKernels
// builds: windows reach lo + width <= 63 + 70.
const kernelFuncs = 64 + 70

// FuzzBatchKernels checks every batch kernel of the package against
// its Hash, function by function: HashRange(h, lo, hi, r, out)[i] must
// equal h.Hash(lo+i, r) for MinHash, Hyperplane, PStable, BitSample,
// WeightedMix over two set fields and OnePermMinHash. The input
// decodes into a window lo in [0, 64) of width 0–70, which covers
// every residue of the four-wide kernels' tails, a set of 0–64
// elements, and a vector of dimension 1–40 whose coordinates include
// zeros and both signs. Apart from TestOPHHashMatchesBatch, the
// equivalence tests elsewhere take their expected values from
// HashRange itself, so they would not see a kernel that disagrees
// with Hash.
func FuzzBatchKernels(f *testing.F) {
	f.Add(uint64(1), uint16(0), []byte{}, []byte{0})
	f.Add(uint64(2), uint16(1|5<<6), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 0xff, 0, 3})
	f.Add(uint64(3), uint16(3|70<<6), make([]byte, 64*8), []byte{0x80, 0x7f, 0, 0, 1, 0xfe, 2})
	f.Add(uint64(4), uint16(63|66<<6), []byte("a set of shingles, eight bytes each"), make([]byte, 40))
	f.Add(uint64(5), uint16(2|7<<6), []byte{9, 9, 9, 9, 9, 9, 9, 9, 9}, []byte{5, 0xfb, 5, 0xfb, 0, 0, 0, 0, 0, 7})
	f.Fuzz(func(t *testing.T, seed uint64, window uint16, setData, vecData []byte) {
		lo := int(window % 64)
		hi := lo + int(window/64)%71

		var elems []uint64
		for len(setData) >= 8 && len(elems) < 64 {
			elems = append(elems, binary.LittleEndian.Uint64(setData))
			setData = setData[8:]
		}
		// The second set field shares every other element with the
		// first, so the two fields of WeightedMix differ.
		other := make([]uint64, 0, len(elems))
		for i, e := range elems {
			if i%2 == 0 {
				other = append(other, e)
			} else {
				other = append(other, e^seed)
			}
		}
		// Coordinates are signed bytes over 16: zeros, both signs and
		// exact sums, so dot products can land on zero.
		dim := 1 + len(vecData)%40
		vec := make(record.Vector, dim)
		for d := range vec {
			if d < len(vecData) {
				vec[d] = float64(int8(vecData[d])) / 16
			}
		}
		const bits = 70 // fingerprint width: two words
		words := []uint64{seed, xhash.SplitMix64(seed)}
		r := &record.Record{Fields: []record.Field{
			record.NewSet(elems), record.NewSet(other), vec, record.NewBits(words, bits),
		}}

		hashers := []BatchHasher{
			NewMinHash(0, kernelFuncs, seed),
			NewHyperplane(2, dim, kernelFuncs, seed),
			NewPStable(2, dim, kernelFuncs, 4, 0.25, seed),
			NewBitSample(3, bits, kernelFuncs, seed),
			NewWeightedMix([]Hasher{NewMinHash(0, kernelFuncs, seed), NewMinHash(1, kernelFuncs, seed+1)},
				[]float64{0.6, 0.4}, kernelFuncs, seed),
			NewOnePermMinHash(0, kernelFuncs, seed),
		}
		out := make([]uint64, hi-lo)
		for _, h := range hashers {
			HashRange(h, lo, hi, r, out)
			for i, v := range out {
				if want := h.Hash(lo+i, r); v != want {
					t.Fatalf("%s: HashRange(%d, %d)[%d] = %#x, Hash(%d) = %#x", h.Name(), lo, hi, i, v, lo+i, want)
				}
			}
		}
	})
}

// BenchmarkBatchKernels times the batch signature kernels at the
// benchmark workloads' shapes: MinHash over 24-element sets (the
// corpus) at 20 and 1280 functions and over 108-element sets
// (spotsigs) at 20, and hyperplanes over 125-dimensional vectors (the
// images) at 20 and 1280. Each row visits 4096 distinct records in
// turn, so no record's branch pattern repeats the way it does for the
// single fixed record of BenchmarkClassicMinHashBatch. ns/elemhash is
// per (element, function) pair, ns/madd per multiply-add.
func BenchmarkBatchKernels(b *testing.B) {
	const records = 4096
	rng := xhash.NewRNG(23)
	sets := func(size int) []record.Record {
		recs := make([]record.Record, records)
		for i := range recs {
			elems := make([]uint64, size)
			for j := range elems {
				elems[j] = rng.Uint64()
			}
			recs[i].Fields = []record.Field{record.NewSet(elems)}
		}
		return recs
	}
	vectors := func(dim int) []record.Record {
		recs := make([]record.Record, records)
		for i := range recs {
			v := make(record.Vector, dim)
			for d := range v {
				v[d] = rng.Float64()
			}
			recs[i].Fields = []record.Field{v}
		}
		return recs
	}
	corpus, spotsigs, images := sets(24), sets(108), vectors(125)
	rows := []struct {
		family string
		h      BatchHasher
		recs   []record.Record
		size   int // elements or dimensions per record
		unit   string
	}{
		{"minhash", NewMinHash(0, 1280, 1), corpus, 24, "ns/elemhash"},
		{"minhash", NewMinHash(0, 20, 1), spotsigs, 108, "ns/elemhash"},
		{"hyperplane", NewHyperplane(0, 125, 1280, 1), images, 125, "ns/madd"},
	}
	for _, row := range rows {
		for _, funcs := range []int{20, 1280} {
			if funcs > row.h.MaxFunctions() {
				continue
			}
			b.Run(fmt.Sprintf("%s/%dx%d", row.family, row.size, funcs), func(b *testing.B) {
				out := make([]uint64, funcs)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					row.h.HashBatch(0, funcs, &row.recs[i%records], out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(row.size*funcs), row.unit)
			})
		}
	}
}
