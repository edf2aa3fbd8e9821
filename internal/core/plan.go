// Package core implements the paper's primary contribution: the
// sequence of transitive hashing functions (Definition 1), the pairwise
// computation function P (Definition 2), the cost model (Definition 3),
// and Adaptive LSH itself (Algorithm 1) with its largest-first
// selection rule and incremental output mode (Section 4.2).
package core

import (
	"fmt"

	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/wzopt"
)

// TablePart is a run of base hash functions of one hasher that
// contributes to a table's bucket key. Single-field schemes have one
// part per table; AND-rule schemes concatenate one part per field
// (Appendix C.1).
type TablePart struct {
	// Hasher indexes Plan.Hashers.
	Hasher int
	// Start and Count select base functions [Start, Start+Count).
	Start, Count int
}

// Table is one LSH hash table of a transitive hashing function: two
// records land in the same bucket when every base function of every
// part agrees on them.
type Table struct {
	Parts []TablePart
}

// HashFunc describes one transitive hashing function H_i in the
// sequence: an LSH scheme realized as a set of tables over the plan's
// hashers. Function indices are assigned so that every H_i uses a
// prefix of each hasher's function sequence — that prefix property is
// what makes computation incremental (Section 2.2, property 4).
type HashFunc struct {
	// Seq is the 1-based position in the sequence.
	Seq int
	// Budget is the total number of base hash functions of the scheme.
	Budget int
	// Tables lists the scheme's hash tables.
	Tables []Table
	// FuncsPerHasher[h] is the length of hasher h's function prefix
	// this scheme uses (0 when the hasher is unused).
	FuncsPerHasher []int
	// Label summarizes the scheme (e.g. "(w=30,z=70)") for reports.
	Label string
}

// Plan is a fully designed Adaptive LSH configuration for one rule: the
// hashers (one per hashing channel the rule needs) and the sequence
// H_1..H_L, plus the calibrated cost model.
type Plan struct {
	// Rule is the record-matching rule the plan was designed for.
	Rule distance.Rule
	// Hashers are the base LSH function sequences.
	Hashers []lshfamily.Hasher
	// HasherDescs are the serializable descriptions the hashers were
	// built from (parallel to Hashers); planio uses them to persist
	// and reload plans.
	HasherDescs []lshfamily.Desc
	// Funcs is the transitive hashing function sequence H_1..H_L.
	Funcs []*HashFunc
	// Cost is the calibrated cost model (Definition 3).
	Cost CostModel
}

// L reports the sequence length.
func (p *Plan) L() int { return len(p.Funcs) }

// CompatibleWith checks that a dataset's field layout matches what the
// plan's hashers expect (field indices in range, field kinds and
// vector dimensions / fingerprint widths matching). Empty datasets are
// always compatible. It inspects the first record only — Dataset.
// Validate guarantees a uniform layout.
func (p *Plan) CompatibleWith(ds *record.Dataset) error {
	if ds.Len() == 0 {
		return nil
	}
	return p.CompatibleWithRecord(&ds.Records[0])
}

// CompatibleWithRecord checks a single record's field layout against
// the plan's hashers — the per-record form of CompatibleWith, used to
// validate probe records handed to the online query path before any
// hasher can panic on them.
func (p *Plan) CompatibleWithRecord(r *record.Record) error {
	if len(p.HasherDescs) == 0 {
		return nil
	}
	var check func(d lshfamily.Desc) error
	check = func(d lshfamily.Desc) error {
		if d.Kind == lshfamily.KindWeightedMix {
			for _, sub := range d.Subs {
				if err := check(sub); err != nil {
					return err
				}
			}
			return nil
		}
		if d.Field < 0 || d.Field >= len(r.Fields) {
			return fmt.Errorf("core: plan hashes field %d, dataset records have %d fields", d.Field, len(r.Fields))
		}
		f := r.Fields[d.Field]
		switch d.Kind {
		case lshfamily.KindHyperplane, lshfamily.KindPStable:
			if f.Kind() != record.VectorKind {
				return fmt.Errorf("core: plan expects a vector in field %d, dataset has %v", d.Field, f.Kind())
			}
			if f.Len() != d.Dim {
				return fmt.Errorf("core: plan expects %d-dimensional vectors in field %d, dataset has %d", d.Dim, d.Field, f.Len())
			}
		case lshfamily.KindMinHash, lshfamily.KindMinHashOPH:
			if f.Kind() != record.SetKind {
				return fmt.Errorf("core: plan expects a set in field %d, dataset has %v", d.Field, f.Kind())
			}
		case lshfamily.KindBitSample:
			if f.Kind() != record.BitsKind {
				return fmt.Errorf("core: plan expects a fingerprint in field %d, dataset has %v", d.Field, f.Kind())
			}
			if f.Len() != d.Width {
				return fmt.Errorf("core: plan expects %d-bit fingerprints in field %d, dataset has %d", d.Width, d.Field, f.Len())
			}
		}
		return nil
	}
	for _, d := range p.HasherDescs {
		if err := check(d); err != nil {
			return err
		}
	}
	return nil
}

// WithNoise returns a shallow copy of the plan whose cost model
// multiplies CostP by nf inside the Algorithm 1 jump-to-P decision (the
// Appendix E.2 sensitivity knob). The underlying hashers and functions
// are shared.
func (p *Plan) WithNoise(nf float64) *Plan {
	q := *p
	q.Cost.NoiseP = nf
	return &q
}

// Validate checks the structural invariants the algorithm relies on:
// per-hasher budgets are non-decreasing along the sequence (the
// incremental-computation property) and every table part addresses
// functions the hasher actually has.
func (p *Plan) Validate() error {
	if len(p.Funcs) == 0 {
		return fmt.Errorf("core: plan has no hashing functions")
	}
	prev := make([]int, len(p.Hashers))
	for _, hf := range p.Funcs {
		if len(hf.FuncsPerHasher) != len(p.Hashers) {
			return fmt.Errorf("core: H_%d tracks %d hashers, plan has %d", hf.Seq, len(hf.FuncsPerHasher), len(p.Hashers))
		}
		for h, n := range hf.FuncsPerHasher {
			if n < prev[h] {
				return fmt.Errorf("core: H_%d uses %d functions of hasher %d, previous function used %d (not incremental)",
					hf.Seq, n, h, prev[h])
			}
			if n > p.Hashers[h].MaxFunctions() {
				return fmt.Errorf("core: H_%d needs %d functions of hasher %d, only %d generated",
					hf.Seq, n, h, p.Hashers[h].MaxFunctions())
			}
			prev[h] = n
		}
		for ti, t := range hf.Tables {
			if len(t.Parts) == 0 {
				return fmt.Errorf("core: H_%d table %d has no parts", hf.Seq, ti)
			}
			for _, part := range t.Parts {
				if part.Hasher < 0 || part.Hasher >= len(p.Hashers) {
					return fmt.Errorf("core: H_%d table %d references hasher %d of %d", hf.Seq, ti, part.Hasher, len(p.Hashers))
				}
				if part.Count < 1 || part.Start < 0 || part.Start+part.Count > hf.FuncsPerHasher[part.Hasher] {
					return fmt.Errorf("core: H_%d table %d part [%d,%d) outside hasher %d prefix %d",
						hf.Seq, ti, part.Start, part.Start+part.Count, part.Hasher, hf.FuncsPerHasher[part.Hasher])
				}
			}
		}
	}
	return nil
}

// tableGroup is z tables over the consecutive hashers first,
// first+1, ...: table t concatenates w[i] functions of hasher first+i,
// starting at t*w[i]. A rem > 0 adds one remainder table of the next
// rem functions of hasher first (Section 5.1's extension).
//
// An AND scheme is one group over all hashers (Appendix C.1), an OR
// scheme one group per hasher (Appendix C.2), a single-field scheme one
// group plus its remainder.
type tableGroup struct {
	first int
	w     []int
	z     int
	rem   int
}

// orGroups lays out an OR scheme: hasher i's z_i tables of w_i
// functions each.
func orGroups(schemes ...wzopt.Scheme) []tableGroup {
	groups := make([]tableGroup, len(schemes))
	for i, s := range schemes {
		groups[i] = tableGroup{first: i, w: []int{s.W}, z: s.Z}
	}
	return groups
}

// layoutFunc lays out H_seq's table groups over numHashers hashers and
// derives the scheme's budget and per-hasher prefix lengths from the
// tables.
func layoutFunc(seq, numHashers int, label string, groups []tableGroup) *HashFunc {
	hf := &HashFunc{Seq: seq, Label: label, FuncsPerHasher: make([]int, numHashers)}
	for _, g := range groups {
		for t := 0; t < g.z; t++ {
			parts := make([]TablePart, len(g.w))
			for i, w := range g.w {
				parts[i] = TablePart{Hasher: g.first + i, Start: t * w, Count: w}
			}
			hf.Tables = append(hf.Tables, Table{Parts: parts})
		}
		if g.rem > 0 {
			hf.Tables = append(hf.Tables, Table{Parts: []TablePart{{Hasher: g.first, Start: g.z * g.w[0], Count: g.rem}}})
		}
	}
	for _, t := range hf.Tables {
		for _, p := range t.Parts {
			hf.Budget += p.Count
			hf.FuncsPerHasher[p.Hasher] = max(hf.FuncsPerHasher[p.Hasher], p.Start+p.Count)
		}
	}
	return hf
}
