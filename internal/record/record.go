// Package record defines the data model shared by every stage of the
// top-k entity-resolution pipeline: records with typed fields, and
// datasets that optionally carry a ground-truth clustering.
package record

import (
	"fmt"
	"sort"
)

// Field is one attribute of a record. Two concrete kinds exist:
// Vector (dense numeric features, compared by cosine distance) and
// Set (hashed shingles / signatures, compared by Jaccard distance).
type Field interface {
	// Kind reports the concrete field kind.
	Kind() FieldKind
	// Len reports the field's size (dimension or cardinality).
	Len() int
}

// FieldKind enumerates the concrete Field implementations.
type FieldKind int

const (
	// VectorKind identifies Vector fields.
	VectorKind FieldKind = iota
	// SetKind identifies Set fields.
	SetKind
	// BitsKind identifies Bits fields.
	BitsKind
)

// String implements fmt.Stringer.
func (k FieldKind) String() string {
	switch k {
	case VectorKind:
		return "vector"
	case SetKind:
		return "set"
	case BitsKind:
		return "bits"
	}
	return fmt.Sprintf("FieldKind(%d)", int(k))
}

// Vector is a dense feature vector (e.g. an RGB histogram).
type Vector []float64

// Kind implements Field.
func (Vector) Kind() FieldKind { return VectorKind }

// Len implements Field.
func (v Vector) Len() int { return len(v) }

// Set is a sorted slice of unique 64-bit element hashes (e.g. hashed
// shingles or spot signatures). Construct with NewSet to guarantee the
// sorted-unique invariant that Jaccard and MinHash rely on.
type Set []uint64

// Kind implements Field.
func (Set) Kind() FieldKind { return SetKind }

// Len implements Field.
func (s Set) Len() int { return len(s) }

// NewSet builds a Set from arbitrary element hashes, sorting and
// de-duplicating them.
func NewSet(elems []uint64) Set {
	if len(elems) == 0 {
		return Set{}
	}
	s := make([]uint64, len(elems))
	copy(s, elems)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, e := range s[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return Set(out)
}

// Contains reports whether the set contains element e.
func (s Set) Contains(e uint64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= e })
	return i < len(s) && s[i] == e
}

// Bits is a fixed-width binary fingerprint (e.g. a SimHash), stored as
// 64-bit words with Width significant bits. Construct with NewBits.
// Bits fields are compared by normalized Hamming distance.
type Bits struct {
	// Words holds the bits, least significant word first.
	Words []uint64
	// Width is the number of significant bits (1 <= Width <= 64*len(Words)).
	Width int
}

// Kind implements Field.
func (Bits) Kind() FieldKind { return BitsKind }

// Len implements Field: the fingerprint width in bits.
func (b Bits) Len() int { return b.Width }

// NewBits builds a Bits field of the given width from packed words,
// masking any bits beyond the width. It panics when the width does not
// fit in the provided words.
func NewBits(words []uint64, width int) Bits {
	if width < 1 || width > 64*len(words) {
		panic(fmt.Sprintf("record: bits width %d does not fit %d words", width, len(words)))
	}
	w := make([]uint64, (width+63)/64)
	copy(w, words[:len(w)])
	if rem := width % 64; rem != 0 {
		w[len(w)-1] &= (1 << rem) - 1
	}
	return Bits{Words: w, Width: width}
}

// Bit reports bit i of the fingerprint.
func (b Bits) Bit(i int) uint64 {
	return (b.Words[i/64] >> (i % 64)) & 1
}

// Record is a single item to resolve. All records in a dataset have the
// same field layout (same kinds at the same indices).
type Record struct {
	// ID is the record's position in its dataset; it is assigned by
	// Dataset.Add and must not be set by callers.
	ID int
	// Fields holds the record's attributes.
	Fields []Field
}

// Dataset is a collection of records with an optional ground-truth
// entity assignment used by the evaluation metrics.
type Dataset struct {
	// Name labels the dataset in reports.
	Name string
	// Records holds the records; Records[i].ID == i.
	Records []Record
	// Truth[i] is the ground-truth entity of record i, or -1 when
	// unknown. len(Truth) == len(Records) whenever ground truth exists.
	Truth []int
}

// Add appends a record (assigning its ID) with ground-truth entity.
// Pass entity = -1 when the truth is unknown.
func (d *Dataset) Add(entity int, fields ...Field) int {
	id := len(d.Records)
	d.Records = append(d.Records, Record{ID: id, Fields: fields})
	d.Truth = append(d.Truth, entity)
	return id
}

// Len reports the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// NumFields reports the per-record field count (0 for empty datasets).
func (d *Dataset) NumFields() int {
	if len(d.Records) == 0 {
		return 0
	}
	return len(d.Records[0].Fields)
}

// Validate checks the structural invariants: IDs sequential, every
// record's fields in the first record's layout (CheckLayout), Truth
// parallel to Records.
func (d *Dataset) Validate() error {
	if len(d.Truth) != 0 && len(d.Truth) != len(d.Records) {
		return fmt.Errorf("record: dataset %q: %d truth labels for %d records", d.Name, len(d.Truth), len(d.Records))
	}
	for i := range d.Records {
		r := &d.Records[i]
		if r.ID != i {
			return fmt.Errorf("record: dataset %q: record at position %d has ID %d", d.Name, i, r.ID)
		}
		if err := CheckLayout(d.Records[0].Fields, r.Fields); err != nil {
			return fmt.Errorf("record: dataset %q: record %d: %w", d.Name, i, err)
		}
	}
	return nil
}

// CheckLayout reports whether fields follow the reference layout ref:
// the same field count and kinds, and the same vector dimensions and
// fingerprint widths, which the metrics and hashers over a field
// require of every pair of records. Set fields may differ in size.
func CheckLayout(ref, fields []Field) error {
	if len(fields) != len(ref) {
		return fmt.Errorf("%d fields, layout has %d", len(fields), len(ref))
	}
	for f, fd := range fields {
		kind := fd.Kind()
		if kind != ref[f].Kind() {
			return fmt.Errorf("field %d is %v, layout has %v", f, kind, ref[f].Kind())
		}
		if kind != SetKind && fd.Len() != ref[f].Len() {
			return fmt.Errorf("field %d is a %d-wide %v, layout has width %d", f, fd.Len(), kind, ref[f].Len())
		}
	}
	return nil
}

// Entities returns the ground-truth clustering as a map from entity ID
// to the records referring to it. Records with unknown truth (-1) are
// skipped.
func (d *Dataset) Entities() map[int][]int {
	out := make(map[int][]int)
	for i, e := range d.Truth {
		if e >= 0 {
			out[e] = append(out[e], i)
		}
	}
	return out
}

// TopEntities returns the k largest ground-truth entities as record-ID
// slices, largest first. Ties break on smaller entity ID for
// determinism. If fewer than k entities exist, all are returned.
func (d *Dataset) TopEntities(k int) [][]int {
	ents := d.Entities()
	type sized struct {
		id      int
		records []int
	}
	all := make([]sized, 0, len(ents))
	for id, recs := range ents {
		all = append(all, sized{id, recs})
	}
	sort.Slice(all, func(i, j int) bool {
		if len(all[i].records) != len(all[j].records) {
			return len(all[i].records) > len(all[j].records)
		}
		return all[i].id < all[j].id
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([][]int, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].records
	}
	return out
}

// TopKRecords returns the union of the records of the k largest
// ground-truth entities (the set O* from the paper's problem
// definition, Section 2.1).
func (d *Dataset) TopKRecords(k int) []int {
	var out []int
	for _, recs := range d.TopEntities(k) {
		out = append(out, recs...)
	}
	sort.Ints(out)
	return out
}

// Subset returns a new dataset containing the given record IDs (in the
// given order, re-numbered from 0) with their truth labels.
func (d *Dataset) Subset(name string, ids []int) *Dataset {
	sub := &Dataset{Name: name}
	for _, id := range ids {
		ent := -1
		if id < len(d.Truth) {
			ent = d.Truth[id]
		}
		sub.Add(ent, d.Records[id].Fields...)
	}
	return sub
}
