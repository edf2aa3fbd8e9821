package dsio

// The .col format is the out-of-core companion of the JSON dataset
// documents: a block-structured binary column file whose token data
// can be memory-mapped and served to the engine zero-copy, so a
// dataset much larger than RAM filters with only its record headers
// resident. Layout (all sections 8-byte aligned):
//
//	magic "ADLCOL01"
//	block*                       row groups, written append-only
//	footer                       one JSON object (name, layout, block index)
//	trailer                      footerOff u64, footerLen u64, magic
//
// Each block holds up to BlockRecords records column-major: per field
// a u32 length array (elements per record, padded to 8 bytes) then
// the concatenated element words — Set elements and Bits words
// verbatim, Vector components as math.Float64bits — followed by the
// block's ground-truth labels (i64 per record; always stored, only
// surfaced when any record carried a label). The trailer-last structure keeps the writer
// single-pass (no seeking), so ColWriter streams records to disk in
// bounded memory; the self-describing JSON footer keeps the index
// debuggable (tail -c 200 file | strings).
//
// Words are stored in the host's byte order and mapped back without
// swabbing — the format is a working-set spill, not an interchange
// format; use the JSON documents to move datasets between
// architectures.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"unsafe"

	"github.com/topk-er/adalsh/internal/record"
)

const (
	colMagic = "ADLCOL01"
	// BlockRecords is the row-group size of ColWriter: the writer
	// buffers at most this many records before flushing a block, which
	// bounds its memory by one block's token data.
	BlockRecords = 1 << 16
)

// colFooter is the JSON footer: dataset identity, field layout and
// the block index.
type colFooter struct {
	Version  int    `json:"version"`
	Name     string `json:"name"`
	Records  int64  `json:"records"`
	HasTruth bool   `json:"has_truth"`
	// Kinds[i] is the record.FieldKind of field i; Widths[i] its Bits
	// width (0 for other kinds).
	Kinds  []int      `json:"kinds"`
	Widths []int      `json:"widths"`
	Blocks []colBlock `json:"blocks"`
}

type colBlock struct {
	Off   int64 `json:"off"`
	Count int   `json:"count"`
}

// ColWriter streams records into a .col file append-only: Append
// buffers into the current row group, full groups flush to disk, and
// Close writes the footer. Memory stays bounded by one block
// regardless of dataset size. Records must share one field layout
// (fixed at the first Append).
type ColWriter struct {
	f      *os.File
	footer colFooter
	off    int64

	// Current block buffers, column-major.
	count int
	lens  [][]uint32
	words [][]uint64
	truth []int64
	// anyTruth tracks whether any record so far carried ground truth;
	// truth columns are always buffered (cheap) but only written when
	// the dataset has any.
	anyTruth bool

	err error
}

// CreateCol creates path and returns a writer for a dataset with the
// given name. The file is invalid until Close succeeds.
func CreateCol(path, name string) (*ColWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &ColWriter{f: f, footer: colFooter{Version: 1, Name: name}}
	if _, err := f.WriteString(colMagic); err != nil {
		f.Close()
		return nil, fmt.Errorf("dsio: writing col header: %w", err)
	}
	w.off = int64(len(colMagic))
	return w, nil
}

// Append buffers one record (entity -1: truth unknown), flushing a
// full row group to disk.
func (w *ColWriter) Append(entity int, fields ...record.Field) error {
	if w.err != nil {
		return w.err
	}
	if w.footer.Records == 0 && w.count == 0 && w.footer.Kinds == nil {
		// First record fixes the layout.
		if len(fields) == 0 {
			return w.fail(fmt.Errorf("dsio: col record with no fields"))
		}
		for _, f := range fields {
			w.footer.Kinds = append(w.footer.Kinds, int(f.Kind()))
			width := 0
			if b, ok := f.(record.Bits); ok {
				width = b.Width
			}
			w.footer.Widths = append(w.footer.Widths, width)
		}
		w.lens = make([][]uint32, len(fields))
		w.words = make([][]uint64, len(fields))
	}
	if len(fields) != len(w.footer.Kinds) {
		return w.fail(fmt.Errorf("dsio: col record %d has %d fields, want %d", w.footer.Records+int64(w.count), len(fields), len(w.footer.Kinds)))
	}
	for i, f := range fields {
		if int(f.Kind()) != w.footer.Kinds[i] {
			return w.fail(fmt.Errorf("dsio: col record %d field %d kind %v, want %v",
				w.footer.Records+int64(w.count), i, f.Kind(), record.FieldKind(w.footer.Kinds[i])))
		}
		switch v := f.(type) {
		case record.Set:
			w.lens[i] = append(w.lens[i], uint32(len(v)))
			w.words[i] = append(w.words[i], v...)
		case record.Vector:
			w.lens[i] = append(w.lens[i], uint32(len(v)))
			for _, x := range v {
				w.words[i] = append(w.words[i], math.Float64bits(x))
			}
		case record.Bits:
			if v.Width != w.footer.Widths[i] {
				return w.fail(fmt.Errorf("dsio: col record %d field %d bits width %d, want %d",
					w.footer.Records+int64(w.count), i, v.Width, w.footer.Widths[i]))
			}
			w.lens[i] = append(w.lens[i], uint32(len(v.Words)))
			w.words[i] = append(w.words[i], v.Words...)
		default:
			return w.fail(fmt.Errorf("dsio: unsupported field type %T", f))
		}
	}
	if entity >= 0 {
		w.anyTruth = true
	}
	w.truth = append(w.truth, int64(entity))
	w.count++
	if w.count >= BlockRecords {
		return w.flush()
	}
	return nil
}

// flush writes the buffered row group as one block.
func (w *ColWriter) flush() error {
	if w.count == 0 {
		return nil
	}
	blk := colBlock{Off: w.off, Count: w.count}
	for i := range w.lens {
		if err := w.writeWords(lenWords(w.lens[i])); err != nil {
			return err
		}
		if err := w.writeWords(w.words[i]); err != nil {
			return err
		}
		w.lens[i] = w.lens[i][:0]
		w.words[i] = w.words[i][:0]
	}
	if err := w.writeWords(unsafe.Slice((*uint64)(unsafe.Pointer(&w.truth[0])), len(w.truth))); err != nil {
		return err
	}
	w.truth = w.truth[:0]
	w.footer.Records += int64(w.count)
	w.footer.Blocks = append(w.footer.Blocks, blk)
	w.count = 0
	return nil
}

// writeWords appends a word run to the file.
func (w *ColWriter) writeWords(ws []uint64) error {
	if len(ws) == 0 {
		return nil
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&ws[0])), len(ws)*8)
	n, err := w.f.Write(b)
	w.off += int64(n)
	if err != nil {
		return w.fail(fmt.Errorf("dsio: writing col block: %w", err))
	}
	return nil
}

// lenWords packs a u32 length array into padded words.
func lenWords(lens []uint32) []uint64 {
	ws := make([]uint64, (len(lens)+1)/2)
	for i, l := range lens {
		ws[i/2] |= uint64(l) << (32 * (i % 2))
	}
	return ws
}

// Close flushes the final row group, writes the footer and trailer,
// and closes the file.
func (w *ColWriter) Close() error {
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	if err := w.flush(); err != nil {
		w.f.Close()
		return err
	}
	w.footer.HasTruth = w.anyTruth
	foot, err := json.Marshal(w.footer)
	if err != nil {
		w.f.Close()
		return fmt.Errorf("dsio: encoding col footer: %w", err)
	}
	footOff := w.off
	trailer := make([]byte, 0, len(foot)+16+len(colMagic))
	trailer = append(trailer, foot...)
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(footOff))
	trailer = binary.LittleEndian.AppendUint64(trailer, uint64(len(foot)))
	trailer = append(trailer, colMagic...)
	if _, err := w.f.Write(trailer); err != nil {
		w.f.Close()
		return fmt.Errorf("dsio: writing col footer: %w", err)
	}
	return w.f.Close()
}

func (w *ColWriter) fail(err error) error {
	if w.err == nil {
		w.err = err
	}
	return w.err
}

// WriteCol streams an in-memory dataset to a .col file (the datagen
// path; large datasets should Append into CreateCol directly).
func WriteCol(path string, ds *record.Dataset) error {
	w, err := CreateCol(path, ds.Name)
	if err != nil {
		return err
	}
	for i := range ds.Records {
		ent := -1
		if i < len(ds.Truth) {
			ent = ds.Truth[i]
		}
		if err := w.Append(ent, ds.Records[i].Fields...); err != nil {
			w.f.Close()
			return err
		}
	}
	return w.Close()
}

// ColFile is an opened .col dataset: Dataset's field slices alias the
// file mapping (or its in-heap image on platforms without mmap), so
// the token data stays out of core until touched. Close unmaps;
// using the dataset after Close faults.
type ColFile struct {
	// Dataset serves the records through the ordinary accessors.
	Dataset *record.Dataset
	// Mapped reports whether the file is memory-mapped (false: the
	// portable fallback read it into the heap).
	Mapped bool

	data []byte
}

// Close releases the mapping.
func (c *ColFile) Close() error {
	if c.Mapped && c.data != nil {
		data := c.data
		c.data = nil
		return unmapFile(data)
	}
	c.data = nil
	return nil
}

// OpenCol opens a .col file written by ColWriter and presents it as a
// dataset: record headers (slice views plus truth labels) are built
// in memory, the element data stays on disk behind the mapping.
func OpenCol(path string) (*ColFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(2*len(colMagic)+16) {
		return nil, fmt.Errorf("dsio: %s: too short for a col file", path)
	}
	cf := &ColFile{}
	cf.data, cf.Mapped = mapFile(f, size)
	if cf.data == nil {
		// Portable fallback: read the file into an 8-byte-aligned heap
		// buffer (words view requires alignment).
		buf := make([]uint64, (size+7)/8)
		b := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), size)
		if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), b); err != nil {
			return nil, fmt.Errorf("dsio: reading %s: %w", path, err)
		}
		cf.data = b
	}
	ds, err := parseCol(path, cf.data)
	if err != nil {
		cf.Close()
		return nil, err
	}
	cf.Dataset = ds
	return cf, nil
}

// parseCol builds the dataset views over an open mapping. data must be
// 8-byte aligned (a mapping or OpenCol's heap image is). The footer is
// untrusted: every count and offset is checked against the file before
// anything is allocated or indexed, so a hostile file yields an error,
// never a panic or an oversized allocation.
func parseCol(path string, data []byte) (*record.Dataset, error) {
	if len(data) < 2*len(colMagic)+16 {
		return nil, fmt.Errorf("dsio: %s: too short for a col file", path)
	}
	if string(data[:len(colMagic)]) != colMagic || string(data[len(data)-len(colMagic):]) != colMagic {
		return nil, fmt.Errorf("dsio: %s: not a col file (bad magic)", path)
	}
	tr := data[len(data)-len(colMagic)-16:]
	footOff := int64(binary.LittleEndian.Uint64(tr))
	footLen := int64(binary.LittleEndian.Uint64(tr[8:]))
	if footOff < int64(len(colMagic)) || footLen < 2 || footOff > int64(len(data)) || footLen > int64(len(data))-footOff {
		return nil, fmt.Errorf("dsio: %s: corrupt col trailer", path)
	}
	var foot colFooter
	if err := json.Unmarshal(data[footOff:footOff+footLen], &foot); err != nil {
		return nil, fmt.Errorf("dsio: %s: decoding col footer: %w", path, err)
	}
	if foot.Version != 1 {
		return nil, fmt.Errorf("dsio: %s: col format version %d, want 1", path, foot.Version)
	}
	nf := len(foot.Kinds)
	if len(foot.Widths) != nf {
		return nil, fmt.Errorf("dsio: %s: col footer has %d field widths for %d field kinds", path, len(foot.Widths), nf)
	}
	// Every record stores an 8-byte truth word and a 4-byte length per
	// field before the footer, which bounds the record count — and the
	// header allocations below — by the file size.
	if foot.Records < 0 || foot.Records > footOff/int64(8+4*nf) || (foot.Records > 0 && nf == 0) {
		return nil, fmt.Errorf("dsio: %s: col footer claims %d records of %d fields in %d data bytes", path, foot.Records, nf, footOff)
	}
	n := int(foot.Records)
	ds := &record.Dataset{Name: foot.Name}
	ds.Records = make([]record.Record, n)
	// One backing array for every record's field list, and bulk Truth.
	backing := make([]record.Field, n*nf)
	if foot.HasTruth {
		ds.Truth = make([]int, n)
	}
	at := 0
	for bi, blk := range foot.Blocks {
		// The word views need 8-byte alignment; every section length is
		// a whole number of words, so an aligned block start suffices.
		if blk.Off < int64(len(colMagic)) || blk.Off >= footOff || blk.Off%8 != 0 || blk.Count <= 0 {
			return nil, fmt.Errorf("dsio: %s: corrupt block %d index", path, bi)
		}
		if blk.Count > n-at {
			return nil, fmt.Errorf("dsio: %s: block %d ends past the footer's %d records", path, bi, n)
		}
		off := blk.Off
		for fi := 0; fi < nf; fi++ {
			lensBytes := int64((blk.Count+1)/2) * 8
			if off+lensBytes > footOff {
				return nil, fmt.Errorf("dsio: %s: block %d overruns the data section", path, bi)
			}
			lens := wordsOf(data[off : off+lensBytes])
			off += lensBytes
			// Stop summing once past the room left, so total cannot
			// overflow.
			room := (footOff - off) / 8
			var total int64
			for r := 0; r < blk.Count && total <= room; r++ {
				total += int64(uint32(lens[r/2] >> (32 * (r % 2))))
			}
			if total > room {
				return nil, fmt.Errorf("dsio: %s: block %d overruns the data section", path, bi)
			}
			words := wordsOf(data[off : off+total*8])
			off += total * 8
			cur := 0
			for r := 0; r < blk.Count; r++ {
				l := int(uint32(lens[r/2] >> (32 * (r % 2))))
				view := words[cur : cur+l : cur+l]
				cur += l
				var fld record.Field
				switch record.FieldKind(foot.Kinds[fi]) {
				case record.SetKind:
					fld = record.Set(view)
				case record.VectorKind:
					fld = record.Vector(floatsOf(view))
				case record.BitsKind:
					if w := foot.Widths[fi]; w < 1 || w > 64*l {
						return nil, fmt.Errorf("dsio: %s: block %d record %d: bits width %d for %d words", path, bi, r, w, l)
					}
					fld = record.Bits{Words: view, Width: foot.Widths[fi]}
				default:
					return nil, fmt.Errorf("dsio: %s: unknown field kind %d", path, foot.Kinds[fi])
				}
				backing[(at+r)*nf+fi] = fld
			}
		}
		truthBytes := int64(blk.Count) * 8
		if off+truthBytes > footOff {
			return nil, fmt.Errorf("dsio: %s: block %d overruns the data section", path, bi)
		}
		truth := wordsOf(data[off : off+truthBytes])
		for r := 0; r < blk.Count; r++ {
			id := at + r
			ds.Records[id] = record.Record{ID: id, Fields: backing[id*nf : (id+1)*nf : (id+1)*nf]}
			if foot.HasTruth {
				ds.Truth[id] = int(int64(truth[r]))
			}
		}
		at += blk.Count
	}
	if at != n {
		return nil, fmt.Errorf("dsio: %s: block index covers %d records, footer says %d", path, at, n)
	}
	return ds, nil
}

// wordsOf views 8-byte-aligned bytes as words without copying.
func wordsOf(b []byte) []uint64 {
	if len(b) == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), len(b)/8)
}

// floatsOf views stored Float64bits words as floats without copying.
func floatsOf(ws []uint64) []float64 {
	if len(ws) == 0 {
		return nil
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&ws[0])), len(ws))
}
