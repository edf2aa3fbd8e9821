package dsio

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/topk-er/adalsh/internal/record"
)

// colTestDataset mixes every field kind, empty fields, missing truth
// and enough records to span block boundaries when blockSize is
// small.
func colTestDataset(n int) *record.Dataset {
	ds := &record.Dataset{Name: "colrt"}
	for i := 0; i < n; i++ {
		set := record.NewSet([]uint64{uint64(i), uint64(i) * 7, uint64(i) % 5})
		if i%11 == 0 {
			set = record.NewSet(nil)
		}
		vec := record.Vector{float64(i) * 0.5, -float64(i)}
		bits := record.NewBits([]uint64{uint64(i) * 0x9e3779b9, uint64(i)}, 100)
		ent := i % 4
		if i%7 == 0 {
			ent = -1
		}
		ds.Add(ent, set, vec, bits)
	}
	return ds
}

// requireSameDataset compares two datasets field-by-field (DeepEqual
// on views normalizes nil vs empty first).
func requireSameDataset(t *testing.T, got, want *record.Dataset) {
	t.Helper()
	if got.Name != want.Name || got.Len() != want.Len() {
		t.Fatalf("dataset shape: got %q/%d records, want %q/%d", got.Name, got.Len(), want.Name, want.Len())
	}
	if len(want.Truth) > 0 && !reflect.DeepEqual(got.Truth, want.Truth) {
		t.Errorf("truth differs")
	}
	for i := range want.Records {
		for f := range want.Records[i].Fields {
			g, w := got.Records[i].Fields[f], want.Records[i].Fields[f]
			if g.Kind() != w.Kind() || g.Len() != w.Len() {
				t.Fatalf("record %d field %d: got %v/%d, want %v/%d", i, f, g.Kind(), g.Len(), w.Kind(), w.Len())
			}
			switch wv := w.(type) {
			case record.Set:
				if gv := g.(record.Set); len(wv) > 0 && !reflect.DeepEqual(gv, wv) {
					t.Fatalf("record %d field %d: set %v, want %v", i, f, gv, wv)
				}
			case record.Vector:
				if gv := g.(record.Vector); len(wv) > 0 && !reflect.DeepEqual(gv, wv) {
					t.Fatalf("record %d field %d: vector %v, want %v", i, f, gv, wv)
				}
			case record.Bits:
				gv := g.(record.Bits)
				if gv.Width != wv.Width || !reflect.DeepEqual(gv.Words, wv.Words) {
					t.Fatalf("record %d field %d: bits %v, want %v", i, f, gv, wv)
				}
			}
		}
	}
}

// TestColRoundTrip writes a mixed-kind dataset through WriteCol and
// reads it back through the mapping, multi-block included.
func TestColRoundTrip(t *testing.T) {
	ds := colTestDataset(300)
	path := filepath.Join(t.TempDir(), "rt.col")
	if err := WriteCol(path, ds); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCol(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	requireSameDataset(t, cf.Dataset, ds)
	if err := cf.Dataset.Validate(); err != nil {
		t.Errorf("mapped dataset fails validation: %v", err)
	}
}

// TestColMultiBlock drives ColWriter past several row groups by
// flushing manually at a small cadence (Append auto-flushes only at
// BlockRecords, too big for a unit test).
func TestColMultiBlock(t *testing.T) {
	ds := colTestDataset(257)
	path := filepath.Join(t.TempDir(), "mb.col")
	w, err := CreateCol(path, ds.Name)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds.Records {
		if err := w.Append(ds.Truth[i], ds.Records[i].Fields...); err != nil {
			t.Fatal(err)
		}
		if (i+1)%100 == 0 {
			if err := w.flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCol(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if !cf.Mapped {
		t.Logf("note: file not memory-mapped, heap fallback in use")
	}
	requireSameDataset(t, cf.Dataset, ds)
}

// TestColNoTruth pins that a dataset with no ground truth at all maps
// back without a Truth slice.
func TestColNoTruth(t *testing.T) {
	ds := &record.Dataset{Name: "nt"}
	ds.Add(-1, record.NewSet([]uint64{1, 2}))
	ds.Add(-1, record.NewSet([]uint64{3}))
	path := filepath.Join(t.TempDir(), "nt.col")
	if err := WriteCol(path, ds); err != nil {
		t.Fatal(err)
	}
	cf, err := OpenCol(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cf.Close()
	if len(cf.Dataset.Truth) != 0 {
		t.Errorf("truthless dataset mapped back with truth %v", cf.Dataset.Truth)
	}
}

// TestColWriterRejectsRaggedLayout pins the uniform-layout contract.
func TestColWriterRejectsRaggedLayout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.col")
	w, err := CreateCol(path, "bad")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(-1, record.NewSet([]uint64{1})); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(-1, record.Vector{1}); err == nil {
		t.Error("kind change accepted")
	}
	if err := w.Close(); err == nil {
		t.Error("Close after a failed Append succeeded")
	}
}

// TestOpenColRejectsCorrupt rejects files that are not col files.
func TestOpenColRejectsCorrupt(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"short.col":   "x",
		"garbage.col": strings.Repeat("ADLCOL01", 10),
	} {
		p := filepath.Join(dir, name)
		if err := writeFile(p, content); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCol(p); err == nil {
			t.Errorf("%s: OpenCol accepted a corrupt file", name)
		}
	}
}

// colBytes writes ds as a .col file and returns the file's bytes.
func colBytes(t testing.TB, dir string, ds *record.Dataset) []byte {
	t.Helper()
	path := filepath.Join(dir, "seed.col")
	if err := WriteCol(path, ds); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// withFooter returns a copy of a valid .col image with shift zero
// bytes inserted after the leading magic (block offsets moved along)
// and its JSON footer rewritten by edit, the trailer updated to match.
func withFooter(t *testing.T, data []byte, shift int, edit func(*colFooter)) []byte {
	t.Helper()
	tr := data[len(data)-len(colMagic)-16:]
	footOff := binary.LittleEndian.Uint64(tr)
	footLen := binary.LittleEndian.Uint64(tr[8:])
	var foot colFooter
	if err := json.Unmarshal(data[footOff:footOff+footLen], &foot); err != nil {
		t.Fatal(err)
	}
	for i := range foot.Blocks {
		foot.Blocks[i].Off += int64(shift)
	}
	edit(&foot)
	enc, err := json.Marshal(foot)
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), data[:len(colMagic)]...)
	out = append(out, make([]byte, shift)...)
	out = append(out, data[len(colMagic):footOff]...)
	out = append(out, enc...)
	out = binary.LittleEndian.AppendUint64(out, footOff+uint64(shift))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(enc)))
	return append(out, colMagic...)
}

// aligned copies b into an 8-byte-aligned buffer, as the file mapping
// and OpenCol's heap image both are.
func aligned(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	buf := make([]uint64, (len(b)+7)/8)
	out := unsafe.Slice((*byte)(unsafe.Pointer(&buf[0])), len(b))
	copy(out, b)
	return out
}

// TestParseColRejectsHostileFooters feeds parseCol footers that would
// make it index out of range, allocate without bound, or build field
// views over misaligned or inconsistent data; each must be an error.
func TestParseColRejectsHostileFooters(t *testing.T) {
	valid := colBytes(t, t.TempDir(), colTestDataset(10))
	keep := func(*colFooter) {}
	// An aligned shift keeps the image valid: the helper alone breaks
	// nothing, so each case below fails for its own edit.
	if _, err := parseCol("valid", aligned(withFooter(t, valid, 8, keep))); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	for _, tc := range []struct {
		name  string
		shift int
		edit  func(*colFooter)
	}{
		{"negative records", 0, func(f *colFooter) { f.Records = -1 }},
		{"records beyond file size", 0, func(f *colFooter) { f.Records = 1 << 40 }},
		{"block count past records", 0, func(f *colFooter) { f.Records = 5 }},
		{"widths shorter than kinds", 0, func(f *colFooter) { f.Widths = []int{} }},
		{"unaligned block offset", 4, keep},
		{"bits width beyond words", 0, func(f *colFooter) { f.Widths[2] = 64*2 + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseCol(tc.name, aligned(withFooter(t, valid, tc.shift, tc.edit))); err == nil {
				t.Error("parseCol accepted the hostile footer")
			}
		})
	}
}

// TestReadBatchesBounded pins the streaming contract: batches are
// bounded and cover every record in order, and the eager Read built
// on top matches a direct decode.
func TestReadBatchesBounded(t *testing.T) {
	ds := colTestDataset(100)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	var seen int
	var batches int
	name, err := ReadBatches(bytes.NewReader(buf.Bytes()), 7, func(name string, entities []int, fields [][]record.Field) error {
		if len(fields) > 7 {
			t.Errorf("batch of %d records, want <= 7", len(fields))
		}
		if len(entities) != len(fields) {
			t.Errorf("entities/fields length mismatch: %d vs %d", len(entities), len(fields))
		}
		for i := range fields {
			if entities[i] != ds.Truth[seen] {
				t.Errorf("record %d: entity %d, want %d", seen, entities[i], ds.Truth[seen])
			}
			seen++
		}
		batches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if name != "colrt" {
		t.Errorf("name = %q, want colrt", name)
	}
	if seen != ds.Len() || batches != (ds.Len()+6)/7 {
		t.Errorf("saw %d records over %d batches, want %d over %d", seen, batches, ds.Len(), (ds.Len()+6)/7)
	}

	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSameDataset(t, got, ds)
}

// TestReadBatchesAbort pins that an fn error stops the parse.
func TestReadBatchesAbort(t *testing.T) {
	ds := colTestDataset(50)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	calls := 0
	errAbort := errors.New("stop here")
	_, err := ReadBatches(&buf, 10, func(string, []int, [][]record.Field) error {
		calls++
		return errAbort
	})
	if err != errAbort {
		t.Errorf("err = %v, want the fn error unwrapped", err)
	}
	if calls != 1 {
		t.Errorf("fn called %d times after aborting, want 1", calls)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
