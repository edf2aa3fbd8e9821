package dsio

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/topk-er/adalsh/internal/record"
)

func TestRoundTrip(t *testing.T) {
	ds := &record.Dataset{Name: "rt"}
	ds.Add(0, record.NewSet([]uint64{3, 1, 2}), record.Vector{0.5, -1})
	ds.Add(-1, record.NewSet(nil), record.Vector{0, 0})
	ds.Add(7, record.NewSet([]uint64{9}), record.Vector{1, 2})

	var buf bytes.Buffer
	if err := Write(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "rt" || got.Len() != 3 {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	for i := range ds.Records {
		if got.Truth[i] != ds.Truth[i] {
			t.Errorf("record %d: truth %d, want %d", i, got.Truth[i], ds.Truth[i])
		}
		s := got.Records[i].Fields[0].(record.Set)
		want := ds.Records[i].Fields[0].(record.Set)
		if len(s) != len(want) {
			t.Errorf("record %d: set %v, want %v", i, s, want)
		}
		v := got.Records[i].Fields[1].(record.Vector)
		wantV := ds.Records[i].Fields[1].(record.Vector)
		for j := range wantV {
			if v[j] != wantV[j] {
				t.Errorf("record %d: vector %v, want %v", i, v, wantV)
			}
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(sets [][]uint64) bool {
		ds := &record.Dataset{Name: "p"}
		for _, s := range sets {
			ds.Add(-1, record.NewSet(s))
		}
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if got.Len() != ds.Len() {
			return false
		}
		for i := range ds.Records {
			a := ds.Records[i].Fields[0].(record.Set)
			b := got.Records[i].Fields[0].(record.Set)
			if len(a) != len(b) {
				return false
			}
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"both kinds":  `{"records":[{"fields":[{"set":[1],"vector":[0.5]}]}]}`,
		"ragged rows": `{"records":[{"fields":[{"set":[1]}]},{"fields":[{"set":[1]},{"set":[2]}]}]}`,
		// Cosine over such a pair panics (distance.CosineVec), so the
		// dataset must not load.
		"mixed dims": `{"records":[{"fields":[{"vector":[1,0,0,0]}]},{"fields":[{"vector":[0,1]}]}]}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted invalid input", name)
		}
	}
}

func TestReadMissingFieldDefaultsToSet(t *testing.T) {
	ds, err := Read(strings.NewReader(`{"name":"x","records":[{"fields":[{"set":[]}]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if ds.Records[0].Fields[0].Kind() != record.SetKind {
		t.Fatal("empty set field not decoded as set")
	}
	if ds.Truth[0] != -1 {
		t.Fatalf("missing entity should be -1, got %d", ds.Truth[0])
	}
}

func TestWriteRejectsUnknownField(t *testing.T) {
	ds := &record.Dataset{}
	ds.Records = append(ds.Records, record.Record{ID: 0, Fields: []record.Field{nil}})
	ds.Truth = append(ds.Truth, -1)
	var buf bytes.Buffer
	if err := Write(&buf, ds); err == nil {
		t.Fatal("Write accepted nil field")
	}
}

func TestEncodeDecodeFieldsRoundTrip(t *testing.T) {
	fields := []record.Field{
		record.NewSet([]uint64{9, 3, 3, 7}),
		record.Vector{0.5, -1.25},
		record.NewBits([]uint64{0xdeadbeef}, 32),
	}
	raw, err := EncodeFields(fields)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeFields(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(fields) {
		t.Fatalf("round trip returned %d fields, want %d", len(back), len(fields))
	}
	if !reflect.DeepEqual(back[0], record.NewSet([]uint64{3, 7, 9})) {
		t.Fatalf("set round trip: %v", back[0])
	}
	if !reflect.DeepEqual(back[1], fields[1]) {
		t.Fatalf("vector round trip: %v", back[1])
	}
	if !reflect.DeepEqual(back[2], fields[2]) {
		t.Fatalf("bits round trip: %v", back[2])
	}
	if _, err := DecodeFields([]json.RawMessage{json.RawMessage(`{"set":[1],"vector":[2]}`)}); err == nil {
		t.Fatal("mixed-kind field accepted")
	}
}
