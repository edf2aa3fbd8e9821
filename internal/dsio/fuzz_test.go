package dsio

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzRead hammers the dataset decoder: it must never panic, and any
// dataset it accepts must survive a write/read round trip.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		`{"name":"x","records":[{"entity":1,"fields":[{"set":[1,2]}]}]}`,
		`{"records":[{"fields":[{"vector":[0.5,-1]}]}]}`,
		`{"records":[{"fields":[{"bits":[255],"width":8}]}]}`,
		`{"records":[{"fields":[{"set":[1],"vector":[1]}]}]}`,
		`{"records":[{"fields":[{"bits":[1],"width":999}]}]}`,
		`{"records":[{"fields":[]},{"fields":[{"set":[]}]}]}`,
		`not json`,
		`{}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		ds, err := Read(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, ds); err != nil {
			t.Fatalf("accepted dataset cannot be written: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if back.Len() != ds.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", ds.Len(), back.Len())
		}
	})
}

// FuzzParseCol hammers the .col parser with arbitrary images, seeded
// with a small valid file: it must never panic, and any dataset it
// accepts must be structurally valid.
func FuzzParseCol(f *testing.F) {
	valid := colBytes(f, f.TempDir(), colTestDataset(5))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		ds, err := parseCol("fuzz", aligned(b))
		if err != nil {
			return
		}
		if err := ds.Validate(); err != nil {
			t.Fatalf("accepted dataset is invalid: %v", err)
		}
	})
}
