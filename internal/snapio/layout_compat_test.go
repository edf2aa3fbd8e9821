package snapio_test

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"

	"github.com/topk-er/adalsh/internal/snapio"
)

// layoutByteOffsets locates the v1 layout filler bytes in an encoded
// snapshot: the meta section's cache-layout and map-tables bytes (the
// 4th- and 3rd-last meta payload bytes, ahead of the has-plan and
// has-cache flags) and the first byte of the cache section's payload.
func layoutByteOffsets(t *testing.T, blob []byte) (metaLayout, metaMaps, cacheLayout int) {
	t.Helper()
	metaLayout, cacheLayout = -1, -1
	// Sections start after the 8-byte magic and the u32 version; each
	// is a u8 tag and a u64 payload length ahead of the payload.
	for off := 12; off+9 <= len(blob); {
		tag := blob[off]
		n := int(binary.LittleEndian.Uint64(blob[off+1:]))
		payload := off + 9
		switch tag {
		case 1:
			metaLayout = payload + n - 4
		case 4:
			cacheLayout = payload
		}
		if tag == 255 {
			break
		}
		off = payload + n
	}
	if metaLayout < 0 || cacheLayout < 0 {
		t.Fatalf("snapshot without meta or cache section (meta %d, cache %d)", metaLayout, cacheLayout)
	}
	return metaLayout, metaLayout + 1, cacheLayout
}

// reseal recomputes the CRC-32 footer after a patch: the checksum
// covers everything up to the footer's u64 body count and u32 CRC.
func reseal(blob []byte) {
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-12]))
}

// withLayoutBytes returns a resealed copy of blob whose three layout
// filler bytes read v — what a session on the retired legacy layout
// (v = 1) wrote.
func withLayoutBytes(t *testing.T, blob []byte, v byte) []byte {
	t.Helper()
	out := append([]byte(nil), blob...)
	metaLayout, metaMaps, cacheLayout := layoutByteOffsets(t, out)
	for _, off := range []int{metaLayout, metaMaps, cacheLayout} {
		if out[off] != 0 {
			t.Fatalf("layout filler byte at %d is %d, want 0", off, out[off])
		}
		out[off] = v
	}
	reseal(out)
	return out
}

// TestLegacyLayoutSnapshotRestores pins checkpoint compatibility across
// the layout deletion: a snapshot whose layout bytes say "legacy
// slice cache + map tables" restores onto the one remaining layout
// with identical cache content, its next TopK equals the unpatched
// restore's, and re-snapshotting it writes the 0 filler back. A layout
// byte of 2 was never valid and is still rejected.
func TestLegacyLayoutSnapshotRestores(t *testing.T) {
	s := testStream(t, 61)
	blob := snapshotBytes(t, s)
	legacyBlob := withLayoutBytes(t, blob, 1)

	plain, err := snapio.Restore(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := snapio.Restore(bytes.NewReader(legacyBlob))
	if err != nil {
		t.Fatalf("legacy-layout snapshot rejected: %v", err)
	}
	if !reflect.DeepEqual(legacy.State().Cache, plain.State().Cache) {
		t.Fatal("legacy-layout restore has different cache content")
	}
	if !reflect.DeepEqual(legacy.State().Cache, s.State().Cache) {
		t.Fatal("legacy-layout restore's cache differs from the snapshotted stream's")
	}
	if again := snapshotBytes(t, legacy); !bytes.Equal(again, blob) {
		t.Fatal("re-snapshot of a legacy-layout restore differs from the unpatched snapshot")
	}
	want, err := plain.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := legacy.TopK(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Clusters, want.Clusters) {
		t.Fatal("legacy-layout restore's TopK clusters differ")
	}
	if !reflect.DeepEqual(got.Stats.HashEvals, want.Stats.HashEvals) || got.Stats.ModelCost != want.Stats.ModelCost {
		t.Fatalf("legacy-layout restore's TopK work differs: evals %v / cost %v, want %v / %v",
			got.Stats.HashEvals, got.Stats.ModelCost, want.Stats.HashEvals, want.Stats.ModelCost)
	}

	metaLayout, metaMaps, cacheLayout := layoutByteOffsets(t, blob)
	for _, tc := range []struct {
		name string
		off  int
		want string
	}{
		{"meta layout", metaLayout, "unknown cache layout 2"},
		{"meta map tables", metaMaps, "bad boolean byte 2"},
		{"cache layout", cacheLayout, "unknown cache layout 2"},
	} {
		bad := append([]byte(nil), blob...)
		bad[tc.off] = 2
		reseal(bad)
		if _, err := snapio.Restore(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s byte 2: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}
