// Package snapio persists live core.Stream sessions as format-versioned
// binary snapshots, so a long-running top-k computation survives a
// process restart warm: the designed plan with its calibrated cost
// model, every cached signature prefix, and the stream's position /
// replan / query bookkeeping are restored exactly, and the continued
// run produces byte-identical clusters and work counters to an
// uninterrupted one (re-designing instead would re-calibrate the cost
// model from wall-clock timings and diverge).
//
// Format (version 1, all integers little-endian):
//
//	magic "ADALSNAP" | u32 version
//	sections: tag u8 | u64 payload length | payload
//	  meta(1)    rule spec, sequence config, position/replan/query state
//	  dataset(2) records (typed fields) + ground-truth labels
//	  plan(3)    the planio JSON document (present iff a plan exists)
//	  cache(4)   per-hasher prefix lengths + values + counters
//	footer(255): u64 body byte count | u32 CRC-32 (IEEE) of the body
//
// The footer checksum covers everything from the magic through the
// footer's own tag and length field, so truncated or bit-flipped files
// are rejected on load. Decoding never trusts a length field with an
// allocation: counts are sanity-capped and bulk data is read in small
// chunks, so a hostile header fails with an error before committing
// memory. Version mismatches report both the found and the supported
// version; bump formatVersion whenever the encoding changes.
package snapio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/obs"
	"github.com/topk-er/adalsh/internal/planio"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/rulespec"
)

// formatVersion guards against loading snapshots from incompatible
// releases. Bump it whenever the encoding changes shape.
const formatVersion = 1

// magic identifies snapshot files.
const magic = "ADALSNAP"

// Section tags.
const (
	secMeta    = 1
	secDataset = 2
	secPlan    = 3
	secCache   = 4
	secFooter  = 255
)

// Decode sanity caps: no length field read from a snapshot may commit
// more memory than the bytes actually present justify. The caps bound
// individual counts far above legitimate sessions and far below harm;
// bulk data behind them is additionally read in bounded chunks.
const (
	maxSaneRecords  = 1 << 28
	maxSaneFields   = 1 << 12
	maxSaneFieldLen = 1 << 26
	maxSaneString   = 1 << 20
	maxSaneHashers  = 1 << 10
	maxSanePrefix   = 1 << 24
	maxSanePlanJSON = 1 << 26
)

// Snapshot writes the stream's full state to w (see core.StreamState
// for what is and is not captured). The write is reported as a
// StageSnapshot span plus a snapshot_bytes counter on the stream's obs
// sink. Snapshot does not mutate the stream; pair it with
// WriteFileAtomic / SaveFile for crash-safe checkpoint files.
func Snapshot(w io.Writer, s *core.Stream) error {
	sink := s.Obs()
	t := obs.StartStage(sink, obs.StageSnapshot)
	st := s.State()
	n, err := writeState(w, st)
	obs.Count(sink, obs.CtrSnapshotBytes, int64(n))
	t.Items = st.Dataset.Len()
	t.Errored = err != nil
	t.End()
	return err
}

// Restore reads a snapshot written by Snapshot and rebuilds the live
// stream. The restored stream continues exactly where the snapshotted
// one stopped — same plan, cost model, cached signatures and counters —
// so its queries are byte-identical to the uninterrupted original's.
// Runtime knobs (SetWorkers, SetObs, SetHashMinParallel) are not part
// of the state; re-set them on the returned stream.
func Restore(r io.Reader) (*core.Stream, error) {
	return RestoreWithObs(r, nil)
}

// RestoreWithObs is Restore with an observability sink: the load is
// reported as a StageSnapshot span plus a restore_bytes counter, and
// the sink is attached to the restored stream.
func RestoreWithObs(r io.Reader, sink obs.Sink) (*core.Stream, error) {
	t := obs.StartStage(sink, obs.StageSnapshot)
	st, n, err := readState(r)
	obs.Count(sink, obs.CtrRestoreBytes, int64(n))
	if err != nil {
		t.Errored = true
		t.End()
		return nil, err
	}
	s, err := core.RestoreStream(st)
	if err != nil {
		t.Errored = true
		t.End()
		return nil, err
	}
	s.SetObs(sink)
	t.Items = s.Len()
	t.End()
	return s, nil
}

// WriteState encodes a captured stream state (the codec half of
// Snapshot, without the obs reporting — golden-fixture tests pin its
// output bytes).
func WriteState(w io.Writer, st *core.StreamState) error {
	_, err := writeState(w, st)
	return err
}

// ReadState decodes a snapshot into a stream state without rebuilding
// the live stream (the codec half of Restore).
func ReadState(r io.Reader) (*core.StreamState, error) {
	st, _, err := readState(r)
	return st, err
}

// ---------------------------------------------------------------- write

// writer tracks the byte count and running CRC of everything written.
type writer struct {
	w   io.Writer
	n   uint64
	crc uint32
	err error
	buf [8]byte
}

func (w *writer) write(p []byte) {
	if w.err != nil {
		return
	}
	n, err := w.w.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	w.crc = crc32.Update(w.crc, crc32.IEEETable, p[:n])
	w.n += uint64(n)
	w.err = err
}

func (w *writer) u8(v uint8) {
	w.buf[0] = v
	w.write(w.buf[:1])
}

func (w *writer) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

func (w *writer) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

func (w *writer) i64(v int64) { w.u64(uint64(v)) }

func (w *writer) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.write([]byte(s))
}

// chunkWords is the element count of the scratch buffer bulk-array
// encoding runs through (64 KiB of bytes).
const chunkWords = 8192

func (w *writer) u64s(vals []uint64) {
	var buf [8 * chunkWords]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > chunkWords {
			n = chunkWords
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint64(buf[8*i:], vals[i])
		}
		w.write(buf[: 8*n : 8*n])
		vals = vals[n:]
	}
}

func (w *writer) u32s(vals []int32) {
	var buf [4 * chunkWords]byte
	for len(vals) > 0 {
		n := len(vals)
		if n > chunkWords {
			n = chunkWords
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], uint32(vals[i]))
		}
		w.write(buf[: 4*n : 4*n])
		vals = vals[n:]
	}
}

// section writes one tagged, length-prefixed section.
func (w *writer) section(tag uint8, payload []byte) {
	w.u8(tag)
	w.u64(uint64(len(payload)))
	w.write(payload)
}

func writeState(dst io.Writer, st *core.StreamState) (int64, error) {
	if st == nil || st.Dataset == nil {
		return 0, fmt.Errorf("snapio: nil stream state")
	}
	if st.Cache != nil && st.Plan == nil {
		return 0, fmt.Errorf("snapio: stream state has a cache but no plan")
	}
	ruleSpec, err := rulespec.Format(st.Rule)
	if err != nil {
		return 0, fmt.Errorf("snapio: %w", err)
	}
	w := &writer{w: dst}
	w.write([]byte(magic))
	w.u32(formatVersion)

	var buf bytes.Buffer
	bw := &writer{w: &buf}
	encodeMeta(bw, st, ruleSpec)
	if bw.err != nil {
		return int64(w.n), bw.err
	}
	w.section(secMeta, buf.Bytes())

	buf.Reset()
	bw = &writer{w: &buf}
	encodeDataset(bw, st.Dataset)
	if bw.err != nil {
		return int64(w.n), bw.err
	}
	w.section(secDataset, buf.Bytes())

	if st.Plan != nil {
		buf.Reset()
		if err := planio.Write(&buf, st.Plan); err != nil {
			return int64(w.n), fmt.Errorf("snapio: plan section: %w", err)
		}
		w.section(secPlan, buf.Bytes())
	}
	if st.Cache != nil {
		buf.Reset()
		bw = &writer{w: &buf}
		encodeCache(bw, st.Cache)
		if bw.err != nil {
			return int64(w.n), bw.err
		}
		w.section(secCache, buf.Bytes())
	}

	// Footer: the checksum covers everything through the footer's own
	// tag and length, then the body byte count and CRC follow raw.
	body := w.n
	w.u8(secFooter)
	w.u64(12)
	crc := w.crc
	w.u64(body + 9) // the tag and length field are part of the body count
	w.u32(crc)
	if w.err != nil {
		return int64(w.n), fmt.Errorf("snapio: writing snapshot: %w", w.err)
	}
	return int64(w.n), nil
}

func encodeMeta(w *writer, st *core.StreamState, ruleSpec string) {
	w.str(ruleSpec)
	cfg := st.Config
	w.i64(int64(cfg.InitialBudget))
	w.u8(uint8(cfg.Mode))
	w.i64(int64(cfg.Factor))
	w.i64(int64(cfg.Step))
	w.i64(int64(cfg.Levels))
	w.f64(cfg.Epsilon)
	w.u64(cfg.Seed)
	w.bool(cfg.AllowRemainder)
	w.f64(st.ReplanGrowth)
	w.i64(int64(st.PlannedAt))
	w.i64(int64(st.Replans))
	w.i64(int64(st.QueryK))
	w.i64(int64(st.QueryKhat))
	w.i64(int64(st.QueryProbes))
	w.i64(int64(st.QueryRefresh))
	w.u8(0)       // v1 filler: the retired cache-layout byte (see skipLayout)
	w.bool(false) // v1 filler: the retired map-tables flag
	w.bool(st.Plan != nil)
	w.bool(st.Cache != nil)
}

func encodeDataset(w *writer, ds *record.Dataset) {
	w.str(ds.Name)
	w.u64(uint64(ds.Len()))
	for i := range ds.Records {
		truth := int64(-1)
		if i < len(ds.Truth) {
			truth = int64(ds.Truth[i])
		}
		w.i64(truth)
		r := &ds.Records[i]
		w.u32(uint32(len(r.Fields)))
		for _, f := range r.Fields {
			switch f := f.(type) {
			case record.Vector:
				w.u8(uint8(record.VectorKind))
				w.u32(uint32(len(f)))
				for _, v := range f {
					w.f64(v)
				}
			case record.Set:
				w.u8(uint8(record.SetKind))
				w.u32(uint32(len(f)))
				w.u64s(f)
			case record.Bits:
				w.u8(uint8(record.BitsKind))
				w.u32(uint32(f.Width))
				w.u32(uint32(len(f.Words)))
				w.u64s(f.Words)
			default:
				w.err = fmt.Errorf("snapio: record %d has unsupported field kind %T", i, f)
				return
			}
		}
	}
}

func encodeCache(w *writer, st *core.CacheState) {
	w.u8(0) // v1 filler: the retired cache-layout byte (see skipLayout)
	w.u32(uint32(len(st.Evals)))
	for _, e := range st.Evals {
		w.i64(e)
	}
	w.i64(st.Hits)
	w.i64(st.Misses)
	for h := range st.Evals {
		var lens []int32
		var vals []uint64
		if h < len(st.Lens) {
			lens = st.Lens[h]
		}
		if h < len(st.Vals) {
			vals = st.Vals[h]
		}
		w.u64(uint64(len(lens)))
		w.u32s(lens)
		w.u64(uint64(len(vals)))
		w.u64s(vals)
	}
}

// ----------------------------------------------------------------- read

// reader tracks the byte count and running CRC of everything read.
type reader struct {
	r   *bufio.Reader
	n   uint64
	crc uint32
	buf [8]byte
}

func (r *reader) read(p []byte) error {
	n, err := io.ReadFull(r.r, p)
	r.crc = crc32.Update(r.crc, crc32.IEEETable, p[:n])
	r.n += uint64(n)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("snapio: truncated snapshot: %w", err)
	}
	return err
}

func (r *reader) u8() (uint8, error) {
	if err := r.read(r.buf[:1]); err != nil {
		return 0, err
	}
	return r.buf[0], nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.read(r.buf[:4]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(r.buf[:4]), nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.read(r.buf[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(r.buf[:8]), nil
}

func (r *reader) i64() (int64, error) {
	v, err := r.u64()
	return int64(v), err
}

func (r *reader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *reader) bool() (bool, error) {
	v, err := r.u8()
	if err != nil {
		return false, err
	}
	if v > 1 {
		return false, fmt.Errorf("snapio: bad boolean byte %d", v)
	}
	return v == 1, nil
}

func (r *reader) str(what string) (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if n > maxSaneString {
		return "", fmt.Errorf("snapio: %s length %d exceeds sanity cap %d", what, n, maxSaneString)
	}
	buf := make([]byte, n)
	if err := r.read(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// count reads a count field and bounds it: length fields are never
// trusted with an allocation larger than the cap.
func (r *reader) count(bits int, cap uint64, what string) (int, error) {
	var v uint64
	var err error
	if bits == 32 {
		var v32 uint32
		v32, err = r.u32()
		v = uint64(v32)
	} else {
		v, err = r.u64()
	}
	if err != nil {
		return 0, err
	}
	if v > cap {
		return 0, fmt.Errorf("snapio: %s count %d exceeds sanity cap %d (corrupt snapshot?)", what, v, cap)
	}
	return int(v), nil
}

// u64s reads n words in bounded chunks: a lying count cannot commit
// more memory than the bytes actually present plus one chunk.
func (r *reader) u64s(n int) ([]uint64, error) {
	first := n
	if first > chunkWords {
		first = chunkWords
	}
	out := make([]uint64, 0, first)
	var buf [8 * chunkWords]byte
	for len(out) < n {
		c := n - len(out)
		if c > chunkWords {
			c = chunkWords
		}
		if err := r.read(buf[:8*c]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return out, nil
}

// u32s is u64s for 32-bit lanes, returning int32s (prefix lengths).
func (r *reader) u32s(n int) ([]int32, error) {
	first := n
	if first > chunkWords {
		first = chunkWords
	}
	out := make([]int32, 0, first)
	var buf [4 * chunkWords]byte
	for len(out) < n {
		c := n - len(out)
		if c > chunkWords {
			c = chunkWords
		}
		if err := r.read(buf[:4*c]); err != nil {
			return nil, err
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return out, nil
}

func readState(src io.Reader) (*core.StreamState, int64, error) {
	r := &reader{r: bufio.NewReader(src)}
	head := make([]byte, len(magic))
	if err := r.read(head); err != nil {
		return nil, int64(r.n), err
	}
	if string(head) != magic {
		return nil, int64(r.n), fmt.Errorf("snapio: not a snapshot file (bad magic %q)", head)
	}
	version, err := r.u32()
	if err != nil {
		return nil, int64(r.n), err
	}
	if version != formatVersion {
		return nil, int64(r.n), fmt.Errorf("snapio: snapshot format version %d, this build reads %d", version, formatVersion)
	}

	st := &core.StreamState{}
	var hasPlan, hasCache bool
	seen := make(map[uint8]bool)
	// Each section appears at most once; plan/cache sections are only
	// legal after the meta section announced them; the footer ends the
	// snapshot and must find meta and dataset present.
	for {
		tag, err := r.u8()
		if err != nil {
			return nil, int64(r.n), fmt.Errorf("snapio: truncated snapshot (missing footer): %w", err)
		}
		length, err := r.u64()
		if err != nil {
			return nil, int64(r.n), err
		}
		if tag == secFooter {
			if !seen[secMeta] || !seen[secDataset] {
				return nil, int64(r.n), fmt.Errorf("snapio: snapshot missing required sections")
			}
			if length != 12 {
				return nil, int64(r.n), fmt.Errorf("snapio: footer length %d, want 12", length)
			}
			// The body count and CRC cover everything through the footer
			// tag and length field; the footer payload itself is read raw.
			wantBody := r.n
			wantCRC := r.crc
			body, err := r.u64()
			if err != nil {
				return nil, int64(r.n), err
			}
			crc, err := r.u32()
			if err != nil {
				return nil, int64(r.n), err
			}
			if body != wantBody {
				return nil, int64(r.n), fmt.Errorf("snapio: snapshot body is %d bytes, footer says %d (truncated or corrupt)", wantBody, body)
			}
			if crc != wantCRC {
				return nil, int64(r.n), fmt.Errorf("snapio: snapshot checksum %08x does not match footer %08x (corrupt)", wantCRC, crc)
			}
			break
		}
		if seen[tag] {
			return nil, int64(r.n), fmt.Errorf("snapio: duplicate section %d", tag)
		}
		seen[tag] = true
		payloadStart := r.n
		switch tag {
		case secMeta:
			hasPlan, hasCache, err = decodeMeta(r, st)
		case secDataset:
			err = decodeDataset(r, st)
		case secPlan:
			if !seen[secMeta] || !hasPlan {
				return nil, int64(r.n), fmt.Errorf("snapio: unexpected plan section")
			}
			err = decodePlan(r, st, length)
		case secCache:
			if !seen[secMeta] || !hasCache {
				return nil, int64(r.n), fmt.Errorf("snapio: unexpected cache section")
			}
			err = decodeCache(r, st)
		default:
			return nil, int64(r.n), fmt.Errorf("snapio: unknown section tag %d", tag)
		}
		if err != nil {
			return nil, int64(r.n), err
		}
		if consumed := r.n - payloadStart; consumed != length {
			return nil, int64(r.n), fmt.Errorf("snapio: section %d decoded %d bytes, header declared %d (corrupt)", tag, consumed, length)
		}
	}
	if hasPlan && st.Plan == nil {
		return nil, int64(r.n), fmt.Errorf("snapio: snapshot promises a plan section but has none")
	}
	if hasCache && st.Cache == nil {
		return nil, int64(r.n), fmt.Errorf("snapio: snapshot promises a cache section but has none")
	}
	return st, int64(r.n), nil
}

func decodeMeta(r *reader, st *core.StreamState) (hasPlan, hasCache bool, err error) {
	spec, err := r.str("rule")
	if err != nil {
		return false, false, err
	}
	if st.Rule, err = rulespec.Parse(spec); err != nil {
		return false, false, fmt.Errorf("snapio: snapshot rule: %w", err)
	}
	var cfg core.SequenceConfig
	var v int64
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	cfg.InitialBudget = int(v)
	mode, err := r.u8()
	if err != nil {
		return false, false, err
	}
	if mode > uint8(core.Linear) {
		return false, false, fmt.Errorf("snapio: unknown budget mode %d", mode)
	}
	cfg.Mode = core.BudgetMode(mode)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	cfg.Factor = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	cfg.Step = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	cfg.Levels = int(v)
	if cfg.Epsilon, err = r.f64(); err != nil {
		return false, false, err
	}
	if cfg.Seed, err = r.u64(); err != nil {
		return false, false, err
	}
	if cfg.AllowRemainder, err = r.bool(); err != nil {
		return false, false, err
	}
	st.Config = cfg
	if st.ReplanGrowth, err = r.f64(); err != nil {
		return false, false, err
	}
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	st.PlannedAt = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	st.Replans = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	st.QueryK = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	st.QueryKhat = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	st.QueryProbes = int(v)
	if v, err = r.i64(); err != nil {
		return false, false, err
	}
	st.QueryRefresh = int(v)
	// v1 filler: the retired cache-layout byte and map-tables flag,
	// validated and ignored.
	if err := skipLayout(r); err != nil {
		return false, false, err
	}
	if _, err := r.bool(); err != nil {
		return false, false, err
	}
	if hasPlan, err = r.bool(); err != nil {
		return false, false, err
	}
	if hasCache, err = r.bool(); err != nil {
		return false, false, err
	}
	if hasCache && !hasPlan {
		return false, false, fmt.Errorf("snapio: snapshot has a cache but no plan")
	}
	return hasPlan, hasCache, nil
}

func decodeDataset(r *reader, st *core.StreamState) error {
	name, err := r.str("dataset name")
	if err != nil {
		return err
	}
	numRecords, err := r.count(64, maxSaneRecords, "record")
	if err != nil {
		return err
	}
	ds := &record.Dataset{Name: name}
	for i := 0; i < numRecords; i++ {
		truth, err := r.i64()
		if err != nil {
			return err
		}
		if truth < -1 || truth > maxSaneRecords {
			return fmt.Errorf("snapio: record %d has ground-truth entity %d out of range", i, truth)
		}
		numFields, err := r.count(32, maxSaneFields, "field")
		if err != nil {
			return err
		}
		fields := make([]record.Field, 0, numFields)
		for f := 0; f < numFields; f++ {
			kind, err := r.u8()
			if err != nil {
				return err
			}
			switch record.FieldKind(kind) {
			case record.VectorKind:
				n, err := r.count(32, maxSaneFieldLen, "vector element")
				if err != nil {
					return err
				}
				words, err := r.u64s(n)
				if err != nil {
					return err
				}
				vec := make(record.Vector, n)
				for j, w := range words {
					vec[j] = math.Float64frombits(w)
				}
				fields = append(fields, vec)
			case record.SetKind:
				n, err := r.count(32, maxSaneFieldLen, "set element")
				if err != nil {
					return err
				}
				elems, err := r.u64s(n)
				if err != nil {
					return err
				}
				for j := 1; j < len(elems); j++ {
					if elems[j] <= elems[j-1] {
						return fmt.Errorf("snapio: record %d field %d set not sorted-unique", i, f)
					}
				}
				fields = append(fields, record.Set(elems))
			case record.BitsKind:
				width, err := r.count(32, maxSaneFieldLen, "bits width")
				if err != nil {
					return err
				}
				nw, err := r.count(32, maxSaneFieldLen, "bits word")
				if err != nil {
					return err
				}
				if width < 1 || nw != (width+63)/64 {
					return fmt.Errorf("snapio: record %d field %d bits width %d does not match %d words", i, f, width, nw)
				}
				words, err := r.u64s(nw)
				if err != nil {
					return err
				}
				fields = append(fields, record.Bits{Words: words, Width: width})
			default:
				return fmt.Errorf("snapio: record %d field %d has unknown kind %d", i, f, kind)
			}
		}
		ds.Add(int(truth), fields...)
	}
	if err := ds.Validate(); err != nil {
		return fmt.Errorf("snapio: snapshot dataset: %w", err)
	}
	st.Dataset = ds
	return nil
}

func decodePlan(r *reader, st *core.StreamState, length uint64) error {
	if length > maxSanePlanJSON {
		return fmt.Errorf("snapio: plan section is %d bytes, sanity cap is %d", length, maxSanePlanJSON)
	}
	// Chunked read: a lying length fails at the truncation point having
	// committed at most one extra chunk.
	payload := make([]byte, 0, min(int(length), 8*chunkWords))
	var buf [8 * chunkWords]byte
	for uint64(len(payload)) < length {
		c := length - uint64(len(payload))
		if c > uint64(len(buf)) {
			c = uint64(len(buf))
		}
		if err := r.read(buf[:c]); err != nil {
			return err
		}
		payload = append(payload, buf[:c]...)
	}
	plan, err := planio.Read(bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("snapio: plan section: %w", err)
	}
	st.Plan = plan
	return nil
}

// skipLayout reads one v1 filler byte that once selected the signature
// cache's layout (0 arena, 1 the deleted per-record slices).
// Checkpoints written under either layout restore onto the arena
// cache, so both values are accepted and ignored; anything else is a
// corrupt snapshot.
func skipLayout(r *reader) error {
	layout, err := r.u8()
	if err != nil {
		return err
	}
	if layout > 1 {
		return fmt.Errorf("snapio: unknown cache layout %d", layout)
	}
	return nil
}

func decodeCache(r *reader, st *core.StreamState) error {
	if err := skipLayout(r); err != nil {
		return err
	}
	numHashers, err := r.count(32, maxSaneHashers, "hasher")
	if err != nil {
		return err
	}
	cs := &core.CacheState{
		Evals: make([]int64, numHashers),
		Lens:  make([][]int32, numHashers),
		Vals:  make([][]uint64, numHashers),
	}
	for h := range cs.Evals {
		if cs.Evals[h], err = r.i64(); err != nil {
			return err
		}
	}
	if cs.Hits, err = r.i64(); err != nil {
		return err
	}
	if cs.Misses, err = r.i64(); err != nil {
		return err
	}
	for h := 0; h < numHashers; h++ {
		rows, err := r.count(64, maxSaneRecords, "cache row")
		if err != nil {
			return err
		}
		lens, err := r.u32s(rows)
		if err != nil {
			return err
		}
		var total int64
		for rec, n := range lens {
			if n < 0 || n > maxSanePrefix {
				return fmt.Errorf("snapio: cache prefix length %d (hasher %d, record %d) out of range", n, h, rec)
			}
			total += int64(n)
		}
		valsLen, err := r.count(64, maxSaneRecords*8, "cache value")
		if err != nil {
			return err
		}
		if int64(valsLen) != total {
			return fmt.Errorf("snapio: cache hasher %d declares %d values, prefix lengths sum to %d", h, valsLen, total)
		}
		vals, err := r.u64s(valsLen)
		if err != nil {
			return err
		}
		cs.Lens[h] = lens
		cs.Vals[h] = vals
	}
	st.Cache = cs
	return nil
}
