package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/topk-er/adalsh/internal/core"
	"github.com/topk-er/adalsh/internal/datasets"
	"github.com/topk-er/adalsh/internal/distance"
	"github.com/topk-er/adalsh/internal/lshfamily"
	"github.com/topk-er/adalsh/internal/record"
	"github.com/topk-er/adalsh/internal/xhash"
)

// designGoldenLevel pins one H_i of a designed plan. The tables are
// pinned through a digest: the full matrix's tables run to megabytes.
type designGoldenLevel struct {
	Label          string `json:"label"`
	Budget         int    `json:"budget"`
	FuncsPerHasher []int  `json:"funcs_per_hasher"`
	Tables         int    `json:"tables"`
	TablesSHA256   string `json:"tables_sha256"`
}

// designGoldenCase pins one (rule shape, config) design: the hasher
// descriptors with their seeds and every level, or the error text. The
// wall-clock cost model is left out.
type designGoldenCase struct {
	Name    string              `json:"name"`
	Error   string              `json:"error,omitempty"`
	Hashers []lshfamily.Desc    `json:"hashers,omitempty"`
	Levels  []designGoldenLevel `json:"levels,omitempty"`
}

// designGoldenDataset has one field of every kind the designer sizes a
// family for: sets (0, 3, 4), vectors (1) and fingerprints (2).
func designGoldenDataset() *record.Dataset {
	ds := &record.Dataset{Name: "design-golden"}
	rng := xhash.NewRNG(0xde51)
	for i := 0; i < 24; i++ {
		sets := make([]record.Field, 3)
		for s := range sets {
			elems := make([]uint64, 12)
			for e := range elems {
				elems[e] = uint64(i%4)<<32 | uint64(rng.Intn(40))
			}
			sets[s] = record.NewSet(elems)
		}
		vec := make(record.Vector, 5)
		for d := range vec {
			vec[d] = float64(i%4) + rng.Float64()
		}
		ds.Add(i%4, sets[0], vec, record.NewBits([]uint64{rng.Uint64()}, 64), sets[1], sets[2])
	}
	return ds
}

// designGoldenShape is one rule; cora designs it on the Cora builder
// instead of designGoldenDataset.
type designGoldenShape struct {
	name string
	cora bool
	rule distance.Rule
}

// designGoldenShapes lists every rule shape the designer accepts: one
// Threshold per hashing family, a WeightedAverage, and flat And/Or
// compounds of two, three and four leaves.
func designGoldenShapes() []designGoldenShape {
	jac := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.5}
	jac3 := distance.Threshold{Field: 3, Metric: distance.Jaccard{}, MaxDistance: 0.6}
	jac4 := distance.Threshold{Field: 4, Metric: distance.Jaccard{}, MaxDistance: 0.4}
	cos := distance.Threshold{Field: 1, Metric: distance.Cosine{}, MaxDistance: 0.1}
	ham := distance.Threshold{Field: 2, Metric: distance.Hamming{}, MaxDistance: 0.2}
	wavg := distance.WeightedAverage{
		Fields:  []int{0, 1},
		Metrics: []distance.Metric{distance.Jaccard{}, distance.Cosine{}},
		Weights: []float64{0.6, 0.4}, MaxDistance: 0.4,
	}
	// Two loose thresholds no split of a small budget satisfies, so OR's
	// exact program fails and the even-split fallback designs the level.
	loose0 := distance.Threshold{Field: 0, Metric: distance.Jaccard{}, MaxDistance: 0.9}
	loose3 := distance.Threshold{Field: 3, Metric: distance.Jaccard{}, MaxDistance: 0.85}
	return []designGoldenShape{
		{"jaccard", false, jac},
		{"jaccard-oph", false, distance.Threshold{Field: 0, Metric: distance.Jaccard{OPH: true}, MaxDistance: 0.5}},
		{"cosine", false, cos},
		{"euclidean", false, distance.Threshold{Field: 1, Metric: distance.Euclidean{Scale: 4}, MaxDistance: 0.3}},
		{"hamming", false, ham},
		{"wavg", false, wavg},
		{"and2", false, distance.And{jac, cos}},
		{"and2-wavg", false, distance.And{wavg, jac3}},
		{"or2", false, distance.Or{jac, cos}},
		{"or2-fallback", false, distance.Or{loose0, loose3}},
		{"cora", true, datasets.CoraRule()},
		{"and3", false, distance.And{jac, jac3, jac4}},
		{"or3", false, distance.Or{jac, jac3, jac4}},
		{"and4", false, distance.And{jac, jac3, jac4, ham}},
		{"or4", false, distance.Or{jac, jac3, jac4, cos}},
	}
}

// designGoldenConfigs covers the default sequence, a short one, linear
// growth, remainder tables over non-divisor budgets (whose budget 7 is
// too small for a four-leaf OR), LSH-X's one level, and a non-default
// factor and epsilon.
func designGoldenConfigs() []struct {
	name string
	cfg  core.SequenceConfig
} {
	return []struct {
		name string
		cfg  core.SequenceConfig
	}{
		{"default", core.SequenceConfig{}},
		{"levels3", core.SequenceConfig{Levels: 3, Seed: 2}},
		{"linear", core.SequenceConfig{InitialBudget: 320, Mode: core.Linear, Levels: 4, Seed: 5}},
		{"remainder", core.SequenceConfig{InitialBudget: 7, AllowRemainder: true, Levels: 5, Seed: 3}},
		{"lshx", core.SequenceConfig{InitialBudget: 1280, Levels: 1, Seed: 11}},
		{"factor-eps", core.SequenceConfig{Factor: 3, Epsilon: 0.01, Levels: 5, Seed: 13}},
	}
}

// tablesDigest hashes a level's table layout: per table its part count,
// then each part's hasher, start and count.
func tablesDigest(tables []core.Table) string {
	h := sha256.New()
	var buf []byte
	for _, t := range tables {
		buf = binary.AppendUvarint(buf[:0], uint64(len(t.Parts)))
		for _, p := range t.Parts {
			buf = binary.AppendUvarint(buf, uint64(p.Hasher))
			buf = binary.AppendUvarint(buf, uint64(p.Start))
			buf = binary.AppendUvarint(buf, uint64(p.Count))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func designGoldenMatrix(t *testing.T) []designGoldenCase {
	t.Helper()
	ds := designGoldenDataset()
	cora := datasets.CoraDataset(1, 42)
	var out []designGoldenCase
	for _, sh := range designGoldenShapes() {
		data := ds
		if sh.cora {
			data = cora
		}
		for _, c := range designGoldenConfigs() {
			gc := designGoldenCase{Name: sh.name + "/" + c.name}
			plan, err := core.DesignPlan(data, sh.rule, c.cfg)
			if err != nil {
				gc.Error = err.Error()
				out = append(out, gc)
				continue
			}
			gc.Hashers = plan.HasherDescs
			for h, hasher := range plan.Hashers {
				if hasher.MaxFunctions() != plan.HasherDescs[h].MaxFuncs {
					t.Errorf("%s: hasher %d built with %d functions, its descriptor says %d",
						gc.Name, h, hasher.MaxFunctions(), plan.HasherDescs[h].MaxFuncs)
				}
			}
			for _, hf := range plan.Funcs {
				gc.Levels = append(gc.Levels, designGoldenLevel{
					Label: hf.Label, Budget: hf.Budget, FuncsPerHasher: hf.FuncsPerHasher,
					Tables: len(hf.Tables), TablesSHA256: tablesDigest(hf.Tables),
				})
			}
			out = append(out, gc)
		}
	}
	return out
}

// TestDesignPlanGolden pins DesignPlan's output for every rule shape
// under every sequence config: hasher descriptors and seeds, and per
// level the label, budget, prefixes and table layout. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestDesignPlanGolden — but only for an
// intended change of plans, since every counter a run reports follows
// from them.
func TestDesignPlanGolden(t *testing.T) {
	got := designGoldenMatrix(t)
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')
	golden := filepath.Join("testdata", "design_v1.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if bytes.Equal(enc, raw) {
		return
	}
	var want []designGoldenCase
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("matrix has %d cases, fixture %d", len(got), len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s drifted from the fixture:\n got  %s\n want %s", got[i].Name, g, w)
		}
	}
	if !t.Failed() {
		t.Fatal("encoding drifted from the fixture with every case equal")
	}
}
