package nn

import (
	"bytes"
	"encoding/gob"
	"maps"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

const goldenCheckpoint = "testdata/checkpoint_v1.golden"

// goldenParams rebuilds the exact parameter set the golden blob was
// generated from: shapes mirror a small conv+dense pilot head and the
// values come from a fixed RNG stream, so the expected weights can be
// reconstructed bit-for-bit without storing them twice.
func goldenParams() []*Param {
	rng := rand.New(rand.NewSource(90125))
	ps := []*Param{
		newParam("conv.w", 4, 1, 3, 3),
		newParam("conv.b", 4),
		newParam("dense.w", 36, 2),
		newParam("dense.b", 1, 2),
	}
	for _, p := range ps {
		p.W.RandNormal(rng, 0.5)
	}
	return ps
}

var goldenMeta = map[string]string{
	"arch":    "linear",
	"inputs":  "1x15x15",
	"outputs": "2",
}

// TestGoldenCheckpointRoundTrip decodes the checked-in checkpoint blob
// and verifies every weight bit-for-bit against the regenerated
// originals, pinning the on-disk format: any change to the gob schema,
// magic string or float encoding fails here against a blob produced by
// the old code. Set NN_REGEN_GOLDEN=1 to rewrite the blob after an
// intentional format change.
//
// The fresh save is deliberately NOT byte-compared to the golden file:
// gob serializes maps in randomized key order, so two encodings of the
// same checkpoint legally differ in bytes while decoding identically.
// The contract tested is decode equality, not byte equality.
func TestGoldenCheckpointRoundTrip(t *testing.T) {
	if os.Getenv("NN_REGEN_GOLDEN") != "" {
		var buf bytes.Buffer
		if err := SaveParams(&buf, goldenParams(), goldenMeta); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenCheckpoint), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCheckpoint, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", goldenCheckpoint, buf.Len())
	}

	blob, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		t.Fatalf("missing golden checkpoint (regenerate with NN_REGEN_GOLDEN=1): %v", err)
	}

	want := goldenParams()
	got := goldenParams()
	for _, p := range got {
		p.W.Zero()
		p.Grad.Fill(1) // must be zeroed by LoadParams
	}
	meta, err := LoadParams(bytes.NewReader(blob), got)
	if err != nil {
		t.Fatalf("decode golden blob: %v", err)
	}
	if len(meta) != len(goldenMeta) {
		t.Fatalf("meta mismatch: got %v want %v", meta, goldenMeta)
	}
	for k, v := range goldenMeta {
		if meta[k] != v {
			t.Errorf("meta[%q] = %q, want %q", k, meta[k], v)
		}
	}
	for i, p := range got {
		for j := range p.W.Data {
			if p.W.Data[j] != want[i].W.Data[j] {
				t.Fatalf("param %d (%s) element %d differs: %v vs %v",
					i, p.Name, j, p.W.Data[j], want[i].W.Data[j])
			}
		}
		if p.Grad.MaxAbs() != 0 {
			t.Errorf("param %d (%s): gradient not zeroed on load", i, p.Name)
		}
	}

	// Round-trip: re-save the loaded params and decode once more.
	var buf bytes.Buffer
	if err := SaveParams(&buf, got, meta); err != nil {
		t.Fatal(err)
	}
	again := goldenParams()
	for _, p := range again {
		p.W.Zero()
	}
	if _, err := LoadParams(&buf, again); err != nil {
		t.Fatalf("decode re-saved checkpoint: %v", err)
	}
	for i := range again {
		for j := range again[i].W.Data {
			if again[i].W.Data[j] != want[i].W.Data[j] {
				t.Fatalf("round-trip changed param %d element %d", i, j)
			}
		}
	}

	// LoadMeta on the same blob sees the same metadata.
	m2, err := LoadMeta(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if m2["arch"] != goldenMeta["arch"] {
		t.Errorf("LoadMeta arch = %q, want %q", m2["arch"], goldenMeta["arch"])
	}
}

// buildSerializeModel constructs the tiny seeded model used by the
// trained round-trip test; two calls with the same seed give identical
// architectures with identical initial weights.
func buildSerializeModel(t *testing.T, seed int64) *Sequential {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	conv, err := NewConv2D(1, 3, 3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	return NewSequential(
		conv, &ReLU{},
		&Flatten{},
		NewDense(3*5*5, 8, rng), &ReLU{},
		NewDense(8, 2, rng), &Tanh{},
	)
}

// TestSaveLoadTrainedModel trains a tiny seeded model, saves it, loads
// the checkpoint into a freshly built model, and asserts bit-identical
// weights and bit-identical inference outputs — the property every
// pilot checkpoint/resume path in the testbed depends on.
func TestSaveLoadTrainedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := NewTensor(24, 1, 11, 11)
	y := NewTensor(24, 2)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 0.5)

	model := buildSerializeModel(t, 17)
	opt, err := NewAdam(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{Epochs: 2, BatchSize: 8, ValFrac: 0.25, Seed: 17, ClipGrad: 5}
	if _, err := Train(model, Dataset{X: x, Y: y}, MSE{}, opt, cfg); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := SaveParams(&buf, model.Params(), map[string]string{"arch": "tiny"}); err != nil {
		t.Fatal(err)
	}

	restored := buildSerializeModel(t, 99) // different seed: weights must come from the blob
	meta, err := LoadParams(&buf, restored.Params())
	if err != nil {
		t.Fatal(err)
	}
	if meta["arch"] != "tiny" {
		t.Fatalf("meta = %v", meta)
	}
	origParams, restParams := model.Params(), restored.Params()
	for i := range origParams {
		for j := range origParams[i].W.Data {
			if origParams[i].W.Data[j] != restParams[i].W.Data[j] {
				t.Fatalf("param %d element %d differs after load", i, j)
			}
		}
	}

	probe := NewTensor(4, 1, 11, 11)
	probe.RandNormal(rng, 1)
	want, err := model.Forward(probe, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Forward(probe, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("inference output %d differs: %v vs %v", i, got.Data[i], want.Data[i])
		}
	}
}

// TestLoadParamsRejects covers the decode error paths: wrong magic,
// param-count mismatch, size mismatch and shape mismatch at equal size.
func TestLoadParamsRejects(t *testing.T) {
	var good bytes.Buffer
	if err := SaveParams(&good, goldenParams(), nil); err != nil {
		t.Fatal(err)
	}

	t.Run("wrong magic", func(t *testing.T) {
		var buf bytes.Buffer
		ps := goldenParams()
		cpySaved := checkpoint{Magic: "not-a-checkpoint"}
		if err := gob.NewEncoder(&buf).Encode(cpySaved); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadParams(&buf, ps); err == nil {
			t.Fatal("wrong magic accepted")
		}
	})
	t.Run("param count", func(t *testing.T) {
		if _, err := LoadParams(bytes.NewReader(good.Bytes()), goldenParams()[:2]); err == nil {
			t.Fatal("param-count mismatch accepted")
		}
	})
	t.Run("param size", func(t *testing.T) {
		ps := goldenParams()
		ps[0] = newParam("conv.w", 2, 2)
		if _, err := LoadParams(bytes.NewReader(good.Bytes()), ps); err == nil {
			t.Fatal("size mismatch accepted")
		}
	})
	t.Run("param shape", func(t *testing.T) {
		// conv.w is saved as [4,1,3,3]: the same 36 elements in another
		// shape are a different architecture, not a compatible one.
		for _, shape := range [][]int{{1, 4, 3, 3}, {36}, {4, 1, 9}} {
			ps := goldenParams()
			ps[0] = newParam("conv.w", shape...)
			if _, err := LoadParams(bytes.NewReader(good.Bytes()), ps); err == nil {
				t.Errorf("shape %v accepted for a checkpoint saved as %v", shape, goldenParams()[0].W.Shape)
			}
		}
	})
	t.Run("garbage stream", func(t *testing.T) {
		if _, err := LoadMeta(bytes.NewReader([]byte("not gob"))); err == nil {
			t.Fatal("garbage accepted")
		}
	})
}

// FuzzLoadParams feeds arbitrary bytes to LoadParams against the golden
// model's parameters. It must never panic, and whatever it accepts must
// round-trip: saving the loaded parameters and metadata and loading them
// again gives the same bits.
func FuzzLoadParams(f *testing.F) {
	blob, err := os.ReadFile(goldenCheckpoint)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	var buf bytes.Buffer
	if err := SaveParams(&buf, goldenParams(), nil); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("not gob"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ps := goldenParams()
		meta, err := LoadParams(bytes.NewReader(data), ps)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveParams(&out, ps, meta); err != nil {
			t.Fatalf("save accepted checkpoint: %v", err)
		}
		again := goldenParams()
		meta2, err := LoadParams(&out, again)
		if err != nil {
			t.Fatalf("reload saved checkpoint: %v", err)
		}
		if !maps.Equal(meta, meta2) {
			t.Fatalf("meta %v reloaded as %v", meta, meta2)
		}
		for i := range ps {
			for j, v := range ps[i].W.Data {
				if math.Float64bits(v) != math.Float64bits(again[i].W.Data[j]) {
					t.Fatalf("param %d element %d: %v reloaded as %v", i, j, v, again[i].W.Data[j])
				}
			}
		}
	})
}
