package classifier

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// randExamples builds a training set over nLabels classes with random sparse
// features up to width dim.
func randExamples(rng *rand.Rand, n, nLabels, dim int) []Example {
	out := make([]Example, 0, n)
	for i := 0; i < n; i++ {
		class := i % nLabels
		f := textproc.Vector{class: 1.0}
		for j := 0; j < 1+rng.Intn(4); j++ {
			f[rng.Intn(dim)] = rng.NormFloat64()
		}
		out = append(out, Example{Features: f.Sparse(), Label: fmt.Sprintf("label%02d", class)})
	}
	return out
}

// randFeatures builds scoring inputs, deliberately including empty vectors
// and indexes beyond the trained width.
func randFeatures(rng *rand.Rand, n, dim int) []textproc.Sparse {
	out := make([]textproc.Sparse, 0, n)
	for i := 0; i < n; i++ {
		f := textproc.Vector{}
		for j, nnz := 0, rng.Intn(6); j < nnz; j++ {
			f[rng.Intn(2*dim)] = rng.NormFloat64() // half out of range
		}
		out = append(out, f.Sparse())
	}
	return out
}

// TestAnalyzeBatchMatchesSequential is the property test pinning the batch
// scorer bit-identical to N sequential Analyze calls, across random models,
// feature vectors, and top-k values (including k=0, k>numLabels, batches
// larger than the BatchRows block, untrained models, and empty input).
// The label widths cover models narrower than one scoring block, exact
// multiples of it and widths with a tail.
func TestAnalyzeBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial, nLabels := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 20} {
		dim := 4 + rng.Intn(24)
		c := New(Config{Seed: int64(trial), Epochs: 3})
		if err := c.Train(randExamples(rng, 10*nLabels, nLabels, dim)); err != nil {
			t.Fatal(err)
		}
		// Sizes straddle the BatchRows block boundary.
		for _, n := range []int{0, 1, 7, BatchRows, BatchRows + 1, 3 * BatchRows} {
			fs := randFeatures(rng, n, dim)
			for _, k := range []int{0, 1, 3, nLabels, nLabels + 5} {
				gotP, gotE := c.AnalyzeBatch(fs, k)
				if len(gotP) != n || len(gotE) != n {
					t.Fatalf("trial %d n=%d k=%d: batch lengths %d/%d", trial, n, k, len(gotP), len(gotE))
				}
				for i, f := range fs {
					wantP, wantE := c.Analyze(f, k)
					if gotE[i] != wantE {
						t.Fatalf("trial %d n=%d k=%d row %d: entropy %v != %v", trial, n, k, i, gotE[i], wantE)
					}
					if !reflect.DeepEqual(gotP[i], wantP) {
						t.Fatalf("trial %d n=%d k=%d row %d: preds %v != %v", trial, n, k, i, gotP[i], wantP)
					}
				}
			}
		}
	}
}

func TestAnalyzeBatchUntrained(t *testing.T) {
	c := New(Config{})
	fs := randFeatures(rand.New(rand.NewSource(1)), 5, 8)
	preds, ents := c.AnalyzeBatch(fs, 3)
	if len(preds) != 5 || len(ents) != 5 {
		t.Fatalf("lengths %d/%d", len(preds), len(ents))
	}
	for i := range fs {
		if preds[i] != nil || ents[i] != 1 {
			t.Errorf("row %d: untrained batch should be (nil, 1), got (%v, %v)", i, preds[i], ents[i])
		}
	}
}

// TestAnalyzeBatchRowsIndependent checks the arena subslices are isolated:
// appending to one row's predictions must not clobber a neighbour.
func TestAnalyzeBatchRowsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := New(Config{Seed: 3, Epochs: 3})
	if err := c.Train(randExamples(rng, 40, 4, 12)); err != nil {
		t.Fatal(err)
	}
	fs := randFeatures(rng, 6, 12)
	preds, _ := c.AnalyzeBatch(fs, 2)
	want := make([][]Prediction, len(fs))
	for i, f := range fs {
		want[i], _ = c.Analyze(f, 2)
	}
	for i := range preds {
		preds[i] = append(preds[i], Prediction{Label: "poison", Prob: -1})
	}
	for i := range preds {
		if !reflect.DeepEqual(preds[i][:len(preds[i])-1], want[i]) {
			t.Fatalf("row %d corrupted by append to sibling rows", i)
		}
	}
}
