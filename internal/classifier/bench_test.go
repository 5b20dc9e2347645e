package classifier

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// benchSet builds a training set with the label/feature shape of the
// paper-scale relation classifier: hundreds of labels, sparse features.
func benchSet(nExamples, nLabels, nnz int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, nExamples)
	for i := range out {
		label := rng.Intn(nLabels)
		f := textproc.Vector{label: 1} // separable core signal
		for j := 0; j < nnz; j++ {
			f[nLabels+rng.Intn(2000)] = rng.Float64()
		}
		out[i] = Example{Features: f.Sparse(), Label: fmt.Sprintf("label-%d", label)}
	}
	return out
}

func BenchmarkTrain500x200(b *testing.B) {
	set := benchSet(500, 200, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{Epochs: 5, Seed: 1})
		if err := c.Train(set); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmRetrain500x200 measures the per-batch retrain cost when the
// label vocabulary is stable and Train takes the warm-start path — the
// steady-state cost of Algorithm 1 line 20.
func BenchmarkWarmRetrain500x200(b *testing.B) {
	set := benchSet(500, 200, 40, 1)
	c := New(Config{Epochs: 5, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Train(set); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if !c.WarmStarted() {
		b.Fatal("expected warm-start retrains")
	}
}

// growingSet builds a training set whose prefixes grow the label
// vocabulary the way a document run's labelled set does: prefix
// [0, (b+1)*step) holds labels [0, labelsAt(b)), with every label first
// seen at the head of the step that introduces it, so each longer prefix's
// vocabulary is a strict superset of the previous one's. Labels rise
// linearly from startLabels to endLabels over the n/step prefixes.
func growingSet(n, step, startLabels, endLabels, nnz int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	steps := n / step
	out := make([]Example, 0, n)
	seen := 0
	for b := 0; b < steps; b++ {
		labels := startLabels
		if steps > 1 {
			labels += (endLabels - startLabels) * b / (steps - 1)
		}
		for i := 0; i < step; i++ {
			label := seen
			if seen < labels {
				seen++
			} else {
				label = rng.Intn(labels)
			}
			f := textproc.Vector{label: 1} // separable core signal
			for j := 0; j < nnz; j++ {
				f[endLabels+rng.Intn(2000)] = rng.Float64()
			}
			out = append(out, Example{Features: f.Sparse(), Label: fmt.Sprintf("label-%d", label)})
		}
	}
	return out
}

// BenchmarkGrowingRetrain measures the retrain sequence of one document
// run on the profile's widest model, driven the way the engine's retrain
// barrier drives it: the labelled set grows by 20 examples and a few
// labels per call, from 7 to 91 labels over 400 examples, each call marks
// its 20 examples as new, and every call after the first takes the
// replay-sampled warm path.
func BenchmarkGrowingRetrain(b *testing.B) {
	const step = 20
	set := growingSet(400, step, 7, 91, 40, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(Config{Seed: 1})
		for cut := step; cut <= len(set); cut += step {
			if err := c.TrainSplit(set[:cut], cut-step); err != nil {
				b.Fatal(err)
			}
			if cut > step && !c.WarmStarted() {
				b.Fatalf("retrain at %d examples went cold", cut)
			}
		}
	}
}

func BenchmarkPredictTopK(b *testing.B) {
	set := benchSet(500, 200, 40, 2)
	c := New(Config{Epochs: 5, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	f := set[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.TopK(f, 10)
	}
}

func BenchmarkEntropy(b *testing.B) {
	set := benchSet(300, 100, 40, 3)
	c := New(Config{Epochs: 4, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	f := set[0].Features
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Entropy(f)
	}
}

// documentBatch builds a trained model and a scoring batch at the shape of
// a perfbench document run's widest model at its last barrier: 108 labels,
// 1000 features, 115 nonzeros per claim, 200 claims left to score.
func documentBatch(b *testing.B) (*Classifier, []textproc.Sparse) {
	const nLabels, dim, nnz, nClaims = 108, 1000, 115, 200
	rng := rand.New(rand.NewSource(4))
	vec := func(label int) textproc.Sparse {
		f := textproc.Vector{label: 1}
		for len(f) < nnz {
			f[nLabels+rng.Intn(dim-nLabels)] = rng.Float64()
		}
		return f.Sparse()
	}
	set := make([]Example, 400)
	for i := range set {
		label := i % nLabels
		set[i] = Example{Features: vec(label), Label: fmt.Sprintf("label-%d", label)}
	}
	c := New(Config{Epochs: 2, Seed: 1})
	if err := c.Train(set); err != nil {
		b.Fatal(err)
	}
	fs := make([]textproc.Sparse, nClaims)
	for i := range fs {
		fs[i] = vec(rng.Intn(nLabels))
	}
	return c, fs
}

// BenchmarkAnalyzeBatch measures one model's batch scoring pass of a
// scheduler round (Algorithm 1 line 18) at the document shape, top 10.
func BenchmarkAnalyzeBatch(b *testing.B) {
	c, fs := documentBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AnalyzeBatch(fs, 10)
	}
}
