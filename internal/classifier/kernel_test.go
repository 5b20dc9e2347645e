package classifier

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// scoreIntoReference is the feature-major scoring loop the register-blocked
// scoreInto replaced: bias first, then each in-range nonzero's weight row
// added across all classes. It is the reference the kernel must match bit
// for bit.
func (c *Classifier) scoreIntoReference(f textproc.Sparse, scores []float64) {
	copy(scores, c.bias)
	nL := len(c.labels)
	ix, vals := f.Raw()
	for k, fi := range ix {
		if int(fi) >= c.dim {
			break // indexes are sorted: everything after is out of range too
		}
		x := vals[k]
		row := c.w[int(fi)*nL : int(fi)*nL+nL]
		for j, wv := range row {
			scores[j] += wv * x
		}
	}
}

// randModel builds an untrained-shape model with random weights and biases
// of mixed magnitudes, so any change in a class's order of additions shows
// up in the last bits of its score.
func randModel(rng *rand.Rand, nLabels, dim int) *Classifier {
	c := New(Config{})
	for j := 0; j < nLabels; j++ {
		l := fmt.Sprintf("l%d", j)
		c.labelIdx[l] = j
		c.labels = append(c.labels, l)
	}
	c.dim = dim
	c.w = make([]float64, dim*nLabels)
	for i := range c.w {
		c.w[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
	}
	c.bias = make([]float64, nLabels)
	for i := range c.bias {
		c.bias[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(5)-2))
	}
	return c
}

// TestScoreIntoMatchesReference pins the blocked kernel to the
// feature-major loop bitwise for every label width 1–20 (every block tail
// length, and widths below one block) and for vectors whose indexes reach
// the model's width and beyond it, including vectors that lie entirely out
// of range and empty ones.
func TestScoreIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for nLabels := 1; nLabels <= 20; nLabels++ {
		for _, dim := range []int{1, 7, 40} {
			c := randModel(rng, nLabels, dim)
			var vecs []textproc.Sparse
			for trial := 0; trial < 30; trial++ {
				f := textproc.Vector{}
				for j, nnz := 0, rng.Intn(2*dim+3); j < nnz; j++ {
					f[rng.Intn(dim+4)] = rng.NormFloat64() // indexes up to dim+3
				}
				vecs = append(vecs, f.Sparse())
			}
			vecs = append(vecs,
				textproc.Sparse{},
				textproc.Vector{dim - 1: 2, dim: 3}.Sparse(),
				textproc.Vector{dim: 1, dim + 9: -1}.Sparse(),
			)
			got := make([]float64, nLabels)
			want := make([]float64, nLabels)
			for vi, f := range vecs {
				for i := range got {
					got[i] = math.NaN() // every class must be written
				}
				c.scoreInto(f, got)
				c.scoreIntoReference(f, want)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("labels %d dim %d vector %d class %d: kernel %v (%#x) != reference %v (%#x)",
							nLabels, dim, vi, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}
