// Package classifier implements the four property classifiers of the
// paper's Section 3.1 as multinomial logistic regression (softmax) over the
// sparse feature vectors of package feature, trained with AdaGrad and L2
// regularisation. The classifiers expose exactly the contract Scrutinizer
// needs:
//
//   - top-k label lists with probabilities (answer options, Corollary 2),
//   - full probability distributions (pruning power, Theorem 3),
//   - prediction entropy (training utility, Definition 7),
//   - cheap retraining as crowd labels accumulate (Algorithm 1 line 20),
//   - batch scoring of many claims in one pass (AnalyzeBatch), feeding the
//     engine's generation-scoped batch assessment.
//
// # Representation
//
// Weights live in one dense flat matrix laid out feature-major:
// w[fi*numLabels+class]. Feature vectors are textproc.Sparse (sorted
// slice-backed pairs), so a scoring pass walks the vector's nonzeros and
// reads, per feature, a contiguous run of per-class weights — no hashing,
// no branches. The AdaGrad accumulators share the layout, and
// L2 is applied lazily: only the features present in an example are
// regularised on its update, exactly as the sparse-map implementation did.
// Scoring scratch buffers come from a sync.Pool so concurrent inference
// (the engine fans claim scoring across goroutines) allocates nothing in
// steady state.
//
// # Warm-start retraining
//
// Algorithm 1 retrains after every crowd batch on the accumulated label
// set, which only grows during a run. When a retrain's label vocabulary is
// a superset of the previous fit's, Train reuses the existing weights and
// AdaGrad state and runs only Config.WarmStartEpochs passes: labels new to
// the model are appended after the existing ones, the feature-major
// matrices are re-laid to the wider stride with zero-initialised class
// columns, and they grow in the same step if new feature indexes appeared.
// When a label of the previous fit is absent from the new set, Train falls
// back to a from-scratch fit, so stale classes can never linger.
// Config.ColdStart disables the warm path entirely for callers that need
// scratch-identical models.
//
// A warm pass over the whole set still makes a run's training work grow
// quadratically with its labelled set. TrainSplit lets a caller that knows
// which examples are new since the model's previous fit (the engine's
// retrain barrier knows which claims its batch labelled) say so: a warm
// retrain then visits, per epoch, only the new examples plus a replay
// sample of replayRatio times as many earlier ones, drawn afresh each
// epoch from the same round-seeded stream as the shuffle. Each replayed
// example's gradient is scaled by the number W of earlier examples it
// stands in for, so an epoch's expected gradient is the full pass's and
// the batch does not outweigh the history. The update is not: AdaGrad's
// accumulators take the scaled gradient's square, so on the features
// replay touches they grow up to W times faster than under a full pass,
// shortening every later step there (State keeps them) by up to √W.
// Accumulating the unbiased W·g² instead would keep the full pass's
// accumulators but make each replayed step W times a plain one rather
// than √W; in the growth tests' setting that scored about 8 points lower
// held-out accuracy than the full pass (mean of 20 seeds), against 0.4
// points for the form kept here. A retrain costs O(batch) rather than
// O(labelled set). Newness is never inferred from the model's own
// history: a spawned run's model, copied from its verifier's, or one
// retrained on a different split, has seen examples the caller's set does
// not hold. Cold fits ignore the split and pass over the full set, and
// Train — TrainSplit with nothing split off — is the full-pass retrain
// unchanged.
//
// # Batch scoring
//
// Algorithm 1 re-scores every remaining claim before every batch, and the
// scheduler needs all of them at once. AnalyzeBatch scores N feature
// vectors against the weight matrix in dense row-major blocks — one pooled
// scores matrix per block, softmax+entropy fused into the normalisation
// pass per row, and all top-k prediction lists carved from a single arena
// allocation — producing results bit-identical to N sequential Analyze
// calls (pinned by a property test) at a fraction of the allocations.
// Blocks of BatchRows rows are independent, so a caller may score one
// batch as several calls, one per block, and run them concurrently.
//
// Every linear score — batch scoring, Analyze and training's forward pass
// alike — comes from one register-blocked kernel (scoreInto): it keeps
// eight classes' running sums in registers across a claim's nonzeros
// instead of updating all classes in memory once per nonzero. A class's
// sum is still its bias plus the terms w·x in ascending feature order, one
// `s += w*x` per term, so every score is bit-identical to the
// feature-major loop (pinned against it for every label width 1–20): only
// which classes share a pass over the claim changes, never the order or
// the form of a class's own additions.
//
// This substitutes the scikit-learn models of the authors' Python
// implementation; see the README's "Package map".
package classifier

import (
	"fmt"
	"math"
	"sync"

	"github.com/repro/scrutinizer/internal/textproc"
)

// Config controls training.
type Config struct {
	// Epochs is the number of passes over the training set (default 12).
	Epochs int
	// LearningRate is the AdaGrad base step (default 0.5).
	LearningRate float64
	// L2 is the ridge penalty (default 1e-4).
	L2 float64
	// Seed drives the (deterministic) example shuffling.
	Seed int64
	// WarmStartEpochs is the number of passes a warm-start retrain runs
	// when the new label vocabulary is a superset of the current one and
	// the previous weights are reused (default max(2, Epochs/3)). A pass
	// covers the whole set, or under TrainSplit only the new examples
	// plus a replay sample of earlier ones.
	WarmStartEpochs int
	// ColdStart forces every Train call to refit from scratch, disabling
	// warm-start weight reuse.
	ColdStart bool
}

func (c Config) withDefaults() Config {
	if c.Epochs <= 0 {
		c.Epochs = 12
	}
	if c.LearningRate <= 0 {
		c.LearningRate = 0.5
	}
	if c.L2 < 0 {
		c.L2 = 0
	} else if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.WarmStartEpochs <= 0 {
		c.WarmStartEpochs = c.Epochs / 3
		if c.WarmStartEpochs < 2 {
			c.WarmStartEpochs = 2
		}
	}
	if c.WarmStartEpochs > c.Epochs {
		// A warm retrain must never cost more passes than the
		// from-scratch fit it undercuts, whether the value was derived
		// (tiny Epochs settings) or set explicitly.
		c.WarmStartEpochs = c.Epochs
	}
	return c
}

// Example is one training observation.
type Example struct {
	Features textproc.Sparse
	Label    string
}

// Prediction is a scored label.
type Prediction struct {
	Label string
	Prob  float64
}

// Classifier is a softmax regression model over a growing label vocabulary.
// The zero value is not usable; create with New. Training mutates the
// model; all scoring methods are safe for concurrent use between Train
// calls.
type Classifier struct {
	cfg      Config
	labels   []string
	labelIdx map[string]int
	// dim is the feature-space width: weights exist for indexes [0, dim).
	dim int
	// w is the dense feature-major weight matrix, w[fi*len(labels)+class];
	// gsq is the AdaGrad accumulator with the same shape.
	w    []float64
	gsq  []float64
	bias []float64
	gsqB []float64

	trained int  // examples seen by the last Train call
	rounds  int  // Train invocations (drives the warm-start shuffle stream)
	warm    bool // whether the last Train took the warm-start path

	// scratch pools per-goroutine softmax buffers for the scoring paths.
	scratch sync.Pool
}

// New creates an empty classifier.
func New(cfg Config) *Classifier {
	return &Classifier{
		cfg:      cfg.withDefaults(),
		labelIdx: make(map[string]int),
	}
}

// Clone returns a deep copy of the model: weights, AdaGrad state, label
// vocabulary and the warm-start round counter are all duplicated, so
// training the clone never perturbs the original (and vice versa). The
// clone starts with an empty scratch pool. Clone must not run concurrently
// with Train on the same model; it is safe to run concurrently with the
// scoring methods.
func (c *Classifier) Clone() *Classifier {
	cp := &Classifier{
		cfg:      c.cfg,
		labels:   append([]string(nil), c.labels...),
		labelIdx: make(map[string]int, len(c.labelIdx)),
		dim:      c.dim,
		w:        append([]float64(nil), c.w...),
		gsq:      append([]float64(nil), c.gsq...),
		bias:     append([]float64(nil), c.bias...),
		gsqB:     append([]float64(nil), c.gsqB...),
		trained:  c.trained,
		rounds:   c.rounds,
		warm:     c.warm,
	}
	for l, i := range c.labelIdx {
		cp.labelIdx[l] = i
	}
	return cp
}

// Labels returns the label vocabulary in first-seen order. Callers must not
// mutate the returned slice.
func (c *Classifier) Labels() []string { return c.labels }

// NumLabels returns the vocabulary size.
func (c *Classifier) NumLabels() int { return len(c.labels) }

// TrainedOn returns the size of the training set from the last Train call.
func (c *Classifier) TrainedOn() int { return c.trained }

// WarmStarted reports whether the last Train call reused the previous
// weights (warm start) rather than refitting from scratch.
func (c *Classifier) WarmStarted() bool { return c.warm }

// replayRatio sizes a split warm retrain's replay sample: each epoch
// revisits replayRatio earlier examples per new one (all of them when the
// earlier set is smaller). A smaller sample is cheaper and forgets more:
// at 2 the Table 2 simulation moved beyond its fidelity tolerance at one
// world seed (EXPERIMENTS.md), at 3 it did not.
const replayRatio = 3

// Train fits the model on examples, all of them treated as new: it is
// TrainSplit(examples, 0). When the example set's label vocabulary is a
// superset of the current one (and ColdStart is off), the existing weights
// and AdaGrad state are reused and only WarmStartEpochs passes run — the
// cheap per-batch retrain of Algorithm 1. Labels new to the model are
// appended after the existing ones in first-seen order, with
// zero-initialised weight columns. When any current label is absent from
// the example set, the vocabulary is rebuilt and the model refits from
// scratch over Epochs passes.
func (c *Classifier) Train(examples []Example) error {
	return c.TrainSplit(examples, 0)
}

// TrainSplit is Train for a caller that knows examples[:seen] were
// already in the set of the model's previous fit and examples[seen:] are
// new since. A warm retrain then runs its WarmStartEpochs passes over the
// new examples plus, each epoch, a replay sample of earlier ones
// (replayRatio per new example, capped at seen, each gradient weighted by
// the number of earlier examples it stands in for) instead of the full set;
// with no new examples it leaves the weights as they are. A cold refit
// ignores seen and passes over every example; so does a warm retrain with
// seen == 0, which is exactly Train.
func (c *Classifier) TrainSplit(examples []Example, seen int) error {
	if len(examples) == 0 {
		return fmt.Errorf("classifier: no training examples")
	}
	if seen < 0 || seen > len(examples) {
		return fmt.Errorf("classifier: %d seen of %d examples", seen, len(examples))
	}
	maxIdx := -1
	fresh := make(map[string]bool, len(c.labels)+1)
	for _, ex := range examples {
		if ex.Label == "" {
			return fmt.Errorf("classifier: empty label in training set")
		}
		fresh[ex.Label] = true
		if m := ex.Features.MaxIndex(); m > maxIdx {
			maxIdx = m
		}
	}
	warm := !c.cfg.ColdStart && c.trained > 0 && len(fresh) >= len(c.labels)
	if warm {
		for _, l := range c.labels {
			if !fresh[l] {
				warm = false // a label vanished: stale classes must not linger
				break
			}
		}
	}

	epochs := c.cfg.Epochs
	if warm {
		epochs = c.cfg.WarmStartEpochs
	} else {
		// A cold refit grows an empty model to the new shape, over the
		// full set.
		c.labels, c.labelIdx = nil, make(map[string]int, len(fresh))
		c.dim, c.w, c.gsq, c.bias, c.gsqB = 0, nil, nil, nil, nil
		seen = 0
	}
	oldL := len(c.labels)
	for _, ex := range examples {
		if _, ok := c.labelIdx[ex.Label]; !ok {
			c.labelIdx[ex.Label] = len(c.labels)
			c.labels = append(c.labels, ex.Label)
		}
	}
	width := max(c.dim, maxIdx+1)
	c.w = relayout(c.w, c.dim, oldL, width, len(c.labels))
	c.gsq = relayout(c.gsq, c.dim, oldL, width, len(c.labels))
	c.dim = width
	if grow := len(c.labels) - oldL; grow > 0 {
		c.bias = append(c.bias, make([]float64, grow)...)
		c.gsqB = append(c.gsqB, make([]float64, grow)...)
	}
	// Pooled scratch buffers of an old label width are filtered out by the
	// length check in getScratch and fall to the collector.
	c.trained = len(examples)
	c.warm = warm
	c.rounds++

	nL := len(c.labels)
	scores := make([]float64, nL)
	grads := make([]float64, nL)
	active := make([]int32, 0, nL)

	// order is the epoch's visiting order: the new examples followed by
	// the replay sample, which is empty when nothing is split off.
	nNew := len(examples) - seen
	nReplay := min(replayRatio*nNew, seen)
	order := make([]int, nNew+nReplay)
	for i := 0; i < nNew; i++ {
		order[i] = seen + i
	}
	// A replayed example stands in for seen/nReplay earlier ones: scaling
	// its gradient by that factor makes an epoch's expected gradient (not
	// its update, see the package doc) the full pass's, so the earlier
	// examples keep their weight against the batch's.
	var earlier []int
	var replayWeight float64
	if nReplay > 0 {
		replayWeight = float64(seen) / float64(nReplay)
		earlier = make([]int, seen)
		for i := range earlier {
			earlier[i] = i
		}
	}
	// Deterministic shuffled order via an LCG permutation per epoch; the
	// stream advances with the round counter so warm-started retrains do
	// not replay the previous call's order.
	state := uint64(c.cfg.Seed)*6364136223846793005 + 1442695040888963407 +
		uint64(c.rounds-1)*0x9E3779B97F4A7C15

	for epoch := 0; epoch < epochs; epoch++ {
		if nReplay > 0 {
			// Draw this epoch's replay sample by a partial Fisher-Yates
			// over the earlier examples, then lay out the new ones before
			// it (the previous epoch's shuffle mixed the two).
			for i := 0; i < nReplay; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				j := i + int(state>>33)%(seen-i)
				earlier[i], earlier[j] = earlier[j], earlier[i]
			}
			for i := 0; i < nNew; i++ {
				order[i] = seen + i
			}
			copy(order[nNew:], earlier[:nReplay])
		}
		// Fisher-Yates with the LCG.
		for i := len(order) - 1; i > 0; i-- {
			state = state*6364136223846793005 + 1442695040888963407
			j := int(state>>33) % (i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, idx := range order {
			weight := 1.0
			if idx < seen {
				weight = replayWeight
			}
			active = c.sgdStep(examples[idx], scores, grads, active, weight)
		}
	}
	return nil
}

// relayout returns the feature-major matrix m (oldDim rows of oldL
// values) at the shape newDim × newL, with newDim >= oldDim and
// newL >= oldL: each old row's values keep their class columns and every
// new row and column is zero. m itself is returned when the shape is
// unchanged.
func relayout(m []float64, oldDim, oldL, newDim, newL int) []float64 {
	if newDim == oldDim && newL == oldL {
		return m
	}
	out := make([]float64, newDim*newL)
	for fi := 0; fi < oldDim; fi++ {
		copy(out[fi*newL:fi*newL+oldL], m[fi*oldL:(fi+1)*oldL])
	}
	return out
}

// sgdStep applies one AdaGrad update for a single example whose gradient,
// data and L2 terms alike, counts weight times (1 except for a replayed
// example); the accumulators take the weighted gradient's square. scores,
// grads and active are caller-owned scratch (len == numLabels); the
// possibly regrown active slice is returned for reuse.
func (c *Classifier) sgdStep(ex Example, scores, grads []float64, active []int32, weight float64) []int32 {
	c.scoreInto(ex.Features, scores)
	softmaxInPlace(scores)
	target := c.labelIdx[ex.Label]
	lr := c.cfg.LearningRate
	l2 := c.cfg.L2 * weight

	// Collect the classes with non-negligible gradient: with hundreds of
	// labels almost all softmax probabilities are ~0 and updating them is
	// wasted work (keeps paper-scale retraining in seconds, like the
	// sparse updates of mature learners). Bias updates happen here too.
	active = active[:0]
	for class, p := range scores {
		g := p
		if class == target {
			g--
		}
		if g > -1e-4 && g < 1e-4 {
			continue
		}
		g *= weight
		active = append(active, int32(class))
		grads[class] = g
		gb := g + l2*c.bias[class]
		c.gsqB[class] += gb * gb
		c.bias[class] -= lr * gb / (math.Sqrt(c.gsqB[class]) + 1e-8)
	}

	nL := len(c.labels)
	ix, vals := ex.Features.Raw()
	for k, fi := range ix {
		x := vals[k]
		base := int(fi) * nL
		wrow := c.w[base : base+nL]
		grow := c.gsq[base : base+nL]
		for _, cls := range active {
			grad := grads[cls]*x + l2*wrow[cls]
			grow[cls] += grad * grad
			wrow[cls] -= lr * grad / (math.Sqrt(grow[cls]) + 1e-8)
		}
	}
	return active
}

// scoreInto fills scores (len == numLabels) with the linear scores of f:
// bias plus the feature-major weight columns of f's nonzeros. Feature
// indexes at or above the trained width carry zero weight; since indexes
// are sorted they form a suffix, dropped once up front.
//
// The kernel is register-blocked: it walks f's nonzeros once per block of
// eight classes, holding the block's eight sums in locals (scoreLanes8).
// Each class's sum still starts at its bias and adds the terms w·x of f's
// nonzeros in ascending index order, one `s += w*x` per term, so it rounds
// exactly as the feature-major loop `scores[j] += w*x` it replaces (kept
// as the reference in the tests) — the same expression shape also fuses or
// stays unfused exactly as that loop does on every GOARCH. Blocking changes
// only which classes share a pass over f, never a class's own additions.
// A width that is not a multiple of eight ends with one overlapping block
// aligned to the last class: the classes it recomputes come out
// bit-identical, so rewriting them is harmless, and the tail costs one
// pass instead of a per-class loop. Models narrower than one block sum
// class by class.
func (c *Classifier) scoreInto(f textproc.Sparse, scores []float64) {
	nL := len(c.labels)
	ix, vals := f.Raw()
	n := len(ix)
	for n > 0 && int(ix[n-1]) >= c.dim {
		n--
	}
	ix, vals = ix[:n], vals[:n]
	if nL < 8 {
		for j := 0; j < nL; j++ {
			s := c.bias[j]
			for k, fi := range ix {
				s += c.w[int(fi)*nL+j] * vals[k]
			}
			scores[j] = s
		}
		return
	}
	for j := 0; j+8 <= nL; j += 8 {
		scoreLanes8(c.w, nL, j, c.bias, ix, vals, scores)
	}
	if nL%8 != 0 {
		scoreLanes8(c.w, nL, nL-8, c.bias, ix, vals, scores)
	}
}

// scoreLanes8 writes the linear scores of classes [j, j+8) into out: the
// eight sums stay in registers across the nonzeros (ix, vals), all of
// which must lie below the weight matrix's width. stride is the number of
// classes per feature row of w.
func scoreLanes8(w []float64, stride, j int, bias []float64, ix []int32, vals []float64, out []float64) {
	b := (*[8]float64)(bias[j:])
	s0, s1, s2, s3, s4, s5, s6, s7 := b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]
	vals = vals[:len(ix)]
	for k, fi := range ix {
		x := vals[k]
		r := (*[8]float64)(w[int(fi)*stride+j:])
		s0 += r[0] * x
		s1 += r[1] * x
		s2 += r[2] * x
		s3 += r[3] * x
		s4 += r[4] * x
		s5 += r[5] * x
		s6 += r[6] * x
		s7 += r[7] * x
	}
	o := (*[8]float64)(out[j:])
	o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
}

// softmaxInPlace turns linear scores into probabilities and returns the
// Shannon entropy (nats) of the resulting distribution. The entropy falls
// out of the normalisation pass — H = ln z − (Σ eᵢ·sᵢ)/z with sᵢ the
// max-shifted scores — so no per-element logarithm is needed, which is
// what makes the scheduler's utility scan cheap.
func softmaxInPlace(scores []float64) float64 {
	maxScore := math.Inf(-1)
	for _, s := range scores {
		if s > maxScore {
			maxScore = s
		}
	}
	var z, dot float64
	for i, s := range scores {
		shifted := s - maxScore
		e := math.Exp(shifted)
		scores[i] = e
		z += e
		dot += e * shifted
	}
	inv := 1 / z
	for i := range scores {
		scores[i] *= inv
	}
	return math.Log(z) - dot*inv
}

// getScratch returns a pooled probability buffer of the current width.
func (c *Classifier) getScratch() []float64 {
	if buf, ok := c.scratch.Get().(*[]float64); ok && len(*buf) == len(c.labels) {
		return *buf
	}
	return make([]float64, len(c.labels))
}

func (c *Classifier) putScratch(buf []float64) {
	c.scratch.Put(&buf)
}

// probsInto computes softmax probabilities for f into the caller's buffer,
// returning the distribution's entropy as a by-product of normalisation.
func (c *Classifier) probsInto(f textproc.Sparse, probs []float64) float64 {
	c.scoreInto(f, probs)
	return softmaxInPlace(probs)
}

// Probs returns the probability distribution over labels for a feature
// vector, aligned with Labels(). It returns nil when the model is untrained.
func (c *Classifier) Probs(f textproc.Sparse) []float64 {
	if len(c.labels) == 0 {
		return nil
	}
	probs := make([]float64, len(c.labels))
	c.probsInto(f, probs)
	return probs
}

// Analyze returns the top-k predictions and the predictive entropy from a
// single scoring pass — the engine needs both per claim per batch, and the
// scoring pass dominates. Untrained models return (nil, 1).
func (c *Classifier) Analyze(f textproc.Sparse, k int) ([]Prediction, float64) {
	if len(c.labels) == 0 {
		return nil, 1
	}
	probs := c.getScratch()
	h := c.probsInto(f, probs)
	preds := c.rankTopK(probs, k)
	c.putScratch(probs)
	return preds, h
}

// BatchRows bounds the row count of AnalyzeBatch's scores block so the
// working set stays cache-resident regardless of how many claims a
// scheduler round scores at once. Callers that split a round's scoring
// into tasks split it at this size, so every task is one block.
const BatchRows = 64

// batchScratch holds AnalyzeBatch's reusable buffers: the row-major scores
// block and the top-k selection index scratch. Pooled package-wide (reuse
// is capacity-based, so blocks migrate freely between models of different
// label widths).
type batchScratch struct {
	scores []float64
	sel    []int
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch(size int) *batchScratch {
	bs := batchPool.Get().(*batchScratch)
	if cap(bs.scores) < size {
		bs.scores = make([]float64, size)
	} else {
		bs.scores = bs.scores[:size]
	}
	return bs
}

func putBatchScratch(bs *batchScratch) { batchPool.Put(bs) }

// AnalyzeBatch scores all feature vectors for one property kind in a
// single pass: linear scores are written block-by-block into a pooled
// row-major matrix (BatchRows × numLabels), softmax and entropy are fused
// into the normalisation sweep per row, and every row's top-k predictions
// are appended into one shared arena so N claims cost one predictions
// allocation instead of N. Results are bit-identical to calling Analyze
// per element (pinned by TestAnalyzeBatchMatchesSequential): untrained
// models yield nil predictions and entropy 1 for every row, k <= 0 yields
// nil predictions, and the per-row selection/tie-break order is exactly
// rankTopK's.
func (c *Classifier) AnalyzeBatch(fs []textproc.Sparse, k int) ([][]Prediction, []float64) {
	n := len(fs)
	preds := make([][]Prediction, n)
	ents := make([]float64, n)
	if n == 0 {
		return preds, ents
	}
	if len(c.labels) == 0 {
		for i := range ents {
			ents[i] = 1
		}
		return preds, ents
	}
	nL := len(c.labels)
	kEff := k
	if kEff > nL {
		kEff = nL
	}
	rows := n
	if rows > BatchRows {
		rows = BatchRows
	}
	bs := getBatchScratch(rows * nL)
	var arena []Prediction
	if kEff > 0 {
		// Exact: each row appends exactly kEff predictions, so the arena
		// never regrows and the per-row subslices stay valid.
		arena = make([]Prediction, 0, n*kEff)
	}
	sel := bs.sel
	for base := 0; base < n; base += BatchRows {
		rows = n - base
		if rows > BatchRows {
			rows = BatchRows
		}
		buf := bs.scores[:rows*nL]
		for i := 0; i < rows; i++ {
			row := buf[i*nL : (i+1)*nL]
			c.scoreInto(fs[base+i], row)
			ents[base+i] = softmaxInPlace(row)
		}
		if kEff <= 0 {
			continue
		}
		for i := 0; i < rows; i++ {
			row := buf[i*nL : (i+1)*nL]
			start := len(arena)
			arena, sel = c.rankTopKInto(row, k, arena, sel)
			if len(arena) > start {
				preds[base+i] = arena[start:len(arena):len(arena)]
			}
		}
	}
	bs.sel = sel
	putBatchScratch(bs)
	return preds, ents
}

// Predict returns the single most probable label (ties broken by label
// string for determinism) and its probability. ok is false when untrained.
func (c *Classifier) Predict(f textproc.Sparse) (label string, prob float64, ok bool) {
	top := c.TopK(f, 1)
	if len(top) == 0 {
		return "", 0, false
	}
	return top[0].Label, top[0].Prob, true
}

// TopK returns the k most probable labels in descending probability order,
// ties broken lexicographically.
func (c *Classifier) TopK(f textproc.Sparse, k int) []Prediction {
	if len(c.labels) == 0 || k <= 0 {
		return nil
	}
	probs := c.getScratch()
	c.probsInto(f, probs)
	preds := c.rankTopK(probs, k)
	c.putScratch(probs)
	return preds
}

// rankTopK selects the k best labels by partial insertion — O(n·k) with a
// cheap reject test instead of sorting all n labels, which dominated
// inference at paper scale (hundreds of labels, k ≤ 10).
func (c *Classifier) rankTopK(probs []float64, k int) []Prediction {
	preds, _ := c.rankTopKInto(probs, k, nil, nil)
	return preds
}

// rankTopKInto is rankTopK appending into caller-owned buffers: out
// receives the predictions (the selected row is the appended tail), sel is
// the selection index scratch. Both may be nil; the possibly regrown
// buffers are returned for reuse. The selection itself is identical to
// rankTopK's.
func (c *Classifier) rankTopKInto(probs []float64, k int, out []Prediction, sel []int) ([]Prediction, []int) {
	n := len(probs)
	if k > n {
		k = n
	}
	if k <= 0 {
		return out, sel
	}
	// worse(a, b): label a ranks strictly after label b.
	worse := func(a, b int) bool {
		if probs[a] != probs[b] {
			return probs[a] < probs[b]
		}
		return c.labels[a] > c.labels[b]
	}
	sel = sel[:0]
	for i := 0; i < n; i++ {
		if len(sel) < k {
			sel = append(sel, i)
		} else if worse(sel[k-1], i) {
			sel[k-1] = i
		} else {
			continue
		}
		for p := len(sel) - 1; p > 0 && worse(sel[p-1], sel[p]); p-- {
			sel[p-1], sel[p] = sel[p], sel[p-1]
		}
	}
	for _, li := range sel {
		out = append(out, Prediction{Label: c.labels[li], Prob: probs[li]})
	}
	return out, sel
}

// Entropy returns the Shannon entropy (nats) of the predictive distribution
// — the per-model term of the training-utility heuristic (Definition 7).
// Untrained models report the maximum possible uncertainty proxy of 1.
func (c *Classifier) Entropy(f textproc.Sparse) float64 {
	if len(c.labels) == 0 {
		return 1
	}
	probs := c.getScratch()
	h := c.probsInto(f, probs)
	c.putScratch(probs)
	return h
}

// ProbOf returns the probability assigned to a specific label, or 0 for
// unknown labels / untrained models.
func (c *Classifier) ProbOf(f textproc.Sparse, label string) float64 {
	i, ok := c.labelIdx[label]
	if !ok || len(c.labels) == 0 {
		return 0
	}
	probs := c.getScratch()
	c.probsInto(f, probs)
	p := probs[i]
	c.putScratch(probs)
	return p
}

// Accuracy computes top-1 accuracy over a labelled evaluation set; labels
// absent from the vocabulary always count as misses (they can never be
// predicted).
func (c *Classifier) Accuracy(examples []Example) float64 {
	if len(examples) == 0 {
		return 0
	}
	hits := 0
	for _, ex := range examples {
		if got, _, ok := c.Predict(ex.Features); ok && got == ex.Label {
			hits++
		}
	}
	return float64(hits) / float64(len(examples))
}

// TopKAccuracy computes the fraction of examples whose true label appears in
// the model's top-k predictions (Figure 10).
func (c *Classifier) TopKAccuracy(examples []Example, k int) float64 {
	if len(examples) == 0 {
		return 0
	}
	hits := 0
	for _, ex := range examples {
		for _, p := range c.TopK(ex.Features, k) {
			if p.Label == ex.Label {
				hits++
				break
			}
		}
	}
	return float64(hits) / float64(len(examples))
}
