package classifier

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/repro/scrutinizer/internal/textproc"
)

// TestWarmStartLabelGrowth: a retrain on a strict superset of the current
// vocabulary takes the warm path, keeps every old label at its index and
// appends the new labels in first-seen order.
func TestWarmStartLabelGrowth(t *testing.T) {
	c := New(Config{Seed: 4, Epochs: 4})
	first := []Example{
		{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1}), Label: "b"},
	}
	if err := c.Train(first); err != nil {
		t.Fatal(err)
	}
	grown := append(append([]Example(nil), first...),
		Example{Features: vec(textproc.Vector{2: 1, 60: 0.5}), Label: "d"},
		Example{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		Example{Features: vec(textproc.Vector{3: 1}), Label: "c"},
		Example{Features: vec(textproc.Vector{2: 1}), Label: "d"},
	)
	if err := c.Train(grown); err != nil {
		t.Fatal(err)
	}
	if !c.WarmStarted() {
		t.Fatal("strict-superset retrain should warm start")
	}
	want := []string{"a", "b", "d", "c"}
	got := c.Labels()
	if len(got) != len(want) {
		t.Fatalf("labels = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("labels = %v, want %v", got, want)
		}
	}
	if c.TrainedOn() != len(grown) {
		t.Errorf("TrainedOn = %d, want %d", c.TrainedOn(), len(grown))
	}
	for f, label := range map[int]string{0: "a", 1: "b", 2: "d", 3: "c"} {
		if p, _, ok := c.Predict(vec(textproc.Vector{f: 1})); !ok || p != label {
			t.Errorf("Predict(feature %d) = %q, want %q", f, p, label)
		}
	}

	// A superset in size that lost a label is not a superset: cold refit.
	if err := c.Train([]Example{
		{Features: vec(textproc.Vector{0: 1}), Label: "a"},
		{Features: vec(textproc.Vector{1: 1}), Label: "b"},
		{Features: vec(textproc.Vector{2: 1}), Label: "d"},
		{Features: vec(textproc.Vector{3: 1}), Label: "e"},
		{Features: vec(textproc.Vector{4: 1}), Label: "f"},
	}); err != nil {
		t.Fatal(err)
	}
	if c.WarmStarted() {
		t.Error("a vanished label must force a cold retrain")
	}
	for _, l := range c.Labels() {
		if l == "c" {
			t.Error("stale label c survived retrain")
		}
	}
}

// trainGrowing runs the growing retrain sequence over set's prefixes
// [from, to) in steps of step, failing on any cold refit after the first.
// With split, each call marks its step's examples as new, the way the
// engine's retrain barrier does; otherwise every call is a full pass.
func trainGrowing(t *testing.T, c *Classifier, set []Example, from, to, step int, split bool) {
	t.Helper()
	for cut := from; cut < to; cut += step {
		seen := 0
		if split {
			seen = cut - step
		}
		if err := c.TrainSplit(set[:cut], seen); err != nil {
			t.Fatal(err)
		}
		if cut > step && !c.WarmStarted() {
			t.Fatalf("growing retrain at %d examples went cold", cut)
		}
	}
}

// TestGrowingRetrainDeterministic: a growing-vocabulary sequence, full-pass
// or replay-sampled, yields bit-identical probabilities when run twice,
// and when the model is cloned mid-sequence and the clone trains on.
func TestGrowingRetrainDeterministic(t *testing.T) {
	const step = 20
	set := growingSet(200, step, 3, 30, 8, 5)
	end := len(set) + step
	for name, split := range map[string]bool{"full": false, "replay": true} {
		t.Run(name, func(t *testing.T) {
			a := New(Config{Seed: 6})
			trainGrowing(t, a, set, step, end, step, split)
			b := New(Config{Seed: 6})
			trainGrowing(t, b, set, step, end, step, split)

			mid := New(Config{Seed: 6})
			trainGrowing(t, mid, set, step, 120, step, split)
			cloned := mid.Clone()
			trainGrowing(t, cloned, set, 120, end, step, split)

			if a.NumLabels() != 30 {
				t.Fatalf("final vocabulary has %d labels, want 30", a.NumLabels())
			}
			for i, ex := range set[:40] {
				pa := a.Probs(ex.Features)
				for name, other := range map[string]*Classifier{"rerun": b, "cloned": cloned} {
					po := other.Probs(ex.Features)
					for j := range pa {
						if pa[j] != po[j] {
							t.Fatalf("%s: example %d class %d: %v vs %v", name, i, j, pa[j], po[j])
						}
					}
				}
			}
		})
	}
}

// TestGrowingWarmMatchesScratch: after a growing-vocabulary warm sequence
// the model's held-out accuracy is within 0.05 of a ColdStart model
// trained on the same final set.
func TestGrowingWarmMatchesScratch(t *testing.T) {
	const step = 20
	set := growingSet(400, step, 7, 40, 12, 9)
	warm := New(Config{Seed: 3})
	trainGrowing(t, warm, set, step, len(set)+step, step, false)
	scratch := New(Config{Seed: 3, ColdStart: true})
	if err := scratch.Train(set); err != nil {
		t.Fatal(err)
	}
	if scratch.WarmStarted() {
		t.Error("ColdStart config must never warm start")
	}

	// Held out: fresh draws over the full final vocabulary.
	test := growingSet(200, 200, 40, 40, 12, 10)
	wa, sa := warm.Accuracy(test), scratch.Accuracy(test)
	if sa < 0.5 {
		t.Fatalf("scratch accuracy %g: the held-out set is not learnable", sa)
	}
	if wa < sa-0.05 {
		t.Errorf("warm accuracy %g more than 0.05 below scratch %g", wa, sa)
	}
}

// TestReplayWarmMatchesFullPass: on every seed, the replay-sampled warm
// sequence scores within 0.05 held-out accuracy of the full-pass warm
// sequence over the same growing set.
func TestReplayWarmMatchesFullPass(t *testing.T) {
	const step = 20
	for seed := int64(1); seed <= 5; seed++ {
		set := growingSet(400, step, 7, 40, 12, seed)
		full := New(Config{Seed: seed})
		trainGrowing(t, full, set, step, len(set)+step, step, false)
		replay := New(Config{Seed: seed})
		trainGrowing(t, replay, set, step, len(set)+step, step, true)

		test := growingSet(200, 200, 40, 40, 12, seed+100)
		fa, ra := full.Accuracy(test), replay.Accuracy(test)
		if fa < 0.5 {
			t.Fatalf("seed %d: full-pass accuracy %g: the held-out set is not learnable", seed, fa)
		}
		if ra < fa-0.05 {
			t.Errorf("seed %d: replay accuracy %g more than 0.05 below full-pass %g", seed, ra, fa)
		}
	}
}

// pinnedFixture is a 60-example growing-vocabulary set over 30 feature
// indexes whose 20-, 40- and 60-example prefixes hold 3, 5 and 6 labels,
// small enough to pin a trained State in testdata.
func pinnedFixture() []Example {
	rng := rand.New(rand.NewSource(11))
	out := make([]Example, 0, 60)
	seen := 0
	for _, labels := range []int{3, 5, 6} {
		for i := 0; i < 20; i++ {
			label := seen
			if seen < labels {
				seen++
			} else {
				label = rng.Intn(labels)
			}
			f := textproc.Vector{label: 1}
			for j := 0; j < 4; j++ {
				f[6+rng.Intn(24)] = rng.Float64()
			}
			out = append(out, Example{Features: f.Sparse(), Label: fmt.Sprintf("label-%d", label)})
		}
	}
	return out
}

// TestWarmFullPassMatchesRecorded: Train, and TrainSplit with nothing split
// off, run the full-pass cold-then-warm sequence exactly as before
// TrainSplit existed: the final State equals the one the earlier code
// recorded in testdata, bit for bit. A classifier that inferred newness
// from its own history would sample the second and third fits instead.
func TestWarmFullPassMatchesRecorded(t *testing.T) {
	raw, err := os.ReadFile("testdata/warm_full_pass_state.json")
	if err != nil {
		t.Fatal(err)
	}
	var want State
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	set := pinnedFixture()
	for name, fit := range map[string]func(*Classifier, []Example) error{
		"Train":      (*Classifier).Train,
		"TrainSplit": func(c *Classifier, ex []Example) error { return c.TrainSplit(ex, 0) },
	} {
		c := New(Config{Seed: 5})
		for cut := 20; cut <= len(set); cut += 20 {
			if err := fit(c, set[:cut]); err != nil {
				t.Fatal(err)
			}
		}
		if !c.WarmStarted() {
			t.Fatalf("%s: the last fit went cold", name)
		}
		if !reflect.DeepEqual(c.State(), want) {
			t.Errorf("%s: state differs from the recorded full-pass state", name)
		}
	}
}

// TestTrainIgnoresTrainedCount: a full-pass fit depends on the model's
// weights and vocabulary, not on how many examples it was last fitted on.
func TestTrainIgnoresTrainedCount(t *testing.T) {
	set := pinnedFixture()
	a := New(Config{Seed: 5})
	if err := a.Train(set[:40]); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	b.trained = 1
	for _, c := range []*Classifier{a, b} {
		if err := c.Train(set); err != nil {
			t.Fatal(err)
		}
	}
	if !a.WarmStarted() || !b.WarmStarted() {
		t.Fatal("the full pass went cold")
	}
	if !reflect.DeepEqual(a.State(), b.State()) {
		t.Fatal("the full pass depends on the model's trained count")
	}
}

// TestTrainSplitRejectsBadSplit: a split outside the example set is an
// error, not a panic.
func TestTrainSplitRejectsBadSplit(t *testing.T) {
	set := pinnedFixture()
	for _, seen := range []int{-1, len(set) + 1} {
		if err := New(Config{}).TrainSplit(set, seen); err == nil {
			t.Errorf("seen %d of %d examples accepted", seen, len(set))
		}
	}
}
