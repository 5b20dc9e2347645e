package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// finalFitRun spawns an engine from a snapshot bootstrapped on the first 30
// claims of the tiny world and verifies the whole 60-claim document in
// batches of 20, so the run's third barrier is its last.
func finalFitRun(t testing.TB) (*Engine, *worldgen.World) {
	t.Helper()
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims[:30]); err != nil {
		t.Fatal(err)
	}
	sp := e.Snapshot().Spawn()
	team, err := crowd.NewTeam("W", 3, 0.97, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sp.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 20, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 3 {
		t.Fatalf("%d batches, want 3", res.Batches)
	}
	return sp, w
}

// encodedModels is the JSON form of a snapshot's trained state that the
// model digests hash: the generation, each model's State, and the formula
// library's keys in insertion order with their counts. Map keys encode
// sorted, so equal states encode to equal bytes. Version is constant; it
// keeps the recorded digests' bytes stable.
type encodedModels struct {
	Version  int                         `json:"version"`
	Gen      uint64                      `json:"gen"`
	Models   map[string]classifier.State `json:"models,omitempty"`
	Formulas []string                    `json:"formulas,omitempty"`
	Counts   []int                       `json:"formula_counts,omitempty"`
}

// encodeModels serializes a snapshot's trained state as encodedModels.
func encodeModels(t testing.TB, s *ModelSnapshot) []byte {
	t.Helper()
	enc := encodedModels{Version: 1, Gen: s.gen, Models: make(map[string]classifier.State, len(s.models))}
	for kind, m := range s.models {
		enc.Models[kind.String()] = m.State()
	}
	if s.lib != nil {
		enc.Formulas = append([]string(nil), s.lib.Keys()...)
		enc.Counts = make([]int, len(enc.Formulas))
		for i, key := range enc.Formulas {
			enc.Counts[i] = s.lib.Count(key)
		}
	}
	data, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// modelDigest pins an engine's trained state compactly: the generation,
// the SHA-256 of its snapshot's encodeModels bytes and of each model's
// JSON-encoded State.
type modelDigest struct {
	Generation uint64            `json:"generation"`
	Models     string            `json:"encode_models_sha256"`
	States     map[string]string `json:"state_sha256"`
}

// digestOf digests a snapshot's trained state.
func digestOf(t testing.TB, s *ModelSnapshot) modelDigest {
	t.Helper()
	blob := encodeModels(t, s)
	d := modelDigest{Generation: s.Generation(), Models: sha256Hex(blob), States: make(map[string]string, 4)}
	for _, k := range PropertyKinds() {
		st, err := json.Marshal(s.models[k].State())
		if err != nil {
			t.Fatal(err)
		}
		d.States[k.String()] = sha256Hex(st)
	}
	return d
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// recordedFinalFit is the digest of finalFitRun's models as the eager
// barrier left them, recorded by running the code from before the last
// barrier's fit was deferred.
func recordedFinalFit(t *testing.T) modelDigest {
	t.Helper()
	raw, err := os.ReadFile("testdata/final_fit_models.json")
	if err != nil {
		t.Fatal(err)
	}
	var d modelDigest
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// countRetrains installs an observer counting barrier retrains and model
// fits until the test ends.
func countRetrains(t *testing.T) (retrains, fits *atomic.Int64) {
	t.Helper()
	retrains, fits = new(atomic.Int64), new(atomic.Int64)
	SetObserver(&Observer{
		Retrain:  func() { retrains.Add(1) },
		ModelFit: func(PropertyKind, bool) { fits.Add(1) },
	})
	t.Cleanup(func() { SetObserver(nil) })
	return retrains, fits
}

// TestDeferredFitMatchesRecorded: the run's last barrier defers its fit,
// and whichever reader settles it — Model, Snapshot or a second
// StartDocument on the engine — the models, their States and the
// encodeModels bytes equal the recorded eager barrier's bit for bit.
func TestDeferredFitMatchesRecorded(t *testing.T) {
	want := recordedFinalFit(t)
	for name, read := range map[string]func(*Engine, *worldgen.World){
		"Model":    func(e *Engine, _ *worldgen.World) { e.Model(PropFormula) },
		"Snapshot": func(e *Engine, _ *worldgen.World) { e.Snapshot() },
		"StartDocument": func(e *Engine, w *worldgen.World) {
			if _, err := e.StartDocument(context.Background(), w.Document, VerifyConfig{BatchSize: 20}); err != nil {
				t.Fatal(err)
			}
		},
		// Racing readers: one of them fits, the others wait for it, and
		// a second fit would move the state off the recorded one.
		"Concurrent": func(e *Engine, w *worldgen.World) {
			var wg sync.WaitGroup
			for i, c := range w.Document.Claims[:8] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					switch i % 3 {
					case 0:
						e.Model(PropertyKind(i % 4)).NumLabels()
					case 1:
						e.Assess(c)
					default:
						e.Snapshot()
					}
				}()
			}
			wg.Wait()
		},
	} {
		t.Run(name, func(t *testing.T) {
			sp, w := finalFitRun(t)
			if !sp.hasPending.Load() {
				t.Fatal("the last barrier fitted eagerly")
			}
			read(sp, w)
			if sp.hasPending.Load() {
				t.Fatalf("%s left the fit pending", name)
			}
			got := digestOf(t, sp.Snapshot())
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("settled models differ from the recorded eager fit:\n got %+v\nwant %+v", got, want)
			}
			for _, k := range PropertyKinds() {
				st, err := json.Marshal(sp.Model(k).State())
				if err != nil {
					t.Fatal(err)
				}
				if sha256Hex(st) != want.States[k.String()] {
					t.Errorf("%s: Model state differs from the recorded eager fit", k)
				}
			}
		})
	}
}

// TestDeferredFitGenerationWithoutFit: Generation reports the generation
// the deferred fit settles to, without running it.
func TestDeferredFitGenerationWithoutFit(t *testing.T) {
	want := recordedFinalFit(t)
	sp, _ := finalFitRun(t)
	retrains, _ := countRetrains(t)
	if got := sp.Generation(); got != want.Generation {
		t.Fatalf("pending generation %d, want %d", got, want.Generation)
	}
	if !sp.hasPending.Load() || retrains.Load() != 0 {
		t.Fatal("Generation forced the deferred fit")
	}
	sp.Model(PropKey)
	if got := sp.Generation(); got != want.Generation || retrains.Load() != 1 {
		t.Fatalf("after settling: generation %d (want %d), %d retrains (want 1)", got, want.Generation, retrains.Load())
	}
}

// TestDeferredFitDroppedOnRelease: a run dropped unread never fits its
// last batch (one barrier retrain fewer than batches), leaves its
// snapshot's trained state untouched, and a later spawn runs exactly like
// one taken before the run.
func TestDeferredFitDroppedOnRelease(t *testing.T) {
	retrains, fits := countRetrains(t)
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims[:30]); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	before := encodeModels(t, snap)
	run := func(eng *Engine) *Result {
		t.Helper()
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(snap.Spawn())

	retrains.Store(0)
	fitsBefore := fits.Load()
	sp := snap.Spawn()
	if res := run(sp); res.Batches != 3 {
		t.Fatalf("%d batches, want 3", res.Batches)
	}
	if got := retrains.Load(); got != 2 {
		t.Fatalf("%d barrier retrains in a 3-batch run, want 2", got)
	}
	if !sp.hasPending.Load() {
		t.Fatal("the last batch's fit was not deferred")
	}
	fitsAfterRun := fits.Load()
	if fitsAfterRun == fitsBefore {
		t.Fatal("the earlier barriers did not fit")
	}
	// The run is dropped here, unread: reading its snapshot does not
	// settle the run's pending fit.
	if !bytes.Equal(encodeModels(t, snap), before) {
		t.Fatal("the dropped run changed its snapshot's trained state")
	}
	if retrains.Load() != 2 || fits.Load() != fitsAfterRun || !sp.hasPending.Load() {
		t.Fatal("the dropped run ran its deferred fit")
	}
	mustEqualRuns(t, "spawn after a dropped run vs fresh spawn", want, run(snap.Spawn()))
}

// TestCopyOnWriteIsolation: two engines spawned from one snapshot share
// its classifiers until one fits. While one verifies a multi-batch
// document (cloning the shared models on its first retrain), the other
// scores concurrently; the snapshot's encoding and the scoring sibling's
// assessments stay exactly a fresh spawn's. The -race run asserts the
// sharing is read-only.
func TestCopyOnWriteIsolation(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims[:30]); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	before := encodeModels(t, snap)
	type scored struct {
		cost, utility float64
		props         []planner.Property
	}
	score := func(e *Engine) []scored {
		out := make([]scored, len(w.Document.Claims))
		for i, c := range w.Document.Claims {
			out[i].cost, out[i].utility = e.Assess(c)
			out[i].props = e.Candidates(c)
		}
		return out
	}
	want := score(snap.Spawn())

	trainer, scorer := snap.Spawn(), snap.Spawn()
	var wg sync.WaitGroup
	var verr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			verr = err
			return
		}
		_, verr = trainer.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 20, Parallelism: 2})
	}()
	var got [][]scored
	for i := 0; i < 3; i++ {
		// A fresh claim-ID cache each pass, so every pass scores the
		// shared models again while the trainer runs.
		clear(scorer.assessed)
		got = append(got, score(scorer))
	}
	wg.Wait()
	if verr != nil {
		t.Fatal(verr)
	}
	for i, g := range got {
		if !reflect.DeepEqual(g, want) {
			t.Fatalf("pass %d: the scoring sibling's assessments moved while the other trained", i)
		}
	}
	after := encodeModels(t, snap)
	if string(after) != string(before) {
		t.Fatal("training a spawned engine changed its snapshot")
	}
	for _, k := range PropertyKinds() {
		if trainer.Model(k) == snap.models[k] {
			t.Errorf("%s: the trained engine still shares the snapshot's model", k)
		}
		if scorer.Model(k) != snap.models[k] {
			t.Errorf("%s: the scoring engine copied the snapshot's model", k)
		}
	}
}
