package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

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

// modelDigest pins an engine's trained state compactly: the generation,
// the SHA-256 of its snapshot's EncodeModels bytes and of each model's
// JSON-encoded State.
type modelDigest struct {
	Generation uint64            `json:"generation"`
	Models     string            `json:"encode_models_sha256"`
	States     map[string]string `json:"state_sha256"`
}

// digestOf digests a snapshot's trained state.
func digestOf(t testing.TB, s *ModelSnapshot) modelDigest {
	t.Helper()
	blob, err := s.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}
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
// EncodeModels bytes equal the recorded eager barrier's bit for bit.
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

// TestDeferredFitDroppedOnRelease: a run released unread never fits its
// last batch (one barrier retrain fewer than batches), and the engine it
// leaves behind — recycled through the pool or re-primed directly — runs
// exactly like a fresh spawn.
func TestDeferredFitDroppedOnRelease(t *testing.T) {
	retrains, fits := countRetrains(t)
	sp, w := finalFitRun(t)
	snap := sp.origin
	if got := retrains.Load(); got != 2 {
		t.Fatalf("%d barrier retrains in a 3-batch run, want 2", got)
	}
	fitsBefore := fits.Load()
	sp.Release()
	if retrains.Load() != 2 || fits.Load() != fitsBefore {
		t.Fatal("Release ran the deferred fit")
	}

	run := func(e *Engine) *Result {
		t.Helper()
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	re := snap.Spawn() // the released engine, unless the pool dropped it
	if re == sp {
		t.Log("pool recycled the released engine")
	}
	mustEqualRuns(t, "respawn after release vs fresh spawn", run(snap.Spawn()), run(re))

	// sync.Pool reuse is best-effort, so re-prime a dirty engine directly
	// too: the pending fit goes, the models are the snapshot's again.
	dirty, _ := finalFitRun(t)
	snap = dirty.origin
	dirty.reprime(snap)
	if dirty.hasPending.Load() || dirty.Generation() != snap.Generation() {
		t.Fatal("reprime kept the deferred fit")
	}
	for k, m := range snap.models {
		if dirty.Model(k) != m {
			t.Fatalf("%s: re-primed engine does not share the snapshot's model", k)
		}
	}
	mustEqualRuns(t, "re-primed dirty engine vs fresh spawn", run(snap.Spawn()), run(dirty))
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
	before, err := snap.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}
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
	after, err := snap.EncodeModels()
	if err != nil {
		t.Fatal(err)
	}
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
