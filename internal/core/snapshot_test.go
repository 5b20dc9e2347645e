package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/crowd"
)

// TestSnapshotSpawnEquivalence: spawning twice from one snapshot yields
// engines whose full verification runs are bit-identical — and running one
// spawn (which retrains it at batch barriers) must not perturb the
// snapshot or later spawns.
func TestSnapshotSpawnEquivalence(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()

	run := func(spawned *Engine) *Result {
		team, err := crowd.NewTeam("W", 3, 0.97, 8)
		if err != nil {
			t.Fatal(err)
		}
		res, err := spawned.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 20})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run(snap.Spawn())
	// The first run retrained its spawned engine several times; a fresh
	// spawn must still start from the pristine snapshot state.
	second := run(snap.Spawn())

	if first.Seconds != second.Seconds || first.Batches != second.Batches {
		t.Fatalf("spawned runs diverged: %v/%d vs %v/%d batches",
			first.Seconds, first.Batches, second.Seconds, second.Batches)
	}
	if len(first.Outcomes) != len(second.Outcomes) {
		t.Fatalf("outcome counts: %d vs %d", len(first.Outcomes), len(second.Outcomes))
	}
	for i := range first.Outcomes {
		a, b := first.Outcomes[i], second.Outcomes[i]
		if a.ClaimID != b.ClaimID || a.Verdict != b.Verdict || a.Seconds != b.Seconds || a.Value != b.Value {
			t.Fatalf("outcome %d diverged: %+v vs %+v", i, a, b)
		}
	}

	// The snapshot's source engine is untouched too: a clone of it equals
	// a spawn of the snapshot.
	third := run(e.Clone())
	if third.Seconds != first.Seconds {
		t.Fatalf("source engine drifted: clone run %v vs spawn run %v", third.Seconds, first.Seconds)
	}
}

// TestSnapshotConcurrentSpawns: many spawns of one snapshot verifying
// concurrently (each retraining its own engine at batch barriers) agree
// with each other — the -race run is the actual assertion that no state
// is shared mutably.
func TestSnapshotConcurrentSpawns(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()

	const n = 4
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			team, err := crowd.NewTeam("W", 3, 0.97, 8)
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = snap.Spawn().Verify(context.Background(), w.Document, team, VerifyConfig{
				BatchSize: 20, Parallelism: 2,
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i].Seconds != results[0].Seconds || results[i].Batches != results[0].Batches {
			t.Fatalf("concurrent run %d diverged: %v vs %v", i, results[i].Seconds, results[0].Seconds)
		}
		for j := range results[0].Outcomes {
			if results[i].Outcomes[j].Verdict != results[0].Outcomes[j].Verdict {
				t.Fatalf("run %d outcome %d verdict diverged", i, j)
			}
		}
	}
}

// TestSnapshotGeneration: the snapshot records the generation it was taken
// at and spawns inherit it.
func TestSnapshotGeneration(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if e.Snapshot().Generation() != 0 {
		t.Fatal("cold snapshot generation != 0")
	}
	if err := e.Train(w.Document.Claims); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if snap.Generation() != e.Generation() || snap.Generation() == 0 {
		t.Fatalf("snapshot generation %d, engine %d", snap.Generation(), e.Generation())
	}
	if got := snap.Spawn().Generation(); got != snap.Generation() {
		t.Fatalf("spawn generation %d, want %d", got, snap.Generation())
	}
}

// TestSpawnedRunRetrainsWarm: the run's labelled set only grows, so in a
// run spawned from a trained snapshot every barrier retrain after a
// model's first one warm-starts. (The first refits cold: the snapshot's
// bootstrap labels are not in the run's labelled set.) The fits are read
// through the observer's ModelFit hook, which must fire once per fitted
// model per retrain. The last barrier's fit waits for a reader: an unread
// run retrains once per batch but the last, and reading a model after
// the run completes the count.
func TestSpawnedRunRetrainsWarm(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims[:30]); err != nil {
		t.Fatal(err)
	}
	sp := e.Snapshot().Spawn()
	team, err := crowd.NewTeam("W", 3, 0.97, 8)
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	fits := make(map[PropertyKind][]bool, 4)
	retrains := 0
	SetObserver(&Observer{
		Retrain: func() {
			mu.Lock()
			retrains++
			mu.Unlock()
		},
		ModelFit: func(k PropertyKind, warm bool) {
			mu.Lock()
			fits[k] = append(fits[k], warm)
			mu.Unlock()
		},
	})
	defer SetObserver(nil)
	res, err := sp.Verify(context.Background(), w.Document, team, VerifyConfig{BatchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches < 3 || retrains != res.Batches-1 {
		t.Fatalf("%d batches, %d barrier retrains before any read, want %d", res.Batches, retrains, res.Batches-1)
	}
	sp.Model(PropRelation)
	SetObserver(nil)
	if retrains != res.Batches {
		t.Fatalf("%d batches, %d barrier retrains after reading a model", res.Batches, retrains)
	}
	for _, k := range PropertyKinds() {
		seq := fits[k]
		if len(seq) > retrains {
			t.Errorf("%s: %d fits in %d retrains", k, len(seq), retrains)
		}
		if len(seq) < 2 {
			t.Errorf("%s: only %d fits, the run never grew its labelled set", k, len(seq))
			continue
		}
		for i, warm := range seq[1:] {
			if !warm {
				t.Errorf("%s: fit %d of %d refit cold (%d labels)", k, i+2, len(seq), sp.Model(k).NumLabels())
			}
		}
	}
}

// TestSpawnedRunFitsEveryRunExample: the retrain barrier, not a model's
// own history, says which labels are new. A run spawned from an engine
// bootstrap-trained on 40 claims labels the whole 60-claim document in its
// first batch, so its first barrier warm-starts on more run labels than
// the bootstrap held, all of them new to the run. Each model must then
// equal a spawn fitted on the same labels by the full-pass Engine.Train. A
// classifier that counted its bootstrap examples as already seen would
// replay-sample the head of the run's set instead, and one that took the
// barrier's batch as already seen would not fit it at all.
func TestSpawnedRunFitsEveryRunExample(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if err := e.Train(w.Document.Claims[:40]); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	team, err := crowd.NewTeam("W", 3, 0.97, 8)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[int]*claims.Claim, len(w.Document.Claims))
	for _, c := range w.Document.Claims {
		byID[c.ID] = c
	}

	sp := snap.Spawn()
	var labelled []*claims.Claim
	fitted := make(map[PropertyKind]classifier.State, 4)
	warm := 0
	vc := VerifyConfig{BatchSize: 60, AfterBatch: func(batch, _ int, outcomes []*Outcome) {
		if batch != 1 {
			return
		}
		for _, out := range outcomes {
			if out.Label != nil {
				c := *byID[out.ClaimID]
				c.Truth = out.Label
				labelled = append(labelled, &c)
			}
		}
		for _, k := range PropertyKinds() {
			m := sp.Model(k)
			fitted[k] = m.State()
			if m.WarmStarted() && m.TrainedOn() > e.Model(k).TrainedOn() {
				warm++
			}
		}
	}}
	if _, err := sp.Verify(context.Background(), w.Document, team, vc); err != nil {
		t.Fatal(err)
	}
	if len(labelled) <= 40 {
		t.Fatalf("first batch labelled %d claims, want more than the bootstrap's 40", len(labelled))
	}
	if warm == 0 {
		t.Fatal("no model warm-started on more run labels than its bootstrap set")
	}

	// The reference is a full pass over the run's labels from the
	// snapshot's models. That a full pass ignores how many examples a
	// model was last fitted on is pinned in package classifier
	// (TestTrainIgnoresTrainedCount).
	ref := snap.Spawn()
	if err := ref.Train(labelled); err != nil {
		t.Fatal(err)
	}
	for _, k := range PropertyKinds() {
		if !reflect.DeepEqual(fitted[k], ref.Model(k).State()) {
			t.Errorf("%s: the first barrier's fit differs from a full pass over the run's labels", k)
		}
	}
}
