package core

import (
	"sync"

	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/feature"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/table"
	"github.com/repro/scrutinizer/internal/textproc"
)

// This file implements the trained-state / per-run split behind the
// multi-tenant service API. An Engine is mutable: Algorithm 1 retrains its
// classifiers at every batch barrier, which is why a verification run must
// own its engine exclusively. A ModelSnapshot is the immutable complement:
// a deep copy of everything training mutates (the four classifiers, the
// formula library pointer, the generation counter) plus shared references
// to everything training does not touch (corpus, feature pipeline, query
// and formula caches). Spawning turns a snapshot back into a private
// engine, so any number of concurrent runs can start from one trained
// state without racing each other's batch-boundary retraining.
//
// A spawned engine pays for model state only when it changes it: its
// models start as the snapshot's own classifiers, which nothing trains,
// and the engine clones them on its first fit (copy on write). A run whose
// only retrain is its last barrier's defers that fit (see completeBatch),
// so a one-batch run that is released unread never copies or trains a
// weight.
//
// Spawned engines are pooled: Release returns a finished run's engine to
// its snapshot, and the next Spawn re-primes it in place (the models
// point back at the snapshot's, the feature/assessment maps keep their
// capacity), so a service handling many short runs against one trained
// verifier allocates the engine machinery once instead of per request.

// ModelSnapshot is an immutable copy of an engine's trained model state.
// It is safe for concurrent use: every Spawn derives an independent engine
// and nothing ever trains the snapshot's own model copies. Snapshots share
// the source engine's corpus, feature pipeline, tentative-execution cache
// and formula cache — all of them either immutable or internally
// synchronized.
type ModelSnapshot struct {
	corpus *table.Corpus
	pipe   *feature.Pipeline
	cfg    Config

	models map[PropertyKind]*classifier.Classifier
	lib    *formula.Library
	gen    uint64

	qcache      *QueryCache
	fc          *formulaCache
	genOverride func(Context, []*formula.Formula, float64, bool) ([]GeneratedQuery, []GeneratedQuery)

	// spares pools engines returned by Release for reuse by Spawn.
	spares sync.Pool
}

// Snapshot deep-copies the engine's trained state into an immutable
// ModelSnapshot, settling a deferred fit first. It must not run
// concurrently with Train on the same engine (the service layer
// serializes retraining against snapshotting); it is safe against
// concurrent scoring.
func (e *Engine) Snapshot() *ModelSnapshot {
	e.settle()
	s := &ModelSnapshot{
		corpus:      e.corpus,
		pipe:        e.pipe,
		cfg:         e.cfg,
		models:      make(map[PropertyKind]*classifier.Classifier, len(e.models)),
		lib:         e.lib,
		qcache:      e.qcache,
		fc:          e.fc,
		genOverride: e.genOverride,
	}
	for k, m := range e.models {
		s.models[k] = m.Clone()
	}
	e.assessMu.RLock()
	s.gen = e.gen
	e.assessMu.RUnlock()
	return s
}

// Generation returns the model generation the snapshot was taken at.
func (s *ModelSnapshot) Generation() uint64 { return s.gen }

// Spawn builds a private engine from the snapshot: its classifiers and
// formula library are the snapshot's, shared read-only until the run's
// first retrain copies the classifiers and replaces the library (so the
// run's retraining mutates only the spawned engine), and the feature /
// assessment caches start empty — they are per-run state, keyed by claim
// ID, and distinct runs may verify distinct documents whose claim IDs
// collide.
//
// Spawn prefers recycling an engine a previous run returned via Release,
// re-priming it from the snapshot in place; the result is indistinguishable
// from a fresh spawn (pinned by test), even when the released run had
// retrained its models.
func (s *ModelSnapshot) Spawn() *Engine {
	if v := s.spares.Get(); v != nil {
		e := v.(*Engine)
		e.reprime(s)
		return e
	}
	e := &Engine{
		models:    make(map[PropertyKind]*classifier.Classifier, len(s.models)),
		featCache: make(map[int]textproc.Sparse),
		assessed:  make(map[int]*assessment),
	}
	e.reprime(s)
	return e
}

// reprime restores a pooled engine to the snapshot's trained state in
// place: a deferred fit is dropped, the models point back at the
// snapshot's classifiers (copied on the next fit), the shared references
// (corpus, pipeline, caches, library) reset to the snapshot's, and the
// per-run caches — cleared at Release time — keep their map capacity for
// the next document.
func (e *Engine) reprime(s *ModelSnapshot) {
	e.dropFit()
	e.corpus = s.corpus
	e.pipe = s.pipe
	e.cfg = s.cfg
	e.lib = s.lib
	e.qcache = s.qcache
	e.fc = s.fc
	e.genOverride = s.genOverride
	clear(e.models)
	for k, m := range s.models {
		e.models[k] = m
	}
	e.sharedModels = true
	e.gen = s.gen
	e.seqAssess = false
	e.origin = s
}

// Release returns an engine obtained from Spawn to its snapshot's spare
// pool for reuse by a later Spawn. The caller must be completely done with
// the engine: no goroutine may touch it (or anything read through it, such
// as cached assessments) after Release. Engines not created by Spawn, and
// engines already released, are left alone — Release is then a no-op, so
// callers may release unconditionally on their shutdown path.
func (e *Engine) Release() {
	if e == nil || e.origin == nil {
		return
	}
	s := e.origin
	e.origin = nil // double-release guard: second call no-ops
	// Drop per-run state now (claim IDs collide across documents, and the
	// features/assessments of a finished run are dead weight while pooled);
	// the maps keep their buckets for the next run. A deferred final fit
	// has no reader left, and the run's own model copies go with it: the
	// next Spawn points the models back at the snapshot's.
	e.dropFit()
	clear(e.featCache)
	clear(e.assessed)
	clear(e.models)
	s.spares.Put(e)
}

// Clone returns an independent engine with the same trained state:
// shorthand for Snapshot().Spawn(). Like Snapshot it must not race Train
// on the receiver.
func (e *Engine) Clone() *Engine { return e.Snapshot().Spawn() }
