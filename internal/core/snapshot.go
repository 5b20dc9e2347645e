package core

import (
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
// so a one-batch run that is dropped unread never copies or trains a
// weight.
//
// Spawn builds a fresh engine per run: beyond the snapshot's shared state
// it holds only small per-run maps, and recycling engines between runs
// showed no measurable gain in serving throughput, latency or memory.

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

	qcache *QueryCache
	fc     *formulaCache
}

// Snapshot deep-copies the engine's trained state into an immutable
// ModelSnapshot, settling a deferred fit first. It must not run
// concurrently with Train on the same engine (the service layer
// serializes retraining against snapshotting); it is safe against
// concurrent scoring.
func (e *Engine) Snapshot() *ModelSnapshot {
	e.settle()
	s := &ModelSnapshot{
		corpus: e.corpus,
		pipe:   e.pipe,
		cfg:    e.cfg,
		models: make(map[PropertyKind]*classifier.Classifier, len(e.models)),
		lib:    e.lib,
		qcache: e.qcache,
		fc:     e.fc,
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
func (s *ModelSnapshot) Spawn() *Engine {
	e := &Engine{
		corpus:       s.corpus,
		pipe:         s.pipe,
		cfg:          s.cfg,
		models:       make(map[PropertyKind]*classifier.Classifier, len(s.models)),
		sharedModels: true,
		lib:          s.lib,
		qcache:       s.qcache,
		fc:           s.fc,
		gen:          s.gen,
		featCache:    make(map[int]textproc.Sparse),
		assessed:     make(map[int]*assessment),
	}
	for k, m := range s.models {
		e.models[k] = m
	}
	return e
}

// Clone returns an independent engine with the same trained state:
// shorthand for Snapshot().Spawn(). Like Snapshot it must not race Train
// on the receiver.
func (e *Engine) Clone() *Engine { return e.Snapshot().Spawn() }
