package core

import (
	"encoding/json"
	"fmt"

	"github.com/repro/scrutinizer/internal/classifier"
	"github.com/repro/scrutinizer/internal/formula"
)

// This file serializes the trained half of a ModelSnapshot — the four
// classifiers, the formula library and the generation counter — so the
// service layer can park verifier models in a store and re-materialize them
// on boot without retraining. Corpus, feature pipeline and caches are NOT
// part of the encoding: they are rebuilt from the journaled corpus relations
// and the verifier's recorded options, and RestoreTrained grafts the decoded
// model state onto such a freshly built engine.

// modelStateVersion guards the encoding format; bump on incompatible change.
const modelStateVersion = 1

type encodedModels struct {
	Version  int                         `json:"version"`
	Gen      uint64                      `json:"gen"`
	Models   map[string]classifier.State `json:"models,omitempty"`
	Formulas []string                    `json:"formulas,omitempty"`
	Counts   []int                       `json:"formula_counts,omitempty"`
}

// EncodeModels serializes the snapshot's trained state. The encoding is
// deterministic for a given snapshot (JSON object keys are emitted sorted)
// and exact: float64 weights survive the round trip bit-for-bit.
func (s *ModelSnapshot) EncodeModels() ([]byte, error) {
	enc := encodedModels{
		Version: modelStateVersion,
		Gen:     s.gen,
		Models:  make(map[string]classifier.State, len(s.models)),
	}
	for kind, m := range s.models {
		enc.Models[kind.String()] = m.State()
	}
	if s.lib != nil {
		enc.Formulas, enc.Counts = s.lib.Export()
	}
	data, err := json.Marshal(enc)
	if err != nil {
		return nil, fmt.Errorf("core: encoding model snapshot: %w", err)
	}
	return data, nil
}

// RestoreTrained replaces the engine's trained state (classifiers, formula
// library, generation) with a decoded EncodeModels blob, dropping a
// deferred fit. The engine keeps its corpus, feature pipeline and caches —
// the caller builds it fresh over the recovered corpus first.
// RestoreTrained must not race Train or any scoring on the same engine;
// recovery calls it before the engine is shared.
func (e *Engine) RestoreTrained(data []byte) error {
	var enc encodedModels
	if err := json.Unmarshal(data, &enc); err != nil {
		return fmt.Errorf("core: decoding model snapshot: %w", err)
	}
	if enc.Version != modelStateVersion {
		return fmt.Errorf("core: model snapshot version %d, this build reads %d", enc.Version, modelStateVersion)
	}
	byName := make(map[string]PropertyKind, len(PropertyKinds()))
	for _, kind := range PropertyKinds() {
		byName[kind.String()] = kind
	}
	models := make(map[PropertyKind]*classifier.Classifier, len(enc.Models))
	for name, st := range enc.Models {
		kind, ok := byName[name]
		if !ok {
			return fmt.Errorf("core: model snapshot has unknown property kind %q", name)
		}
		m, err := classifier.FromState(st)
		if err != nil {
			return fmt.Errorf("core: restoring %s model: %w", name, err)
		}
		models[kind] = m
	}
	lib, err := formula.RestoreLibrary(enc.Formulas, enc.Counts)
	if err != nil {
		return err
	}
	// Install atomically with respect to the generation counter. The
	// assessment cache is untouched: recovery restores into engines that
	// have not assessed anything yet.
	e.dropFit()
	e.assessMu.Lock()
	e.models = models
	e.sharedModels = false
	e.lib = lib
	e.gen = enc.Gen
	e.assessMu.Unlock()
	return nil
}
