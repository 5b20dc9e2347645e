package core

import (
	"context"
	"errors"
	"sync/atomic"
)

// Observer receives coarse run-lifecycle events from every engine in the
// process. It is the monitor-idiom seam for the metrics layer: hooks fire
// at round and batch granularity (never per claim or per question), each
// call site pays one atomic pointer load plus a nil check when no observer
// is installed, and the hot scoring loops are untouched — pinned by
// BenchmarkVerifyInstrumented.
//
// Any field may be nil. Hooks must be fast and must not call back into the
// engine.
type Observer struct {
	// RunStarted fires when StartDocument succeeds.
	RunStarted func()
	// RunCompleted fires when a run's last claim is resolved.
	RunCompleted func()
	// RunCancelled fires when a synchronous Verify run is stopped by its
	// context.
	RunCancelled func()
	// Round fires after each successful batch selection (OptBatch).
	Round func()
	// Retrain fires after each successful classifier retrain at the batch
	// barrier.
	Retrain func()
	// ModelFit fires once per property classifier fitted by a retrain
	// (barrier retrains and Verifier retrains alike), reporting whether
	// the fit warm-started from the previous weights.
	ModelFit func(kind PropertyKind, warm bool)
	// BatchScored reports how many stale claims a batch-scored scheduler
	// round featurized and scored.
	BatchScored func(n int)
}

// observer is process-global: runs are engine-scoped but the metrics they
// feed are process-scoped, and a package-level atomic keeps the disabled
// path to a single predictable load.
var observer atomic.Pointer[Observer]

// SetObserver installs o as the process-wide run observer (nil removes
// it). Call once at startup, before serving.
func SetObserver(o *Observer) { observer.Store(o) }

func obsRunStarted() {
	if o := observer.Load(); o != nil && o.RunStarted != nil {
		o.RunStarted()
	}
}

func obsRunCompleted() {
	if o := observer.Load(); o != nil && o.RunCompleted != nil {
		o.RunCompleted()
	}
}

func obsRound() {
	if o := observer.Load(); o != nil && o.Round != nil {
		o.Round()
	}
}

func obsRetrain() {
	if o := observer.Load(); o != nil && o.Retrain != nil {
		o.Retrain()
	}
}

func obsModelFit(kind PropertyKind, warm bool) {
	if o := observer.Load(); o != nil && o.ModelFit != nil {
		o.ModelFit(kind, warm)
	}
}

func obsBatchScored(n int) {
	if o := observer.Load(); o != nil && o.BatchScored != nil {
		o.BatchScored(n)
	}
}

// obsMaybeCancelled classifies a terminal run error, firing RunCancelled
// for context-driven stops.
func obsMaybeCancelled(err error) {
	if err == nil || !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	if o := observer.Load(); o != nil && o.RunCancelled != nil {
		o.RunCancelled()
	}
}
