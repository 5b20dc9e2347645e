package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/formula"
)

// benchGenSetup builds an engine plus a realistic Algorithm 2 input: a
// validated context naming two relations, several keys and attribute
// labels, and a ranked formula list mixing arities — a few thousand
// candidate assignments per claim, like a mid-document screen.
func benchGenSetup(b *testing.B) (*Engine, Context, []*formula.Formula, float64) {
	e, w := buildEngine(b, tinyWorld())
	rels := w.Corpus.Names()
	if len(rels) > 2 {
		rels = rels[:2]
	}
	var keys []string
	r0, err := w.Corpus.Relation(rels[0])
	if err != nil {
		b.Fatal(err)
	}
	keys = append(keys, r0.Keys()...)
	if len(keys) > 4 {
		keys = keys[:4]
	}
	attrs := r0.Attrs()
	if len(attrs) > 4 {
		attrs = attrs[:4]
	}
	ctx := Context{Relations: rels, Keys: keys, Attrs: attrs}
	formulas := []*formula.Formula{
		formula.MustParseFormula("POWER(a.A1/b.A2, 1/(A1-A2)) - 1"),
		formula.MustParseFormula("(a.A1 - b.A2) / b.A2"),
		formula.MustParseFormula("a.A1 / b.A2"),
		formula.MustParseFormula("a.A1"),
	}
	c := w.Document.Claims[0]
	return e, ctx, formulas, c.Param
}

// BenchmarkGenerateQueries is the compiled+memoized steady state: what a
// session answer pays for Algorithm 2 when the corpus generation is warm —
// cache hits replay the slot tuples and only survivors materialise.
func BenchmarkGenerateQueries(b *testing.B) {
	e, ctx, formulas, p := benchGenSetup(b)
	e.GenerateQueries(context.Background(), ctx, formulas, p, true) // warm cache + compiled programs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, a, _ := e.GenerateQueries(context.Background(), ctx, formulas, p, true)
		if len(s)+len(a) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkGenerateQueriesCold forces a full compiled enumeration every
// iteration (fresh tentative-execution cache): the first-screen cost per
// (formula, context) pair.
func BenchmarkGenerateQueriesCold(b *testing.B) {
	e, ctx, formulas, p := benchGenSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.qcache = NewQueryCache()
		s, a, _ := e.GenerateQueries(context.Background(), ctx, formulas, p, true)
		if len(s)+len(a) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// BenchmarkGenerateQueriesInterpreted is the pre-compilation reference
// (tree-walking execution, per-candidate Query construction, rendered-SQL
// dedupe) — the before side of the compiled engine's acceptance ratio.
func BenchmarkGenerateQueriesInterpreted(b *testing.B) {
	e, ctx, formulas, p := benchGenSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, a := e.generateQueriesInterpreted(ctx, formulas, p, true)
		if len(s)+len(a) == 0 {
			b.Fatal("no candidates")
		}
	}
}

// benchVerifyE2E runs the full Algorithm 1 document loop with a batch size
// that forces repeated retraining, so trained formula candidates flow into
// Algorithm 2 for most claims — the workload where query generation is the
// dominant per-claim cost.
func benchVerifyE2E(b *testing.B, deadline bool) {
	e, w := buildEngine(b, tinyWorld())
	pipe := e.pipe
	cfg := e.cfg
	team, err := crowd.NewTeam("B", 3, 0.98, 17)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if deadline {
		// A deadline that never fires: every cancellation checkpoint does
		// its full check (deadline contexts take the slow ctx.Err path),
		// and the run still completes.
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, time.Now().Add(time.Hour))
		defer cancel()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Fresh engine per run: Verify's retrain barrier mutates models.
		e, err := NewEngine(w.Corpus, pipe, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := e.Verify(ctx, w.Document, team, VerifyConfig{BatchSize: 10})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) != len(w.Document.Claims) {
			b.Fatalf("verified %d of %d claims", len(res.Outcomes), len(w.Document.Claims))
		}
	}
}

// BenchmarkVerifyEndToEnd records end-to-end document verification in the
// tracked BENCH_*.json set. BenchmarkVerifyWithDeadline is the same run
// under a live (never-firing) deadline — its gap to VerifyEndToEnd is the
// total cost of the cancellation checkpoints, budgeted at <2%.
func BenchmarkVerifyEndToEnd(b *testing.B)     { benchVerifyE2E(b, false) }
func BenchmarkVerifyWithDeadline(b *testing.B) { benchVerifyE2E(b, true) }

// BenchmarkVerifyInstrumented is BenchmarkVerifyEndToEnd with a live
// metrics observer installed — the exact hooks scrutinizerd wires in.
// Its gap to VerifyEndToEnd is the total cost of run-lifecycle
// instrumentation, budgeted at <2% ns/op and zero extra allocations:
// the hooks fire per round and per batch (never per claim) and each is
// one atomic-pointer load plus an atomic add.
func BenchmarkVerifyInstrumented(b *testing.B) {
	var runs, rounds, retrains, fits, scored atomic.Uint64
	SetObserver(&Observer{
		RunStarted:   func() { runs.Add(1) },
		RunCompleted: func() { runs.Add(1) },
		RunCancelled: func() { runs.Add(1) },
		Round:        func() { rounds.Add(1) },
		Retrain:      func() { retrains.Add(1) },
		ModelFit:     func(PropertyKind, bool) { fits.Add(1) },
		BatchScored:  func(n int) { scored.Add(uint64(n)) },
	})
	defer SetObserver(nil)
	benchVerifyE2E(b, false)
	if rounds.Load() == 0 || scored.Load() == 0 || fits.Load() == 0 {
		b.Fatal("observer hooks never fired")
	}
}
