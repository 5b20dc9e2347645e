package core

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/query"
)

// This file pins the compiled query generator against the pre-compilation
// reference implementation: the exact enumeration loop the engine shipped
// before slot-tuple execution, building a *query.Query per candidate,
// running the tree interpreter, and deduplicating by rendered SQL. The
// property test drives both over randomized contexts and formula lists and
// requires bit-identical outputs (same queries, same SQL, same values, same
// order, same budget consumption). The reference also powers
// BenchmarkGenerateQueriesInterpreted, the before side of the ≥5x
// acceptance ratio.

// generateQueriesInterpreted is the reference Algorithm 2 implementation.
func (e *Engine) generateQueriesInterpreted(ctx Context, formulas []*formula.Formula, p float64, hasParam bool) (solutions, alternates []GeneratedQuery) {
	budget := e.cfg.MaxAssignments
	for _, f := range formulas {
		if f == nil || f.Expr == nil {
			continue
		}
		sols, alts, used := e.generateForFormulaInterpreted(ctx, f, p, hasParam, budget)
		budget -= used
		solutions = append(solutions, sols...)
		alternates = append(alternates, alts...)
		if budget <= 0 {
			break
		}
	}
	solutions = dedupeBySQL(solutions)
	alternates = dedupeBySQL(alternates)
	if hasParam {
		sort.SliceStable(solutions, func(i, j int) bool {
			return math.Abs(solutions[i].Value-p) < math.Abs(solutions[j].Value-p)
		})
		sort.SliceStable(alternates, func(i, j int) bool {
			return math.Abs(alternates[i].Value-p) < math.Abs(alternates[j].Value-p)
		})
	}
	if len(alternates) > e.cfg.MaxAlternates {
		alternates = alternates[:e.cfg.MaxAlternates]
	}
	return solutions, alternates
}

func (e *Engine) generateForFormulaInterpreted(ctx Context, f *formula.Formula, p float64, hasParam bool, budget int) (sols, alts []GeneratedQuery, used int) {
	aliases := expr.Aliases(f.Expr)
	attrVars := f.AttrVars

	if len(ctx.Relations) == 0 || len(ctx.Keys) == 0 {
		return nil, nil, 0
	}
	if len(attrVars) > 0 && len(ctx.Attrs) == 0 {
		return nil, nil, 0
	}
	attrAssigns := injectiveAssignments(ctx.Attrs, len(attrVars))
	if len(attrAssigns) == 0 && len(attrVars) > 0 {
		attrAssigns = repeatedAssignments(ctx.Attrs, len(attrVars))
	}
	if len(attrVars) == 0 {
		attrAssigns = [][]string{nil}
	}

	type cell struct{ rel, key string }
	var pairs []cell
	for _, r := range ctx.Relations {
		rel, err := e.corpus.Relation(r)
		if err != nil {
			continue
		}
		for _, k := range ctx.Keys {
			if rel.HasKey(k) {
				pairs = append(pairs, cell{r, k})
			}
		}
	}
	if len(pairs) == 0 {
		return nil, nil, 0
	}

	idx := make([]int, len(aliases))
	for {
		for _, aa := range attrAssigns {
			used++
			if used > budget {
				return sols, alts, used
			}
			q := &query.Query{Select: f.Expr, AttrBindings: map[string]string{}}
			for vi, v := range attrVars {
				q.AttrBindings[v] = aa[vi]
			}
			for ai, alias := range aliases {
				pr := pairs[idx[ai]]
				q.Bindings = append(q.Bindings, query.Binding{Alias: alias, Relation: pr.rel, Key: pr.key})
			}
			val, err := q.Execute(e.corpus)
			if err != nil {
				continue
			}
			g := GeneratedQuery{Query: q, Value: val, Formula: f.String()}
			if hasParam && claims.RelClose(val, p, e.cfg.Tolerance) {
				sols = append(sols, g)
			} else {
				alts = append(alts, g)
			}
		}
		carry := len(aliases) - 1
		for carry >= 0 {
			idx[carry]++
			if idx[carry] < len(pairs) {
				break
			}
			idx[carry] = 0
			carry--
		}
		if carry < 0 {
			break
		}
	}
	return sols, alts, used
}

func dedupeBySQL(qs []GeneratedQuery) []GeneratedQuery {
	seen := make(map[string]bool, len(qs))
	out := qs[:0]
	for _, g := range qs {
		sql := g.Query.SQL()
		if seen[sql] {
			continue
		}
		seen[sql] = true
		out = append(out, g)
	}
	return out
}

// equalGenerated compares two generated-query lists for bit-identical
// content and order.
func equalGenerated(t *testing.T, label string, got, want []GeneratedQuery) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d queries, reference has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Formula != want[i].Formula {
			t.Errorf("%s[%d]: formula %q vs %q", label, i, got[i].Formula, want[i].Formula)
		}
		if math.Float64bits(got[i].Value) != math.Float64bits(want[i].Value) {
			t.Errorf("%s[%d]: value %v vs %v", label, i, got[i].Value, want[i].Value)
		}
		if gs, ws := got[i].Query.SQL(), want[i].Query.SQL(); gs != ws {
			t.Errorf("%s[%d]: SQL %q vs %q", label, i, gs, ws)
		}
	}
}

// genFormulaPool builds a diverse set of canonical (variable-form) formulas
// exercising cell refs, attribute variables as numbers, functions with
// domain errors, division, comparisons and unary minus.
var genFormulaPool = []string{
	"a.A1",
	"a.A1 - b.A2",
	"a.A1 / b.A2",
	"(a.A1 - b.A2) / b.A2",
	"POWER(a.A1/b.A2, 1/(A1-A2)) - 1",
	"CAGR(a.A1, b.A2, A1 - A2)",
	"a.A1 + a.A2 + b.A1",
	"SQRT(a.A1 - b.A2)",
	"LOG(a.A1 / b.A2)",
	"MAX(a.A1, b.A2, 0) - MIN(a.A1, b.A2)",
	"a.A1 > b.A2",
	"-a.A1 * 2",
	"AVG(a.A1, b.A1, c.A2)",
	"SUM(a.A1, b.A2) / 2",
	"ABS(a.A1 - b.A2) / ABS(b.A2)",
}

func TestGenerateQueriesMatchesInterpretedReference(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	rels := w.Corpus.Names()
	var keys []string
	for _, rn := range rels {
		r, err := w.Corpus.Relation(rn)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, r.Keys()...)
		if len(keys) > 12 {
			break
		}
	}
	var attrs []string
	if r, err := w.Corpus.Relation(rels[0]); err == nil {
		attrs = r.Attrs()
	}
	rng := rand.New(rand.NewSource(42))
	pick := func(pool []string, n int) []string {
		out := make([]string, 0, n)
		for i := 0; i < n; i++ {
			out = append(out, pool[rng.Intn(len(pool))])
		}
		return out
	}
	for trial := 0; trial < 60; trial++ {
		ctx := Context{
			Relations: pick(rels, 1+rng.Intn(2)),
			Keys:      pick(keys, 1+rng.Intn(3)),
			Attrs:     pick(attrs, 1+rng.Intn(3)),
		}
		var fs []*formula.Formula
		for _, src := range pick(genFormulaPool, 1+rng.Intn(4)) {
			fs = append(fs, formula.MustParseFormula(src))
		}
		p := rng.Float64() * 1000
		hasParam := rng.Intn(3) > 0
		// Shrink the budget sometimes so the truncation accounting is
		// exercised too.
		e.cfg.MaxAssignments = []int{1, 3, 17, 20000}[rng.Intn(4)]

		gotS, gotA, _ := e.GenerateQueries(context.Background(), ctx, fs, p, hasParam)
		wantS, wantA := e.generateQueriesInterpreted(ctx, fs, p, hasParam)
		equalGenerated(t, "solutions", gotS, wantS)
		equalGenerated(t, "alternates", gotA, wantA)

		// Second run must serve from the cache and stay identical.
		againS, againA, _ := e.GenerateQueries(context.Background(), ctx, fs, p, hasParam)
		equalGenerated(t, "cached solutions", againS, wantS)
		equalGenerated(t, "cached alternates", againA, wantA)
	}
	if s := e.QueryCacheStats(); s.Hits == 0 {
		t.Error("repeated generation never hit the query cache")
	}
}

// TestGenerateQueriesDuplicateContextEntries pins the canonicalisation that
// replaces rendered-SQL dedupe: duplicated relations, keys or attribute
// labels in the validated context must not produce duplicate candidates.
func TestGenerateQueriesDuplicateContextEntries(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	f := formula.MustParseFormula(c.Truth.Formula)
	base := Context{Relations: c.Truth.Relations, Keys: c.Truth.Keys, Attrs: c.Truth.Attrs}
	dup := Context{
		Relations: append(append([]string{}, base.Relations...), base.Relations...),
		Keys:      append(append([]string{}, base.Keys...), base.Keys...),
		Attrs:     append(append([]string{}, base.Attrs...), base.Attrs...),
	}
	gotS, gotA, _ := e.GenerateQueries(context.Background(), dup, []*formula.Formula{f}, c.Param, c.HasParam)
	wantS, wantA := e.generateQueriesInterpreted(dup, []*formula.Formula{f}, c.Param, c.HasParam)
	equalGenerated(t, "solutions", gotS, wantS)
	equalGenerated(t, "alternates", gotA, wantA)
}

// TestQueryCacheInvalidationOnCorpusChange ensures a corpus mutation is
// observed by the memoized tentative executions.
func TestQueryCacheInvalidationOnCorpusChange(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	f := formula.MustParseFormula("a.A1")
	ctx := Context{Relations: c.Truth.Relations, Keys: c.Truth.Keys, Attrs: c.Truth.Attrs}
	s1, a1, _ := e.GenerateQueries(context.Background(), ctx, []*formula.Formula{f}, 0, false)
	all1 := append(append([]GeneratedQuery{}, s1...), a1...)
	if len(all1) == 0 {
		t.Fatal("no candidates generated")
	}
	// Mutate the cell the first candidate reads.
	b := all1[0].Query.Bindings[0]
	rel, err := w.Corpus.Relation(b.Relation)
	if err != nil {
		t.Fatal(err)
	}
	attr := all1[0].Query.AttrBindings["A1"]
	if err := rel.Set(b.Key, attr, all1[0].Value+123); err != nil {
		t.Fatal(err)
	}
	s2, a2, _ := e.GenerateQueries(context.Background(), ctx, []*formula.Formula{f}, 0, false)
	all2 := append(append([]GeneratedQuery{}, s2...), a2...)
	if len(all2) == 0 {
		t.Fatal("no candidates after mutation")
	}
	if all2[0].Value != all1[0].Value+123 {
		t.Errorf("mutation not observed: value %g, want %g", all2[0].Value, all1[0].Value+123)
	}
}

// TestFinalScreenDeduplicatesRenderedSQL reproduces the one sanctioned
// divergence from rendered-SQL dedupe: two distinct formulas whose
// repeated attribute assignment collapses to byte-identical SQL. Slot-key
// dedupe keeps both candidates, so the final screen itself must not show
// the duplicate (it would burn one of the checker's option slots).
func TestFinalScreenDeduplicatesRenderedSQL(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	if _, err := e.lib.AddString("a.A1 - b.A2"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.lib.AddString("a.A1 - b.A1"); err != nil {
		t.Fatal(err)
	}
	c := w.Document.Claims[0]
	run, err := e.StartClaim(c)
	if err != nil {
		t.Fatal(err)
	}
	// Validate a context with a single attribute: injective assignment is
	// impossible, the repeated fallback maps A1 = A2, and both library
	// formulas render the same SQL.
	answers := map[PropertyKind]string{
		PropRelation: JoinLabel(c.Truth.Relations[:1]),
		PropKey:      JoinLabel(c.Truth.Keys[:1]),
		PropAttr:     JoinLabel(c.Truth.Attrs[:1]),
	}
	for !run.Done() && run.Step() != StepFinal {
		q := run.Question()
		if err := run.Answer(context.Background(), answers[q.Property], 1); err != nil {
			t.Fatal(err)
		}
	}
	q := run.Question()
	if q == nil || q.Step != StepFinal {
		t.Fatalf("expected final screen, got %+v", q)
	}
	// Generation itself collapses the collision at materialisation: the two
	// formulas yield one distinct query, not two.
	sols, alts, _ := e.GenerateQueries(context.Background(), Context{
		Relations: c.Truth.Relations[:1],
		Keys:      c.Truth.Keys[:1],
		Attrs:     c.Truth.Attrs[:1],
	}, []*formula.Formula{
		formula.MustParseFormula("a.A1 - b.A2"),
		formula.MustParseFormula("a.A1 - b.A1"),
	}, c.Param, c.HasParam)
	all := map[string]bool{}
	for _, g := range append(append([]GeneratedQuery{}, sols...), alts...) {
		sql := g.Query.SQL()
		if all[sql] {
			t.Fatalf("GenerateQueries emitted duplicate SQL %q", sql)
		}
		all[sql] = true
	}
	if len(all) == 0 {
		t.Fatal("collision scenario generated nothing")
	}
	// And the screen (whose bySQL guard is defence in depth) never shows
	// the same SQL twice either.
	seen := map[string]bool{}
	for _, sql := range q.Candidates {
		if seen[sql] {
			t.Fatalf("final screen shows duplicate SQL %q in %v", sql, q.Candidates)
		}
		seen[sql] = true
	}
	if len(q.Candidates) == 0 {
		t.Fatal("final screen shows no candidates")
	}
}

// TestGenerateQueriesCrossFormulaSQLCollision pins the one case slot-key
// dedupe alone would miss: two distinct formulas whose repeated attribute
// assignment renders byte-identical SQL. The late SQL dedupe at
// materialisation must reproduce the reference's rendered-SQL dedupe
// exactly (same survivors, same order, no alternate slot burned on a
// duplicate).
func TestGenerateQueriesCrossFormulaSQLCollision(t *testing.T) {
	e, w := buildEngine(t, tinyWorld())
	c := w.Document.Claims[0]
	ctx := Context{
		Relations: c.Truth.Relations[:1],
		Keys:      c.Truth.Keys[:1],
		Attrs:     c.Truth.Attrs[:1], // single attr: A1 = A2 via repeated fallback
	}
	fs := []*formula.Formula{
		formula.MustParseFormula("a.A1 - b.A2"),
		formula.MustParseFormula("a.A1 - b.A1"),
		formula.MustParseFormula("a.A1"),
	}
	for _, hasParam := range []bool{true, false} {
		gotS, gotA, _ := e.GenerateQueries(context.Background(), ctx, fs, c.Param, hasParam)
		wantS, wantA := e.generateQueriesInterpreted(ctx, fs, c.Param, hasParam)
		equalGenerated(t, "solutions", gotS, wantS)
		equalGenerated(t, "alternates", gotA, wantA)
		if len(wantA)+len(wantS) == 0 {
			t.Fatal("collision scenario generated nothing")
		}
	}
}
