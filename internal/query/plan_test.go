package query

import (
	"errors"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

// resolveCoords is the name-resolution rule of the compiled engine, the
// test-side counterpart of the integer-slot tables the query generator
// precomputes: alias slots bind to interned (relation, row) pairs, cell
// attributes resolve through attrs with the literal label as fallback (the
// interpreter's Env.Attr rule) to interned columns, and numeric attribute
// variables parse their bound label. ok is false when anything is
// unresolvable.
func resolveCoords(prog *expr.Program, idx *table.Index, bindings []Binding, attrs map[string]string) (coords []table.CellCoord, attrNums []float64, ok bool) {
	type relRow struct{ rel, row int32 }
	bound := make([]relRow, len(prog.Aliases()))
	for i, alias := range prog.Aliases() {
		found := false
		for _, bd := range bindings {
			if bd.Alias != alias {
				continue
			}
			rel, ok := idx.RelID(bd.Relation)
			if !ok {
				return nil, nil, false
			}
			row, ok := idx.RowID(rel, bd.Key)
			if !ok {
				return nil, nil, false
			}
			bound[i] = relRow{rel, row}
			found = true
			break
		}
		if !found {
			return nil, nil, false
		}
	}
	for _, cs := range prog.Cells() {
		label := cs.Attr
		if resolved, ok := attrs[label]; ok {
			label = resolved
		}
		rr := bound[cs.Alias]
		col, ok := idx.ColID(rr.rel, label)
		if !ok {
			return nil, nil, false
		}
		coords = append(coords, table.CellCoord{Rel: rr.rel, Row: rr.row, Col: col})
	}
	for _, name := range prog.NumVars() {
		label, ok := attrs[name]
		if !ok {
			return nil, nil, false
		}
		v, err := strconv.ParseFloat(label, 64)
		if err != nil {
			return nil, nil, false
		}
		attrNums = append(attrNums, v)
	}
	return coords, attrNums, true
}

// execCompiled runs q through the production compiled path: compile the
// SELECT expression, resolve the bindings to coordinates and evaluate with
// Plan.ExecCoords on pooled scratch.
func execCompiled(t testing.TB, q *Query, c *table.Corpus) (float64, error) {
	t.Helper()
	prog, err := expr.Compile(q.Select)
	if err != nil {
		t.Fatalf("%s: Compile: %v", q.SQL(), err)
	}
	plan := &Plan{Prog: prog, Idx: c.Index()}
	coords, attrNums, ok := resolveCoords(prog, plan.Idx, q.Bindings, q.AttrBindings)
	if !ok {
		return 0, errors.New("unresolvable binding")
	}
	sc := plan.GetScratch()
	defer PutScratch(sc)
	return plan.ExecCoords(coords, attrNums, sc)
}

func TestPlanBindRunMatchesInterpreter(t *testing.T) {
	c := corpusWithGED(t)
	q := benchQuery()
	want, err := q.Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := execCompiled(t, q, c)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("ExecCoords = %v, interpreter = %v", got, want)
		}
	}
}

// TestPlanBindErrors: every binding the compiled path cannot resolve is
// one the interpreter rejects too, and a valid binding passes both.
func TestPlanBindErrors(t *testing.T) {
	c := corpusWithGED(t)
	good := []Binding{{Alias: "a", Relation: "GED", Key: "PGElecDemand"}}
	cases := []struct {
		name     string
		sel      string
		bindings []Binding
		attrs    map[string]string
		ok       bool
	}{
		{"missing alias", "a.2017", nil, nil, false},
		{"missing relation", "a.2017", []Binding{{Alias: "a", Relation: "Nope", Key: "k"}}, nil, false},
		{"missing key", "a.2017", []Binding{{Alias: "a", Relation: "GED", Key: "Nope"}}, nil, false},
		{"unbound A2", "a.A1 + (A1 - A2)", good, map[string]string{"A1": "2017"}, false},
		{"non-numeric A2", "a.A1 + (A1 - A2)", good, map[string]string{"A1": "2017", "A2": "Total"}, false},
		{"valid", "a.A1 + (A1 - A2)", good, map[string]string{"A1": "2017", "A2": "2016"}, true},
	}
	for _, tc := range cases {
		q := &Query{Select: expr.MustParse(tc.sel), Bindings: tc.bindings, AttrBindings: tc.attrs}
		_, cerr := execCompiled(t, q, c)
		_, ierr := q.Execute(c)
		if (cerr == nil) != tc.ok || (ierr == nil) != tc.ok {
			t.Errorf("%s: compiled err=%v, interpreter err=%v, want ok=%v", tc.name, cerr, ierr, tc.ok)
		}
	}
}

// TestExecuteCompiledMatchesInterpreterRandom property-tests the compiled
// path tentative execution runs (Plan.ExecCoords on resolved coordinates)
// against Execute over randomized queries on a randomized corpus: same
// values bit-for-bit, same error-ness, including NULL cells, missing rows
// and attribute-variable resolution.
func TestExecuteCompiledMatchesInterpreterRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := table.NewCorpus()
	attrs := []string{"2015", "2016", "2017", "Total"}
	for r := 0; r < 3; r++ {
		rel := table.MustNewRelation("R"+strconv.Itoa(r), "Index", attrs)
		for k := 0; k < 4; k++ {
			vals := map[string]float64{}
			for _, a := range attrs {
				if rng.Intn(5) > 0 { // leave some cells NULL
					vals[a] = math.Trunc(rng.Float64()*200-50) / 2
				}
			}
			if err := rel.AddSparseRow("K"+strconv.Itoa(k), vals); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Add(rel); err != nil {
			t.Fatal(err)
		}
	}
	exprs := []string{
		"a.A1",
		"a.A1 / b.A2",
		"POWER(a.A1/b.A2, 1/(A1-A2)) - 1",
		"a.2017 - b.Total",
		"SQRT(a.A1) + LOG(b.A2)",
		"MAX(a.A1, b.A2) > MIN(a.A1, b.A2)",
		"CAGR(a.A1, b.A2, A1 - A2)",
		"a.Total * -1",
	}
	keys := []string{"K0", "K1", "K2", "K3", "KMissing"}
	rels := []string{"R0", "R1", "R2", "RMissing"}
	for trial := 0; trial < 4000; trial++ {
		q := &Query{
			Select: expr.MustParse(exprs[rng.Intn(len(exprs))]),
			Bindings: []Binding{
				{Alias: "a", Relation: rels[rng.Intn(len(rels))], Key: keys[rng.Intn(len(keys))]},
				{Alias: "b", Relation: rels[rng.Intn(len(rels))], Key: keys[rng.Intn(len(keys))]},
			},
			AttrBindings: map[string]string{
				"A1": attrs[rng.Intn(len(attrs))],
				"A2": attrs[rng.Intn(len(attrs))],
			},
		}
		if rng.Intn(10) == 0 {
			delete(q.AttrBindings, "A2") // unbound attribute variable path
		}
		gv, gerr := execCompiled(t, q, c)
		wv, werr := q.Execute(c)
		if (gerr != nil) != (werr != nil) {
			t.Fatalf("%s: compiled err=%v, interpreter err=%v", q.SQL(), gerr, werr)
		}
		if gerr == nil && math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("%s: compiled=%v interpreter=%v", q.SQL(), gv, wv)
		}
	}
}

// BenchmarkPlanExecute measures one tentative execution on the compiled
// path: ExecCoords over pre-resolved coordinates with a pooled scratch.
func BenchmarkPlanExecute(b *testing.B) {
	c := benchCorpus(b)
	q := benchQuery()
	prog, err := expr.Compile(q.Select)
	if err != nil {
		b.Fatal(err)
	}
	plan := &Plan{Prog: prog, Idx: c.Index()}
	coords, attrNums, ok := resolveCoords(prog, plan.Idx, q.Bindings, q.AttrBindings)
	if !ok {
		b.Fatal("unresolvable bench query")
	}
	sc := plan.GetScratch()
	defer PutScratch(sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.ExecCoords(coords, attrNums, sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteInterpreted measures Query.Execute, the tree
// interpreter; compare with BenchmarkPlanExecute for the cost the compiled
// path saves per tentative execution.
func BenchmarkExecuteInterpreted(b *testing.B) {
	c := benchCorpus(b)
	q := benchQuery()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Execute(c); err != nil {
			b.Fatal(err)
		}
	}
}
