package expr

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// evalCompiled compiles n and evaluates it under env with the same binding
// rules the interpreter applies: cell attributes resolve through Env.Attr
// when bound, numeric attribute variables must resolve and parse. It is the
// test harness's counterpart of the binding done by package query.
func evalCompiled(n Node, env Env) (float64, error) {
	p, err := Compile(n)
	if err != nil {
		return 0, err
	}
	cellVals := make([]float64, len(p.Cells()))
	for i, cs := range p.Cells() {
		attr := cs.Attr
		if resolved, ok := env.Attr(attr); ok {
			attr = resolved
		}
		v, err := env.Cell(p.Aliases()[cs.Alias], attr)
		if err != nil {
			return 0, err
		}
		cellVals[i] = v
	}
	nums := make([]float64, len(p.NumVars()))
	for i, name := range p.NumVars() {
		label, ok := env.Attr(name)
		if !ok {
			return 0, fmt.Errorf("unbound attribute variable %s", name)
		}
		v, err := strconv.ParseFloat(label, 64)
		if err != nil {
			return 0, fmt.Errorf("attribute %q not numeric", label)
		}
		nums[i] = v
	}
	stack := make([]float64, p.MaxStack())
	return p.Eval(cellVals, nums, stack)
}

// assertEquivalent checks that the interpreter and the compiled program
// agree on n under env: same error-ness, and bit-identical values on
// success.
func assertEquivalent(t *testing.T, n Node, env Env) {
	t.Helper()
	iv, ierr := Eval(n, env)
	cv, cerr := evalCompiled(n, env)
	if (ierr != nil) != (cerr != nil) {
		t.Fatalf("%s: interpreter err=%v, compiled err=%v", n, ierr, cerr)
	}
	if ierr != nil {
		return
	}
	if math.IsNaN(iv) && math.IsNaN(cv) {
		return
	}
	if math.Float64bits(iv) != math.Float64bits(cv) {
		t.Fatalf("%s: interpreter=%v compiled=%v", n, iv, cv)
	}
}

// testEnv builds a MapEnv over aliases a,b,c and attributes 2016/2017/Total
// with a deterministic presence pattern: bit i of missing drops the i-th
// (alias, attr) combination, so ErrNotFound-style paths get exercised.
func testEnv(rng *rand.Rand, missing uint64) MapEnv {
	env := MapEnv{Cells: map[string]float64{}, Attrs: map[string]string{
		"A1": "2017", "A2": "2016", "A3": "Total",
	}}
	i := 0
	for _, alias := range []string{"a", "b", "c"} {
		for _, attr := range []string{"2016", "2017", "Total"} {
			if missing&(1<<uint(i)) == 0 {
				v := math.Trunc(rng.Float64()*2000-500) / 4
				env.Cells[alias+"."+attr] = v
			}
			i++
		}
	}
	return env
}

// randomExpr generates a depth-bounded random expression over the test
// env's vocabulary, including all operators, functions, negation and
// attribute variables used as numbers.
func randomExpr(rng *rand.Rand, depth int) Node {
	aliases := []string{"a", "b", "c"}
	attrs := []string{"A1", "A2", "A3", "2016", "2017", "Total"}
	ops := []string{"+", "-", "*", "/", "^", ">", "<", ">=", "<=", "=", "!="}
	fns := Functions()
	if depth <= 0 || rng.Intn(4) == 0 {
		switch rng.Intn(4) {
		case 0:
			return Num{Value: math.Trunc(rng.Float64()*40-10) / 2}
		case 1:
			return AttrVar{Name: []string{"A1", "A2"}[rng.Intn(2)]}
		default:
			return CellRef{
				Alias: aliases[rng.Intn(len(aliases))],
				Attr:  attrs[rng.Intn(len(attrs))],
			}
		}
	}
	switch rng.Intn(6) {
	case 0:
		return Neg{Operand: randomExpr(rng, depth-1)}
	case 1, 2:
		fn := fns[rng.Intn(len(fns))]
		arity := functions[fn].arity
		if arity < 0 {
			arity = 1 + rng.Intn(3)
		}
		args := make([]Node, arity)
		for i := range args {
			args[i] = randomExpr(rng, depth-1)
		}
		return Call{Fn: fn, Args: args}
	default:
		return BinOp{
			Op:    ops[rng.Intn(len(ops))],
			Left:  randomExpr(rng, depth-1),
			Right: randomExpr(rng, depth-1),
		}
	}
}

// TestCompileEquivalenceProperty drives thousands of random expressions
// against random environments (with random missing cells) and requires the
// compiled program to match the interpreter exactly: same values, same
// error cases — including ErrNotFound-style missing cells, division by
// zero, and function domain errors.
func TestCompileEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5000; trial++ {
		n := randomExpr(rng, 1+rng.Intn(4))
		env := testEnv(rng, rng.Uint64()&0x1ff)
		assertEquivalent(t, n, env)
	}
}

func TestCompileEquivalenceCorners(t *testing.T) {
	env := MapEnv{
		Cells: map[string]float64{"a.2017": 10, "a.2016": 0, "b.2016": -4},
		Attrs: map[string]string{"A1": "2017", "A2": "2016", "AX": "NotANumber"},
	}
	for _, src := range []string{
		"a.A1 / a.A2",                    // division by zero
		"SQRT(b.2016)",                   // domain error
		"LOG(a.2016)",                    // domain error
		"CAGR(a.A1, a.A2, A1 - A2)",      // zero start value
		"CAGR(a.A1, b.2016, A1 - A1)",    // zero years
		"POWER(b.2016, 0.5)",             // non-finite result
		"a.A1 + A9",                      // unbound attribute variable
		"a.Missing",                      // missing cell
		"c.2017",                         // unbound alias cell
		"1/0",                            // constant division by zero
		"2^0.5 + a.A1 > 3",               // comparisons
		"-(-(-a.A1))",                    // nested negation
		"MIN(a.A1, a.A2, b.2016, -1e99)", // variadic
	} {
		n, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		assertEquivalent(t, n, env)
	}
	// A non-numeric attribute variable label (AX -> "NotANumber") cannot be
	// written in surface syntax; construct the node directly.
	assertEquivalent(t, BinOp{
		Op:    "+",
		Left:  CellRef{Alias: "a", Attr: "A1"},
		Right: AttrVar{Name: "AX"},
	}, env)
}

// TestCompileRejectsWhatEvalRejects: expressions the compiler refuses must
// be exactly those the interpreter can never evaluate.
func TestCompileRejectsWhatEvalRejects(t *testing.T) {
	env := MapEnv{Cells: map[string]float64{"a.2017": 1}}
	bad := []Node{
		nil,
		BinOp{Op: "%", Left: Num{Value: 1}, Right: Num{Value: 2}},
		Call{Fn: "NOSUCH", Args: []Node{Num{Value: 1}}},
		Call{Fn: "POWER", Args: []Node{Num{Value: 1}}}, // arity
		Call{Fn: "SUM"}, // variadic needs >= 1
	}
	for _, n := range bad {
		if _, err := Compile(n); err == nil {
			t.Errorf("Compile(%v) succeeded", n)
		}
		if _, err := Eval(n, env); err == nil {
			t.Errorf("Eval(%v) succeeded but Compile rejects it", n)
		}
	}
}

func TestCompileProgramReuse(t *testing.T) {
	n := MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1")
	p, err := Compile(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Aliases()) != 2 || len(p.Cells()) != 2 || len(p.NumVars()) != 2 {
		t.Fatalf("aliases=%v cells=%v numvars=%v", p.Aliases(), p.Cells(), p.NumVars())
	}
	stack := make([]float64, p.MaxStack())
	// CAGR of 110 over 100 in 1 year = 0.1.
	v, err := p.Eval([]float64{110, 100}, []float64{2017, 2016}, stack)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.1) > 1e-12 {
		t.Errorf("Eval = %v, want 0.1", v)
	}
	// Re-evaluation with different bindings reuses the same program/stack.
	v, err = p.Eval([]float64{121, 100}, []float64{2018, 2016}, stack)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.1) > 1e-12 {
		t.Errorf("second Eval = %v, want 0.1", v)
	}
}

func BenchmarkEvalInterpreted(b *testing.B) {
	n := MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1")
	env := MapEnv{
		Cells: map[string]float64{"a.2017": 22209, "b.2016": 21546},
		Attrs: map[string]string{"A1": "2017", "A2": "2016"},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(n, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalCompiled(b *testing.B) {
	n := MustParse("POWER(a.A1/b.A2, 1/(A1-A2)) - 1")
	p, err := Compile(n)
	if err != nil {
		b.Fatal(err)
	}
	cellVals := []float64{22209, 21546}
	nums := []float64{2017, 2016}
	stack := make([]float64, p.MaxStack())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Eval(cellVals, nums, stack); err != nil {
			b.Fatal(err)
		}
	}
}
