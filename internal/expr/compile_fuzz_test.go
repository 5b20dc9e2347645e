package expr

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzCompileVsInterpret cross-checks the compiled evaluator against the
// tree interpreter on arbitrary parsed expressions under a fuzzed
// environment: missing selects which (alias, attribute) cells exist (the
// ErrNotFound path) and seed drives the cell values — division by zero and
// function domain errors fall out of the values naturally. The committed
// seed corpus (testdata/fuzz) covers every operator, the variadic and
// fixed-arity functions, attribute variables used as numbers, and the
// error paths; run `go test -fuzz FuzzCompileVsInterpret ./internal/expr`
// to explore further.
//
// It also checks that Compile is total over parsed input: every
// expression Parse accepts compiles. The query generator relies on this —
// it has no interpreter fallback, so a formula that failed to compile
// would silently yield no candidates.
func FuzzCompileVsInterpret(f *testing.F) {
	seeds := []struct {
		src     string
		missing uint64
		seed    uint64
	}{
		{"POWER(a.A1/b.A2, 1/(A1-A2)) - 1", 0, 1},
		{"CAGR(a.A1, b.A2, A1 - A2)", 0, 2},
		{"a.2017 / b.2016", 2, 3},
		{"SQRT(a.A1 - b.A2) + LOG(a.Total)", 0, 4},
		{"MIN(a.A1, b.A2, 0) >= MAX(a.A1, -1)", 0x1f, 5},
		{"SUM(a.2016, a.2017, b.Total) / AVG(a.2016, 3)", 0, 6},
		{"-(a.A1 != b.A2) ^ 2", 0, 7},
		{"ABS(a.A1) * SIGN(b.A2) + ROUND(a.A2) - EXP(0) + LN(a.Total)", 1, 8},
		{"A1 - A2 + a.A3", 0, 9},
		{"1/0", 0, 10},
	}
	for _, s := range seeds {
		f.Add(s.src, s.missing, s.seed)
	}
	f.Fuzz(func(t *testing.T, src string, missing uint64, seed uint64) {
		n, err := Parse(src)
		if err != nil {
			return
		}
		if _, err := Compile(n); err != nil {
			t.Fatalf("%q parses but does not compile: %v", src, err)
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		env := testEnv(rng, missing&0x1ff)
		iv, ierr := Eval(n, env)
		cv, cerr := evalCompiled(n, env)
		if (ierr != nil) != (cerr != nil) {
			t.Fatalf("%q: interpreter err=%v, compiled err=%v", src, ierr, cerr)
		}
		if ierr != nil {
			return
		}
		if math.IsNaN(iv) && math.IsNaN(cv) {
			return
		}
		if math.Float64bits(iv) != math.Float64bits(cv) {
			t.Fatalf("%q: interpreter=%v compiled=%v", src, iv, cv)
		}
	})
}
