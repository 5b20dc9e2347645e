package query

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

// Binding ties an alias in the SELECT expression to a relation and the key
// value selected by the WHERE clause.
type Binding struct {
	Alias    string
	Relation string
	Key      string
}

// Query is one executable statistical check.
type Query struct {
	// Select is the expression computed by the query; its cell
	// references use the aliases of Bindings, with attributes either
	// concrete (a.2017) or attribute variables (a.A1) resolved through
	// AttrBindings.
	Select expr.Node
	// Bindings lists the FROM/WHERE bindings in alias order.
	Bindings []Binding
	// AttrBindings resolves attribute variables (A1 -> "2017"). Empty for
	// fully concrete queries.
	AttrBindings map[string]string

	// prog caches the compiled form of Select. The first Execute
	// interprets (one-shot queries — generator internals, hand-written
	// final-screen SQL — never pay compilation); the second compiles and
	// every later call evaluates the flat program. Select is treated as
	// immutable once the query executes.
	prog atomic.Pointer[progState]
}

// progState tracks the per-query compilation ladder: a zero value marks
// "executed once, interpret stage"; prog is the compiled program; bad
// marks expressions the compiler rejects so Execute falls back to the
// interpreter without recompiling per call.
type progState struct {
	prog *expr.Program
	bad  bool
}

// Validate checks internal consistency: every alias referenced by the SELECT
// expression must be bound exactly once, and every attribute variable must be
// resolvable.
func (q *Query) Validate() error {
	if q.Select == nil {
		return fmt.Errorf("query: nil SELECT expression")
	}
	bound := make(map[string]bool, len(q.Bindings))
	for _, b := range q.Bindings {
		if b.Alias == "" || b.Relation == "" || b.Key == "" {
			return fmt.Errorf("query: incomplete binding %+v", b)
		}
		if bound[b.Alias] {
			return fmt.Errorf("query: alias %q bound twice", b.Alias)
		}
		bound[b.Alias] = true
	}
	for _, a := range expr.Aliases(q.Select) {
		if !bound[a] {
			return fmt.Errorf("query: alias %q used in SELECT but not bound", a)
		}
	}
	for _, v := range expr.AttrVars(q.Select) {
		if _, ok := q.AttrBindings[v]; !ok {
			return fmt.Errorf("query: attribute variable %q unbound", v)
		}
	}
	return nil
}

// corpusEnv adapts a corpus plus bindings to expr.Env.
type corpusEnv struct {
	corpus   *table.Corpus
	bindings map[string]Binding
	attrs    map[string]string
}

func (e corpusEnv) Cell(alias, attr string) (float64, error) {
	b, ok := e.bindings[alias]
	if !ok {
		return 0, fmt.Errorf("unbound alias %q", alias)
	}
	return e.corpus.Get(b.Relation, b.Key, attr)
}

func (e corpusEnv) Attr(v string) (string, bool) {
	s, ok := e.attrs[v]
	return s, ok
}

// Execute runs the query against the corpus and returns the value of the
// SELECT expression.
//
// The repeated-execution happy path is compiled: from the second call on,
// Select runs as a flat program (cached on the query) with names resolved
// through the corpus's interned Index and evaluation on pooled scratch —
// allocation-free in steady state. The very first call interprets, so
// one-shot queries never pay compilation. Any fast-path failure (invalid
// query, missing cell, arithmetic error) re-runs the tree interpreter,
// which reproduces the exact validation and execution errors of
// ExecuteInterpreted.
func (q *Query) Execute(c *table.Corpus) (float64, error) {
	if prog := q.compiled(); prog != nil {
		if v, ok := q.fastExecute(c, prog); ok {
			return v, nil
		}
	}
	return q.ExecuteInterpreted(c)
}

// compiled climbs the per-query ladder: first call marks the query seen
// (interpret), second call compiles, later calls return the cached
// program — nil whenever this call should interpret.
func (q *Query) compiled() *expr.Program {
	st := q.prog.Load()
	switch {
	case st == nil:
		q.prog.Store(&progState{})
		return nil
	case st.prog == nil && !st.bad:
		prog, err := expr.Compile(q.Select)
		q.prog.Store(&progState{prog: prog, bad: err != nil})
		return prog
	default:
		return st.prog
	}
}

// fastExecute is the compiled path. It enforces the same well-formedness
// conditions as Validate (reporting ok=false instead of an error, so the
// interpreter path can produce the canonical message) and evaluates with
// zero allocations.
func (q *Query) fastExecute(c *table.Corpus, prog *expr.Program) (float64, bool) {
	// Validate-equivalent structural checks, allocation-free: bindings
	// complete and alias-unique; every cell attribute variable resolvable.
	for i, b := range q.Bindings {
		if b.Alias == "" || b.Relation == "" || b.Key == "" {
			return 0, false
		}
		for _, prev := range q.Bindings[:i] {
			if prev.Alias == b.Alias {
				return 0, false
			}
		}
	}
	for _, cs := range prog.Cells() {
		if expr.IsAttrVarName(cs.Attr) {
			if _, ok := q.AttrBindings[cs.Attr]; !ok {
				return 0, false
			}
		}
	}
	idx := c.Index()
	sc := getScratch(prog)
	defer PutScratch(sc)
	if !resolveSlots(prog, idx, q.Bindings, q.AttrBindings, sc.Coords, sc.AttrNums) {
		return 0, false
	}
	plan := Plan{Prog: prog, Idx: idx}
	v, err := plan.ExecCoords(sc.Coords, sc.AttrNums, sc)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ExecuteInterpreted runs the query through the tree-walking interpreter —
// the reference implementation Execute's compiled path is pinned against
// by the property-based equivalence tests, and the producer of the
// canonical error messages for every failure mode.
func (q *Query) ExecuteInterpreted(c *table.Corpus) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	env := corpusEnv{
		corpus:   c,
		bindings: make(map[string]Binding, len(q.Bindings)),
		attrs:    q.AttrBindings,
	}
	for _, b := range q.Bindings {
		env.bindings[b.Alias] = b
	}
	v, err := expr.Eval(q.Select, env)
	if err != nil {
		return 0, fmt.Errorf("query: executing %s: %w", q.SQL(), err)
	}
	return v, nil
}

// concreteSelect returns the SELECT expression with attribute variables
// substituted by their concrete labels, for rendering.
func (q *Query) concreteSelect() expr.Node {
	return substituteAttrs(q.Select, q.AttrBindings)
}

func substituteAttrs(n expr.Node, attrs map[string]string) expr.Node {
	switch t := n.(type) {
	case expr.CellRef:
		if concrete, ok := attrs[t.Attr]; ok {
			return expr.CellRef{Alias: t.Alias, Attr: concrete}
		}
		return t
	case expr.AttrVar:
		if concrete, ok := attrs[t.Name]; ok {
			if v, err := strconv.ParseFloat(concrete, 64); err == nil {
				return expr.Num{Value: v}
			}
		}
		return t
	case expr.BinOp:
		return expr.BinOp{Op: t.Op, Left: substituteAttrs(t.Left, attrs), Right: substituteAttrs(t.Right, attrs)}
	case expr.Neg:
		return expr.Neg{Operand: substituteAttrs(t.Operand, attrs)}
	case expr.Call:
		args := make([]expr.Node, len(t.Args))
		for i, a := range t.Args {
			args[i] = substituteAttrs(a, attrs)
		}
		return expr.Call{Fn: t.Fn, Args: args}
	default:
		return n
	}
}

// SQL renders the query as the SQL string of Definition 3, with attribute
// variables made concrete where bindings exist. The rendering is stable and
// parseable by Parse below.
func (q *Query) SQL() string {
	var sb strings.Builder
	sb.WriteString("SELECT ")
	if q.Select != nil {
		sb.WriteString(q.concreteSelect().String())
	}
	if len(q.Bindings) > 0 {
		sb.WriteString(" FROM ")
		for i, b := range q.Bindings {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(quoteIdent(b.Relation))
			sb.WriteByte(' ')
			sb.WriteString(b.Alias)
		}
		sb.WriteString(" WHERE ")
		for i, b := range q.Bindings {
			if i > 0 {
				sb.WriteString(" AND ")
			}
			fmt.Fprintf(&sb, "%s.Index = '%s'", b.Alias, escapeSQLString(b.Key))
		}
	}
	return sb.String()
}

// String implements fmt.Stringer.
func (q *Query) String() string { return q.SQL() }

// Complexity counts the elements of the query the way the user study does
// for Figure 6: key values, attributes, operations, constants and variables.
func (q *Query) Complexity() int {
	c := expr.Complexity(q.Select)
	c += len(q.Bindings) // one key value each
	return c
}

func quoteIdent(s string) string {
	for _, r := range s {
		if !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9') {
			return `"` + s + `"`
		}
	}
	return s
}

func escapeSQLString(s string) string {
	return strings.ReplaceAll(s, "'", "''")
}
