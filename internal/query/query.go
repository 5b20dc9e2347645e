package query

import (
	"fmt"
	"strconv"
	"strings"

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

// Execute runs the query against the corpus through the tree interpreter
// and returns the value of the SELECT expression. Every production query
// runs once (a checker's final-screen SQL, an aggregate check, a world
// generator's truth query), so nothing is compiled here; bulk tentative
// execution compiles through Plan instead. Execute validates first and
// produces the canonical error messages for every failure mode.
func (q *Query) Execute(c *table.Corpus) (float64, error) {
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
