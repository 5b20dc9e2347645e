package query

import (
	"errors"
	"sync"

	"github.com/repro/scrutinizer/internal/expr"
	"github.com/repro/scrutinizer/internal/table"
)

// A Plan is the compiled execution form of a SELECT expression against one
// interned corpus snapshot: the expression is lowered once to a flat
// expr.Program, and the caller resolves every candidate assignment to
// integer cell coordinates before evaluation.
//
// Plan vs Execute: Query.Execute interprets one fixed query, which is all a
// checker's final-screen SQL needs. A Plan serves one expression executed
// under many variable assignments — tentative execution in the query
// generator — so compilation happens once and each candidate costs only
// cell look-ups plus a stack evaluation.
type Plan struct {
	// Prog is the compiled SELECT program.
	Prog *expr.Program
	// Idx is the interned corpus snapshot the plan reads cells from.
	Idx *table.Index
}

// Scratch is the caller-owned evaluation scratch of a plan: one per
// goroutine, reused across executions. Borrow one from the package pool
// via GetScratch/PutScratch — all slices are sized for the plan's program.
type Scratch struct {
	CellVals []float64
	AttrNums []float64
	Stack    []float64
	// Coords is spare per-candidate coordinate space for enumeration
	// loops; ExecCoords does not touch it.
	Coords []table.CellCoord
}

func (s *Scratch) grow(prog *expr.Program) {
	if n := len(prog.Cells()); cap(s.CellVals) < n {
		s.CellVals = make([]float64, n)
	} else {
		s.CellVals = s.CellVals[:n]
	}
	if n := len(prog.NumVars()); cap(s.AttrNums) < n {
		s.AttrNums = make([]float64, n)
	} else {
		s.AttrNums = s.AttrNums[:n]
	}
	if n := prog.MaxStack(); cap(s.Stack) < n {
		s.Stack = make([]float64, n)
	} else {
		s.Stack = s.Stack[:n]
	}
	if cap(s.Coords) < len(prog.Cells()) {
		s.Coords = make([]table.CellCoord, len(prog.Cells()))
	} else {
		s.Coords = s.Coords[:len(prog.Cells())]
	}
}

// scratchPool recycles evaluation scratch across tentative executions.
var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// GetScratch borrows a pooled scratch sized for the plan.
func (p *Plan) GetScratch() *Scratch {
	s := scratchPool.Get().(*Scratch)
	s.grow(p.Prog)
	return s
}

// PutScratch returns a scratch to the pool.
func PutScratch(s *Scratch) { scratchPool.Put(s) }

// ErrCellNotFound reports that a coordinate addresses a missing or NULL
// cell. The compiled path never formats on failure.
var ErrCellNotFound = errors.New("query: cell not found")

// ExecCoords evaluates the plan for one fully resolved candidate
// assignment: coords[i] addresses the program's i-th cell slot and
// attrNums aligns with the program's NumVars. This is the tentative-
// execution hot path — the query generator enumerates integer slot tuples,
// resolves them to coordinates with precomputed tables, and calls this in
// a tight loop with a pooled scratch. It allocates nothing.
func (p *Plan) ExecCoords(coords []table.CellCoord, attrNums []float64, sc *Scratch) (float64, error) {
	idx := p.Idx
	for i, cc := range coords {
		v, ok := idx.Cell(cc.Rel, cc.Row, cc.Col)
		if !ok {
			return 0, ErrCellNotFound
		}
		sc.CellVals[i] = v
	}
	return p.Prog.Eval(sc.CellVals, attrNums, sc.Stack)
}
