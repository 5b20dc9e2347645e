// Package query implements the statistical-check SQL fragment of the
// paper's Definition 3:
//
//	SELECT f(a.A1, b.A2, ...)
//	FROM T1 a, T2 b, ...
//	WHERE a.key = 'v1' AND (b.key = 'v2' OR b.key = 'v3') AND ...
//
// A Query couples an expression over binding aliases (package expr) with a
// FROM/WHERE skeleton that binds each alias to a relation and a key value.
// Because every alias is constrained to exactly one key value per execution
// (disjunctions are expanded before execution by the query generator), the
// fragment executes by direct cell look-ups — no general join machinery is
// required, matching how the system uses the database.
//
// The round trip is Parse ⇄ Query.SQL: queries written by fact checkers on
// the final screen are parsed back into executable form, and generated
// queries are rendered for display.
//
// # Execution: Execute vs Plan
//
// The paper runs queries two ways, and each has one execution path:
//
//   - Query.Execute runs one fixed query through the tree interpreter —
//     a checker's final-screen SQL, an aggregate check, a world
//     generator's truth query. Each of these executes once, so nothing is
//     compiled; Execute validates the query and owns the canonical
//     validation and execution error messages.
//
//   - Plan is the bulk path for one expression executed under many
//     variable assignments — tentative execution in the query generator
//     (Algorithm 2). The caller compiles the expression once to a flat
//     expr.Program and resolves each candidate assignment to integer cell
//     coordinates over the corpus's interned table.Index; ExecCoords then
//     evaluates on pooled scratch with zero string handling and zero
//     allocations per candidate. A property test pins ExecCoords value-
//     and error-equivalent to Execute.
//
// Execute is read-only over the corpus, so one corpus serves any number of
// concurrent verification workers; a Plan is likewise safe for concurrent
// execution with distinct scratches.
//
// Disjunctive WHERE clauses (the "v2 OR v3" form produced when a claim
// aggregates several key values) are handled by disjunction.go, which
// expands them into the per-execution single-value form; expansion visits
// keys in canonical (sorted) order so downstream candidate ranking is
// deterministic regardless of how upstream producers ordered the keys.
package query
