package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/formula"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/query"
	"github.com/repro/scrutinizer/internal/scheduler"
)

// This file inverts the control flow of §5.1/Algorithm 1. The blocking
// Oracle loop of VerifyClaimWith is re-expressed as an explicit state
// machine (ClaimRun) that *emits* pending Question values and *consumes*
// posted answers, and the Algorithm 1 batch loop as a DocumentRun that
// owns batch selection and the retrain barrier between batches. A
// verification run parked between an emitted question and its answer is
// plain data — it holds no goroutines — which is what lets a session layer
// serve thousands of concurrent human checkers over HTTP while the
// synchronous Oracle path (Verify, VerifyClaimWith) survives as a thin
// driver that pumps the very same machine.

// ClaimStep enumerates the states of the per-claim verification machine.
type ClaimStep int

const (
	// StepProperties: validating the query context (relation, key,
	// attribute screens, in that order).
	StepProperties ClaimStep = iota
	// StepFormula: the planned formula screen (only when the greedy
	// §5.1 selection found one worth its cost).
	StepFormula
	// StepFinal: the final vote on candidate verifying queries.
	StepFinal
	// StepDone: the outcome is ready.
	StepDone
)

// String implements fmt.Stringer.
func (s ClaimStep) String() string {
	switch s {
	case StepProperties:
		return "properties"
	case StepFormula:
		return "formula"
	case StepFinal:
		return "final"
	case StepDone:
		return "done"
	}
	return fmt.Sprintf("ClaimStep(%d)", int(s))
}

// Question is one pending question screen emitted by a ClaimRun. It is
// everything a front end (simulated crowd, terminal, HTTP API) needs to
// render the screen and post an answer back.
type Question struct {
	// ClaimID identifies the claim the question belongs to.
	ClaimID int
	// Seq is the zero-based index of the question within its claim; an
	// answer targets exactly one (claim, seq) pair, which makes replays
	// and duplicate posts detectable.
	Seq int
	// Step is StepProperties, StepFormula or StepFinal.
	Step ClaimStep
	// Property is the property being asked (valid unless Step is
	// StepFinal; the formula screen carries PropFormula).
	Property PropertyKind
	// Options are the candidate property values, best first (property
	// and formula screens; empty on a suggestion-only screen).
	Options []planner.Option
	// Candidates are full candidate queries as SQL (final screen only).
	Candidates []string
}

// contextKinds is the fixed §5.1 screen order for the query context.
var contextKinds = [...]PropertyKind{PropRelation, PropKey, PropAttr}

// ClaimRun is the resumable verification of one claim: the state machine
// behind VerifyClaimWith. Callers alternate Question (what to ask) and
// Answer (what the checker said) until Done reports true, then read the
// Outcome. A ClaimRun is not safe for concurrent use; distinct ClaimRuns
// are independent and may be driven from different goroutines (they only
// read engine state, which is immutable between training rounds).
type ClaimRun struct {
	e *Engine
	c *claims.Claim

	out       *Outcome
	plan      *planner.Plan
	planned   map[string][]planner.Option
	validated map[PropertyKind]string
	formulas  []*formula.Formula
	bySQL     map[string]GeneratedQuery

	step    ClaimStep
	propIdx int // index into contextKinds while step == StepProperties
	seq     int // questions answered so far
	pending *Question
}

// StartClaim plans the claim's question screens under the current
// classifier state and returns the run parked on its first question. It
// fails when question planning fails (same condition as VerifyClaimWith).
func (e *Engine) StartClaim(c *claims.Claim) (*ClaimRun, error) {
	if c == nil {
		return nil, fmt.Errorf("core: nil claim")
	}
	plan, _, err := e.PlanQuestions(c)
	if err != nil {
		return nil, err
	}
	r := &ClaimRun{
		e:         e,
		c:         c,
		out:       &Outcome{ClaimID: c.ID},
		plan:      plan,
		planned:   make(map[string][]planner.Option, len(plan.Screens)),
		validated: make(map[PropertyKind]string, len(contextKinds)),
		step:      StepProperties,
	}
	for _, s := range plan.Screens {
		r.planned[s.Property] = s.Options
	}
	r.pending = r.propertyQuestion(contextKinds[0])
	return r, nil
}

// Claim returns the claim under verification.
func (r *ClaimRun) Claim() *claims.Claim { return r.c }

// Step reports the machine's current state.
func (r *ClaimRun) Step() ClaimStep { return r.step }

// Done reports whether the outcome is ready.
func (r *ClaimRun) Done() bool { return r.step == StepDone }

// Question returns the pending question, or nil when the run is done.
func (r *ClaimRun) Question() *Question { return r.pending }

// Outcome returns the verification outcome; nil until Done.
func (r *ClaimRun) Outcome() *Outcome {
	if r.step != StepDone {
		return nil
	}
	return r.out
}

// propertyQuestion builds the screen for one context property (or the
// formula screen). Unplanned context properties yield a suggestion-only
// screen with no options, exactly as the blocking flow fell back to.
func (r *ClaimRun) propertyQuestion(kind PropertyKind) *Question {
	step := StepProperties
	if kind == PropFormula {
		step = StepFormula
	}
	return &Question{
		ClaimID:  r.c.ID,
		Seq:      r.seq,
		Step:     step,
		Property: kind,
		Options:  r.planned[kind.String()],
	}
}

// Answer consumes the checker's answer to the pending question and
// advances the machine: to the next property screen, the formula screen,
// the final vote, or the finished outcome. seconds is the human effort
// the answer consumed; it accumulates into Outcome.Seconds.
//
// ctx bounds the expensive transition (buildFinal runs Algorithm 2). A
// cancelled Answer rolls every mutation back before returning, so the
// machine is left exactly as if the answer never arrived: the same answer
// can be reposted once the caller has a live context again.
func (r *ClaimRun) Answer(ctx context.Context, value string, seconds float64) error {
	// Entry checkpoint: a dead context refuses the answer before any
	// machine state mutates, so the caller can repost it verbatim. Only
	// buildFinal does expensive work, but cheap screens must give the
	// same all-or-nothing contract.
	if err := checkCancel(ctx); err != nil {
		return err
	}
	if r.pending == nil {
		return fmt.Errorf("core: claim %d: no pending question (run is done)", r.c.ID)
	}
	r.out.Seconds += seconds
	r.seq++
	switch r.step {
	case StepProperties:
		r.out.Screens++
		r.validated[contextKinds[r.propIdx]] = value
		r.propIdx++
		if r.propIdx < len(contextKinds) {
			r.pending = r.propertyQuestion(contextKinds[r.propIdx])
			return nil
		}
		// Context validated. A formula screen is asked only when the
		// planner selected one.
		if _, ok := r.planned[PropFormula.String()]; ok {
			r.step = StepFormula
			r.pending = r.propertyQuestion(PropFormula)
			return nil
		}
		if err := r.buildFinal(ctx); err != nil {
			r.propIdx--
			delete(r.validated, contextKinds[r.propIdx])
			r.out.Screens--
			r.out.Seconds -= seconds
			r.seq--
			return err
		}
	case StepFormula:
		r.out.Screens++
		nf := len(r.formulas)
		if f, err := r.e.parseFormula(value); err == nil {
			r.formulas = append(r.formulas, f)
		}
		if err := r.buildFinal(ctx); err != nil {
			r.formulas = r.formulas[:nf]
			r.out.Screens--
			r.out.Seconds -= seconds
			r.seq--
			return err
		}
	case StepFinal:
		r.finish(value)
	}
	return nil
}

// buildFinal runs steps 3-5 of the §5.1 flow: rank formulas (crowd answer
// first, classifier predictions next, library fallback on cold start),
// generate queries from the validated context (Algorithm 2), and emit the
// final screen with the surviving candidates, best first.
//
// On cancellation it restores r.formulas to its entry state and leaves
// step/pending untouched, so Answer can roll the whole transition back.
func (r *ClaimRun) buildFinal(ctx context.Context) error {
	entryFormulas := len(r.formulas)
	// Classifier formula predictions come from the cached assessment —
	// the same scoring pass that already fed the scheduler and planner
	// this round, so no extra softmax here.
	for _, prop := range r.e.assess(r.c).props {
		if prop.Name != PropFormula.String() {
			continue
		}
		for _, opt := range prop.Options {
			// Cached parse: the same canonical labels recur across every
			// claim of a generation.
			if f, err := r.e.parseFormula(opt.Value); err == nil {
				r.formulas = append(r.formulas, f)
			}
		}
	}
	if len(r.formulas) == 0 {
		for _, key := range r.e.lib.TopK(r.e.cfg.TopK) {
			if f, ok := r.e.lib.Get(key); ok {
				r.formulas = append(r.formulas, f)
			}
		}
	}

	qc := Context{
		Relations: SplitLabel(r.validated[PropRelation]),
		Keys:      SplitLabel(r.validated[PropKey]),
		Attrs:     SplitLabel(r.validated[PropAttr]),
	}
	solutions, alternates, err := r.e.GenerateQueries(ctx, qc, r.formulas, r.c.Param,
		r.c.HasParam && r.c.Kind == claims.Explicit)
	if err != nil {
		r.formulas = r.formulas[:entryFormulas]
		return err
	}

	shown := make([]string, 0, r.plan.FinalOptions)
	r.bySQL = make(map[string]GeneratedQuery)
	for _, g := range append(append([]GeneratedQuery(nil), solutions...), alternates...) {
		if len(shown) >= max(r.plan.FinalOptions, 1) {
			break
		}
		sql := g.Query.SQL()
		// Generation dedupes by (formula, slots); distinct formulas can
		// still render identical SQL (e.g. repeated attribute assignments
		// collapsing two variable patterns), so guard the screen itself —
		// a duplicate must not burn one of the checker's option slots.
		if _, dup := r.bySQL[sql]; dup {
			continue
		}
		shown = append(shown, sql)
		r.bySQL[sql] = g
	}
	r.step = StepFinal
	r.pending = &Question{
		ClaimID:    r.c.ID,
		Seq:        r.seq,
		Step:       StepFinal,
		Candidates: shown,
	}
	return nil
}

// finish resolves the voted query and judges the claim (step 6 of §5.1),
// producing the outcome and the training label fed back into Algorithm 1.
func (r *ClaimRun) finish(votedSQL string) {
	r.step = StepDone
	r.pending = nil
	out := r.out

	// Resolve the accepted query: a shown candidate, or the written/
	// suggested query (parse it; checkers may produce a corrupt string,
	// in which case the claim is skipped).
	var accepted *query.Query
	var acceptedValue float64
	if g, ok := r.bySQL[votedSQL]; ok {
		accepted = g.Query
		acceptedValue = g.Value
	} else {
		parsed, err := query.Parse(votedSQL)
		if err == nil {
			if v, err := parsed.Execute(r.e.corpus); err == nil {
				accepted = parsed
				acceptedValue = v
			}
		}
	}
	if accepted == nil {
		out.Verdict = VerdictSkipped
		return
	}

	c := r.c
	out.Query = accepted
	out.Value = acceptedValue
	op := c.Cmp
	switch {
	case c.Kind == claims.Explicit && c.HasParam:
		if claims.RelClose(acceptedValue, c.Param, r.e.cfg.Tolerance) {
			out.Verdict = VerdictCorrect
		} else {
			out.Verdict = VerdictIncorrect
			out.Suggestion = acceptedValue
			out.HasSuggestion = true
		}
	case c.HasParam:
		if op.Compare(acceptedValue, c.Param, r.e.cfg.Tolerance) {
			out.Verdict = VerdictCorrect
		} else {
			out.Verdict = VerdictIncorrect
			out.Suggestion = acceptedValue
			out.HasSuggestion = true
		}
	default:
		// General claim without a predictable parameter: the human
		// assesses the displayed value directly (Example 7); simulated
		// workers judge from the annotation's correct value. Without an
		// annotation nothing can be judged.
		if c.Truth == nil {
			out.Verdict = VerdictSkipped
			out.Query = nil
			return
		}
		if claims.RelClose(acceptedValue, c.Truth.Value, r.e.cfg.Tolerance) {
			out.Verdict = VerdictCorrect
		} else {
			out.Verdict = VerdictIncorrect
			out.Suggestion = acceptedValue
			out.HasSuggestion = true
		}
	}

	// The validated context plus the accepted query become a training
	// label (Algorithm 1 line 16: A <- W ∪ R).
	genF, _, err := formula.Generalize(accepted.Select)
	label := &claims.GroundTruth{
		Relations: SplitLabel(r.validated[PropRelation]),
		Keys:      SplitLabel(r.validated[PropKey]),
		Attrs:     SplitLabel(r.validated[PropAttr]),
		Value:     acceptedValue,
	}
	if err == nil {
		label.Formula = genF.String()
	}
	out.Label = label
}

// PumpClaim drives a ClaimRun to completion with a blocking Oracle: the
// canonical synchronous front end over the step machine. VerifyClaimWith
// is StartClaim + PumpClaim. ctx is checked before every oracle round, so
// a cancelled pump stops between answers.
func PumpClaim(ctx context.Context, r *ClaimRun, oracle Oracle) (*Outcome, error) {
	if r == nil {
		return nil, fmt.Errorf("core: nil claim run")
	}
	if oracle == nil {
		return nil, fmt.Errorf("core: nil oracle")
	}
	for !r.Done() {
		if err := checkCancel(ctx); err != nil {
			return nil, err
		}
		q := r.Question()
		var value string
		var secs float64
		if q.Step == StepFinal {
			value, secs = oracle.AnswerFinal(r.c, q.Candidates)
		} else {
			value, secs = oracle.AnswerProperty(r.c, q.Property, q.Options)
		}
		if err := r.Answer(ctx, value, secs); err != nil {
			return nil, err
		}
	}
	return r.Outcome(), nil
}

// DocumentRun is the resumable Algorithm 1 loop: batch selection, the
// per-claim question machines of the current batch, and the retrain
// barrier between batches. Answers for distinct claims may arrive from
// distinct goroutines; answers for one claim must be serialized by the
// caller (the session layer holds a per-session lock, the synchronous
// driver pumps each claim from a single goroutine). Batch bookkeeping is
// internally locked; when the last claim of a batch completes, the
// posting goroutine runs the retrain barrier and selects the next batch
// inline — a parked run therefore holds no goroutines at all.
type DocumentRun struct {
	e   *Engine
	doc *claims.Document
	vc  VerifyConfig

	mu        sync.Mutex
	remaining map[int]*claims.Claim
	labelled  []*claims.Claim
	res       *Result
	batchIDs  []int
	runs      map[int]*ClaimRun
	finished  int
	done      bool
	err       error

	// runCtx bounds the retrain barrier (completeBatch). It is
	// context.Background() by default: for session-owned runs the barrier
	// is a commit point — once the last answer of a batch is accepted it
	// runs to completion, because aborting halfway would strand a session
	// shared by many checkers (and warm-start retraining makes a re-run
	// barrier non-deterministic under answer-log replay). The synchronous
	// Verify driver overrides it with its own context: it owns the run and
	// discards it on error, so there is nothing to strand. Storing a
	// context in a struct is deliberate here — the run, not a call, is the
	// unit of cancellation for barrier work.
	runCtx context.Context
}

// StartDocument validates the document, selects the first batch and
// returns the run parked on its questions. vc.Checkers prices the
// per-section skim (Definition 8); the synchronous Verify driver sets it
// to the crowd team size. ctx bounds the initial batch selection only
// (the per-claim scoring scan is the expensive part of starting a run);
// a cancelled start returns an error with nothing registered anywhere.
func (e *Engine) StartDocument(ctx context.Context, doc *claims.Document, vc VerifyConfig) (*DocumentRun, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	if err := doc.Validate(); err != nil {
		return nil, err
	}
	vc = vc.withDefaults()
	// A new run starts from settled models: a previous run's deferred fit
	// lands before this run's first batch selection reads them.
	e.settle()
	dr := &DocumentRun{
		e:         e,
		doc:       doc,
		vc:        vc,
		remaining: make(map[int]*claims.Claim, len(doc.Claims)),
		res:       &Result{},
		runCtx:    context.Background(),
	}
	for _, c := range doc.Claims {
		dr.remaining[c.ID] = c
	}
	if len(dr.remaining) == 0 {
		dr.done = true
		obsRunStarted()
		obsRunCompleted()
		return dr, nil
	}
	if err := dr.selectBatch(ctx); err != nil {
		return nil, err
	}
	obsRunStarted()
	return dr, nil
}

// selectBatch is OptBatch (Algorithm 1): score every remaining claim
// under the current models, pick the next batch by the configured
// ordering, charge the section-skim cost and start the batch's claim
// machines. Caller holds dr.mu (or exclusive access during construction).
// The per-claim scoring scan dominates round latency on large documents,
// so ctx is checked on entry and again after the scan.
func (dr *DocumentRun) selectBatch(ctx context.Context) error {
	if err := checkCancel(ctx); err != nil {
		return err
	}
	e, vc := dr.e, dr.vc
	items := make([]scheduler.Item, 0, len(dr.remaining))
	ids := make([]int, 0, len(dr.remaining))
	for id := range dr.remaining {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	costs, utilities := e.assessAll(ctx, ids, dr.remaining, vc.Parallelism)
	if err := checkCancel(ctx); err != nil {
		return err
	}
	for i, id := range ids {
		items = append(items, scheduler.Item{
			ClaimID:    id,
			Section:    dr.remaining[id].Section,
			VerifyCost: costs[i],
			Utility:    utilities[i],
		})
	}
	batchSize := vc.BatchSize
	if batchSize > len(items) {
		batchSize = len(items)
	}
	budget := vc.BatchBudget
	if budget <= 0 {
		// Generous default: worst case all-manual batch plus all
		// section skims.
		budget = float64(batchSize)*e.cfg.Cost.ManualCost()*float64(vc.Checkers)*2 +
			float64(dr.doc.Sections)*vc.SectionReadCost
	}
	cfg := scheduler.Config{
		MaxCost:         budget,
		MinSize:         batchSize,
		MaxSize:         batchSize,
		SectionReadCost: vc.SectionReadCost,
		UtilityWeight:   vc.UtilityWeight,
		SolverOptions:   scheduler.DefaultSolverOptions(),
	}
	var batch *scheduler.Batch
	var err error
	switch vc.Ordering {
	case OrderSequential:
		batch, err = scheduler.SequentialBatch(items, cfg)
	case OrderGreedy:
		batch, err = scheduler.GreedyBatch(items, cfg)
	case OrderRandom:
		batch, err = scheduler.RandomBatch(items, cfg, vc.Seed+int64(dr.res.Batches))
	default:
		batch, err = scheduler.SelectBatch(items, cfg)
	}
	if err != nil {
		return err
	}
	if len(batch.ClaimIDs) == 0 {
		// Infeasible under the budget: fall back to document order so
		// progress is always made.
		fallback := ids
		if len(fallback) > batchSize {
			fallback = fallback[:batchSize]
		}
		batch = &scheduler.Batch{ClaimIDs: append([]int(nil), fallback...)}
		secs := map[int]bool{}
		for _, id := range batch.ClaimIDs {
			secs[dr.remaining[id].Section] = true
		}
		for s := range secs {
			batch.Sections = append(batch.Sections, s)
		}
	}

	// Section skimming cost (Definition 8), paid once per section per
	// batch by each checker.
	dr.res.Seconds += float64(len(batch.Sections)) * vc.SectionReadCost * float64(vc.Checkers)

	dr.batchIDs = append([]int(nil), batch.ClaimIDs...)
	dr.runs = make(map[int]*ClaimRun, len(dr.batchIDs))
	dr.finished = 0
	for _, id := range dr.batchIDs {
		r, err := e.StartClaim(dr.remaining[id])
		if err != nil {
			return fmt.Errorf("core: verifying claim %d: %w", id, err)
		}
		dr.runs[id] = r
	}
	obsRound()
	return nil
}

// completeBatch is the retrain barrier: collect the batch's outcomes in
// batch order, fold validated labels back into the training pool, retrain
// the four classifiers, and select the next batch (or finish). The
// retrain tells the models which labels are this batch's: the claims
// labelled before it were in every model's previous fit, so a warm fit
// passes over the batch's examples plus a replay sample, not the whole
// pool. Caller holds dr.mu. Cancellation is governed by dr.runCtx, not the
// answer's context: for session-owned runs the barrier is a commit point
// (runCtx is Background), while the synchronous driver lets its own
// cancellation reach the retrain and next batch selection.
//
// The barrier that empties the pool serves no next batch, so it runs only
// the eager half of its retrain (label extraction, library rebuild,
// generation bump; every error surfaces here) and defers the classifier
// fits to the engine's first later reader of the models — an AfterBatch
// observer, Model, Snapshot, a verification on the same engine. Those
// readers see exactly the models an eager fit would have left; a run
// released unread (the service's one-batch runs) never pays for them.
func (dr *DocumentRun) completeBatch() error {
	if err := checkCancel(dr.runCtx); err != nil {
		return err
	}
	seen := len(dr.labelled)
	outcomes := make([]*Outcome, len(dr.batchIDs))
	for i, id := range dr.batchIDs {
		c := dr.remaining[id]
		out := dr.runs[id].Outcome()
		outcomes[i] = out
		dr.res.Seconds += out.Seconds
		dr.res.Outcomes = append(dr.res.Outcomes, out)
		// Unanimous removal (Algorithm 1 line 18): every answered claim
		// leaves the pool, guaranteeing termination.
		delete(dr.remaining, id)
		if out.Label != nil {
			dr.labelled = append(dr.labelled, &claims.Claim{
				ID: c.ID, Text: c.Text, Sentence: c.Sentence,
				Section: c.Section, Kind: c.Kind,
				Param: c.Param, HasParam: c.HasParam,
				Truth: out.Label,
			})
		}
	}
	// Retrain (Algorithm 1 line 20), fanning the four independent models
	// out under the same parallelism knob as batch assessment.
	if len(dr.labelled) > 0 {
		f, err := dr.e.newFit(dr.labelled, seen, dr.vc.Parallelism)
		if err != nil {
			return err
		}
		f.barrier = true
		if len(dr.remaining) == 0 {
			dr.e.deferFit(f)
		} else if err := dr.e.fit(f); err != nil {
			return err
		}
	}
	dr.res.Batches++
	if dr.vc.AfterBatch != nil {
		dr.vc.AfterBatch(dr.res.Batches, len(dr.res.Outcomes), outcomes)
	}
	dr.runs = nil
	dr.batchIDs = nil
	if len(dr.remaining) == 0 {
		dr.done = true
		obsRunCompleted()
		return nil
	}
	return dr.selectBatch(dr.runCtx)
}

// Done reports whether every claim has been verified (or the run failed;
// see Err).
func (dr *DocumentRun) Done() bool {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.done || dr.err != nil
}

// Err returns the fatal error that stopped the run (retraining or batch
// selection failure), or nil.
func (dr *DocumentRun) Err() error {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.err
}

// BatchClaims returns the claim IDs of the current batch in batch order.
func (dr *DocumentRun) BatchClaims() []int {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return append([]int(nil), dr.batchIDs...)
}

// Questions lists the pending question of every unfinished claim in the
// current batch, in batch order. Callers must not interleave it with
// concurrent Answer posts for the same run (the session layer serializes
// access; the synchronous driver reads only its own claim's question).
func (dr *DocumentRun) Questions() []*Question {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	out := make([]*Question, 0, len(dr.batchIDs))
	for _, id := range dr.batchIDs {
		if r := dr.runs[id]; r != nil && r.Question() != nil {
			out = append(out, r.Question())
		}
	}
	return out
}

// QuestionFor returns the pending question of one claim in the current
// batch, or nil when the claim is done or not part of the batch.
func (dr *DocumentRun) QuestionFor(claimID int) *Question {
	dr.mu.Lock()
	r := dr.runs[claimID]
	dr.mu.Unlock()
	if r == nil {
		return nil
	}
	return r.Question()
}

// Answer routes one answer to its claim's machine and returns the claim's
// next question (nil when the claim is finished). When the answer
// completes the batch's last claim, the same call runs the retrain
// barrier and selects the next batch before returning — Algorithm 1
// advances entirely inside answer posts, with no goroutine of its own.
//
// ctx bounds this answer's claim-machine transition only (Algorithm 2
// query generation); a cancelled answer is rolled back and repostable. The
// retrain barrier runs under dr.runCtx — see completeBatch.
func (dr *DocumentRun) Answer(ctx context.Context, claimID int, value string, seconds float64) (*Question, error) {
	dr.mu.Lock()
	if dr.err != nil {
		err := dr.err
		dr.mu.Unlock()
		return nil, err
	}
	r := dr.runs[claimID]
	dr.mu.Unlock()
	if r == nil {
		return nil, fmt.Errorf("core: claim %d has no pending question in the current batch", claimID)
	}
	// The claim machine advances outside the run lock so answers for
	// distinct claims execute concurrently (query generation is the
	// expensive part); per-claim serialization is the caller's contract.
	if err := r.Answer(ctx, value, seconds); err != nil {
		return nil, err
	}
	if !r.Done() {
		return r.Question(), nil
	}
	dr.mu.Lock()
	defer dr.mu.Unlock()
	dr.finished++
	if dr.finished == len(dr.batchIDs) {
		if err := dr.completeBatch(); err != nil {
			dr.err = err
			return nil, err
		}
	}
	return nil, nil
}

// Pump drives one claim of the current batch to completion with a
// blocking Oracle — the per-claim synchronous front end the parallel
// Verify driver fans out across goroutines. ctx is checked before every
// oracle round, so a cancelled pump stops between answers.
func (dr *DocumentRun) Pump(ctx context.Context, claimID int, oracle Oracle) error {
	dr.mu.Lock()
	r := dr.runs[claimID]
	c := dr.remaining[claimID]
	dr.mu.Unlock()
	if r == nil {
		return fmt.Errorf("core: claim %d is not part of the current batch", claimID)
	}
	for {
		if err := checkCancel(ctx); err != nil {
			return err
		}
		q := r.Question()
		if q == nil {
			return nil
		}
		var value string
		var secs float64
		if q.Step == StepFinal {
			value, secs = oracle.AnswerFinal(c, q.Candidates)
		} else {
			value, secs = oracle.AnswerProperty(c, q.Property, q.Options)
		}
		if _, err := dr.Answer(ctx, claimID, value, secs); err != nil {
			return err
		}
	}
}

// Progress is a point-in-time view of a document run.
type Progress struct {
	// Verified is the number of completed claims, Total the document's
	// claim count.
	Verified, Total int
	// Batches is the number of completed batches.
	Batches int
	// Pending is the number of questions currently awaiting answers.
	Pending int
	// Answered counts answers consumed so far.
	Answered int
	// Seconds is the crowd time accumulated so far (completed claims
	// plus section skims).
	Seconds float64
	// Done reports whether the run has finished.
	Done bool
}

// Progress reports the run's current position in Algorithm 1.
func (dr *DocumentRun) Progress() Progress {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	p := Progress{
		Verified: len(dr.res.Outcomes),
		Total:    len(dr.doc.Claims),
		Batches:  dr.res.Batches,
		Done:     dr.done,
	}
	for _, id := range dr.batchIDs {
		if r := dr.runs[id]; r != nil {
			p.Answered += r.seq
			if r.Question() != nil {
				p.Pending++
			}
		}
	}
	p.Answered += dr.answeredFinished()
	p.Seconds = dr.res.Seconds + dr.pendingSeconds()
	return p
}

// answeredFinished counts the screens consumed by already-finished
// claims (their machines are gone; outcomes remember the screen count
// plus the final vote).
func (dr *DocumentRun) answeredFinished() int {
	n := 0
	for _, out := range dr.res.Outcomes {
		n += out.Screens + 1 // +1: the final vote is not a Screens entry
	}
	return n
}

// pendingSeconds sums the crowd time already charged to claims of the
// current batch; their outcomes are folded into res only at the batch
// barrier.
func (dr *DocumentRun) pendingSeconds() float64 {
	var s float64
	for _, id := range dr.batchIDs {
		if r := dr.runs[id]; r != nil {
			s += r.out.Seconds
		}
	}
	return s
}

// Outcomes returns a copy of the outcomes accumulated so far, in batch
// order (partial while the run is live, complete once Done).
func (dr *DocumentRun) Outcomes() []*Outcome {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return append([]*Outcome(nil), dr.res.Outcomes...)
}

// Result returns the aggregated result once the run is done; it errors
// while claims are still pending so partial reads stay explicit (use
// Outcomes/Progress for those).
func (dr *DocumentRun) Result() (*Result, error) {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if dr.err != nil {
		return nil, dr.err
	}
	if !dr.done {
		return nil, fmt.Errorf("core: document run has %d claims pending", len(dr.remaining))
	}
	return dr.res, nil
}
