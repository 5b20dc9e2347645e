// Package scrutinizer is the public facade of the Scrutinizer
// reproduction: a mixed-initiative system for verifying statistical claims
// in text documents against a corpus of relational tables (Karagiannis,
// Saeed, Papotti, Trummer — VLDB 2020).
//
// The API is organised around three decoupled resources, so trained state
// is amortized across many checking tasks instead of being rebuilt per
// document:
//
//   - A Corpus is the registered relational data D.
//
//   - A Verifier is a corpus-bound trained model bundle: the feature
//     pipeline fitted once on a training document, classifiers trained on
//     its annotated claims and warm-start retrainable. One verifier serves
//     any number of documents and concurrent runs.
//
//   - A Run is one document verification — batch via Run.Verify, or
//     interactive via Verifier.StartSession.
//
//     world, _ := scrutinizer.GenerateWorld(scrutinizer.SmallWorld())
//     v, _ := scrutinizer.NewVerifier(world.Corpus, world.Document, scrutinizer.Options{})
//     team, _ := v.NewTeam(3)
//     run, _ := v.StartRun(world.Document)
//     result, _ := run.Verify(team, scrutinizer.VerifyOptions{})
//     fmt.Println(result.Report())
//
// Service is the multi-tenant registry over these resources; cmd/scrutinizerd
// serves it as a versioned /v1 REST API. System (scrutinizer.New) is the
// cold-start, single-document entry point of the paper's Algorithm 1: it
// fits features on the document under verification and lets batch
// retraining warm the classifiers up as claims are checked.
//
// See the examples directory for runnable end-to-end programs and the
// README's "Package map" for the paper-to-package map.
package scrutinizer

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/repro/scrutinizer/internal/claims"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/report"
	"github.com/repro/scrutinizer/internal/session"
	"github.com/repro/scrutinizer/internal/table"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// Re-exported core types so callers do not need the internal packages.
type (
	// Corpus is the set of relational tables D.
	Corpus = table.Corpus
	// Relation is one statistical table.
	Relation = table.Relation
	// Document is the text T with its claims C.
	Document = claims.Document
	// Claim is one verifiable statement.
	Claim = claims.Claim
	// GroundTruth is a claim's check annotation.
	GroundTruth = claims.GroundTruth
	// Team is a crowd of simulated domain experts.
	Team = crowd.Team
	// Outcome is the verification result for one claim.
	Outcome = core.Outcome
	// CostModel carries the §5.1 crowd-time constants.
	CostModel = planner.CostModel
	// World bundles a generated corpus + document.
	World = worldgen.World
	// WorldConfig parameterises synthetic world generation.
	WorldConfig = worldgen.Config
	// QueryCache memoizes tentative execution (Algorithm 2) per corpus
	// generation; a Service keeps one per registered corpus so every
	// verifier and run over that corpus deduplicates query-generation
	// work.
	QueryCache = core.QueryCache
	// QueryCacheStats is a point-in-time cache summary.
	QueryCacheStats = core.QueryCacheStats
)

// NewQueryCache builds a shared tentative-execution cache. Pass it through
// Options.QueryCache on every Verifier or System bound to the same corpus
// so concurrent verifications and sessions deduplicate query-generation
// work (Service does this automatically per registered corpus).
func NewQueryCache() *QueryCache { return core.NewQueryCache() }

// Verdict values.
const (
	VerdictCorrect   = core.VerdictCorrect
	VerdictIncorrect = core.VerdictIncorrect
	VerdictSkipped   = core.VerdictSkipped
)

// Claim kinds (paper Definitions 1 and 2).
const (
	KindExplicit = claims.Explicit
	KindGeneral  = claims.General
)

// Ordering strategies for claim scheduling: the Definition 9 ILP, the
// document-order Sequential baseline, the greedy ILP ablation and the
// seeded random-order ablation baseline of the §6.2 comparison.
const (
	OrderILP        = core.OrderILP
	OrderSequential = core.OrderSequential
	OrderGreedy     = core.OrderGreedy
	OrderRandom     = core.OrderRandom
)

// NewCorpus creates an empty relational corpus.
func NewCorpus() *Corpus { return table.NewCorpus() }

// ReadDocumentJSON parses a document (with annotations) previously written
// by Document.WriteJSON; archived past checks can bootstrap a Verifier
// (NewVerifier trains on the annotated claims) or a System through Train.
func ReadDocumentJSON(r io.Reader) (*Document, error) { return claims.ReadJSON(r) }

// ReadRelationCSV parses one relation from CSV (first column is the key
// attribute).
func ReadRelationCSV(name string, r io.Reader) (*Relation, error) {
	return table.ReadCSV(name, r)
}

// NewRelation creates a relation with a key attribute and value attributes.
func NewRelation(name, keyAttr string, attrs []string) (*Relation, error) {
	return table.NewRelation(name, keyAttr, attrs)
}

// GenerateWorld builds a synthetic IEA-like corpus and annotated document.
func GenerateWorld(cfg WorldConfig) (*World, error) { return worldgen.Generate(cfg) }

// SmallWorld returns a fast world configuration for demos and tests.
func SmallWorld() WorldConfig { return worldgen.SmallScale() }

// PaperWorld returns the paper-scale world configuration (1539 claims).
func PaperWorld() WorldConfig { return worldgen.PaperScale() }

// DefaultCostModel returns the reference §5.1 cost constants.
func DefaultCostModel() CostModel { return planner.DefaultCostModel() }

// Options configures a Verifier or a System.
type Options struct {
	// Cost overrides the crowd cost model (zero value = default).
	Cost CostModel
	// Tolerance is the admissible error rate e (default 0.05).
	Tolerance float64
	// TopK is the per-property candidate count (default 10).
	TopK int
	// EmbeddingDim sizes the word embeddings (default 32, at most 1024).
	EmbeddingDim int
	// Seed drives all randomised components.
	Seed int64
	// QueryCache optionally shares a tentative-execution cache across
	// verifiers over one corpus (see NewQueryCache). Nil keeps a private
	// per-verifier cache, still shared by all of that verifier's runs.
	QueryCache *QueryCache
}

// System verifies one document from a cold start, as Algorithm 1
// describes: one corpus + one document + a feature pipeline fitted on that
// document, with classifiers cold-started (train them via Train or let
// batch retraining warm them up as claims are verified). It is a verifier
// whose training document is the document under verification, driving
// that verifier's engine directly. Code serving many documents should use
// NewVerifier or Service instead and fit features once.
type System struct {
	v   *Verifier
	run *Run
}

// New builds a System: it fits the feature pipeline (embeddings + TF-IDF)
// on the document text and wires the engine. Claims with annotations can be
// used for training via Train; otherwise the system cold-starts.
func New(corpus *Corpus, doc *Document, opts Options) (*System, error) {
	if corpus == nil || doc == nil {
		return nil, fmt.Errorf("scrutinizer: corpus and document are required")
	}
	v, err := newVerifier(corpus, doc, opts, false)
	if err != nil {
		return nil, err
	}
	// A System is single-use: the verifier's base engine itself goes to
	// one eager run, which Train mutates and VerifyDocument retrains batch
	// by batch.
	return &System{v: v, run: &Run{verifier: v, engine: v.base, doc: doc}}, nil
}

// Engine exposes the underlying engine for advanced use (examples, benches).
func (s *System) Engine() *core.Engine { return s.run.engine }

// Train bootstraps the classifiers from previously checked claims (those
// with Truth annotations), as when "a database of previously checked claims
// is available".
func (s *System) Train(annotated []*Claim) error { return s.run.engine.Train(annotated) }

// NewTeam creates n simulated domain experts with near-perfect judgement.
func (s *System) NewTeam(n int) (*Team, error) { return s.v.NewTeam(n) }

// VerifyOptions configures document verification.
type VerifyOptions struct {
	// BatchSize is the retraining batch (default 100).
	BatchSize int
	// SectionReadCost is the per-section skim cost in seconds.
	SectionReadCost float64
	// Ordering picks the claim-ordering strategy (default OrderILP).
	Ordering core.Ordering
	// Parallelism is how many claims of a batch are verified concurrently.
	// The default (0) uses runtime.NumCPU(); 1 forces a sequential pass.
	// Results are identical at any setting: per-claim crowd random
	// streams keep verdicts independent of execution order, and batch
	// selection / retraining stay sequential between rounds.
	Parallelism int
	// Seed drives the OrderRandom ablation baseline's batch shuffling
	// (ignored by the other orderings).
	Seed int64
}

// Result bundles outcomes with reporting helpers.
type Result struct {
	doc      *claims.Document
	Outcomes []*Outcome
	Seconds  float64
	Batches  int
}

// VerifyDocument runs the full Algorithm 1 loop over the system's document,
// verifying each batch's claims across Parallelism goroutines.
func (s *System) VerifyDocument(ctx context.Context, team *Team, opts VerifyOptions) (*Result, error) {
	return s.run.Verify(ctx, team, opts)
}

// VerifyClaim verifies a single claim (it must carry a Truth annotation for
// the simulated crowd to answer from).
func (s *System) VerifyClaim(ctx context.Context, c *Claim, team *Team) (*Outcome, error) {
	return s.run.VerifyClaim(ctx, c, team)
}

// Oracle is the mixed-initiative answer source: implement it to plug real
// fact checkers (terminal, web UI, ...) into the verification flow. See
// core.Oracle for the contract and core.ScriptedOracle for a fixture
// implementation.
type Oracle = core.Oracle

// VerifyClaimWith verifies a single claim through a custom Oracle; no
// ground-truth annotation is needed when the oracle answers from a human.
func (s *System) VerifyClaimWith(ctx context.Context, c *Claim, oracle Oracle) (*Outcome, error) {
	return s.run.VerifyClaimWith(ctx, c, oracle)
}

// Interactive sessions -------------------------------------------------------
//
// A Session is the resumable, mixed-initiative counterpart of a batch run:
// the same Algorithm 1 loop, inverted so that the engine emits pending
// question screens and consumes posted answers instead of blocking on an
// Oracle. Between answers a session is parked state — no goroutines —
// which is what lets one process host thousands of checkers answering
// over HTTP (see cmd/scrutinizerd). Both paths drive the same step
// machine, so a simulated crowd pumping a session reproduces a batch
// run's verdicts bit-for-bit.

type (
	// SessionManager is a concurrent registry of verification sessions
	// with TTL eviction.
	SessionManager = session.Manager
	// Session is one parked verification run.
	Session = session.Session
	// SessionQuestion is a pending question screen.
	SessionQuestion = session.Question
	// SessionAnswer is one checker response.
	SessionAnswer = session.Answer
	// SessionProgress is a point-in-time session view.
	SessionProgress = session.Progress
	// SessionReport aggregates a session's outcomes.
	SessionReport = session.Report
	// SessionSnapshot is the durable answer log of a session.
	SessionSnapshot = session.Snapshot
	// SessionStats aggregates a manager's registry.
	SessionStats = session.Stats
)

// NewSessionManager builds a session registry. Sessions idle longer than
// ttl are evicted (0 = never); maxSessions caps concurrent sessions
// (0 = unlimited).
func NewSessionManager(ttl time.Duration, maxSessions int) *SessionManager {
	return session.NewManager(session.Config{TTL: ttl, MaxSessions: maxSessions})
}

// SessionOptions configures an interactive session.
type SessionOptions struct {
	// Verify carries the Algorithm 1 knobs (batch size, ordering,
	// section read cost, parallelism of batch assessment/retraining).
	Verify VerifyOptions
	// Checkers is the number of humans skimming each section (the
	// SectionReadCost multiplier); default 1.
	Checkers int
}

// Report renders the verification report (Definition 4 output).
func (r *Result) Report() string {
	rep := &report.Report{Document: r.doc, Outcomes: r.Outcomes, Seconds: r.Seconds}
	return rep.String()
}

// Accuracy scores the verdicts against the document's injected errors.
func (r *Result) Accuracy() float64 { return core.Accuracy(r.doc, r.Outcomes) }
