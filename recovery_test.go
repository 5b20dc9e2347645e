package scrutinizer

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/repro/scrutinizer/internal/session"
	"github.com/repro/scrutinizer/internal/store"
)

// This file is the library half of the crash-recovery harness (the HTTP
// half lives in cmd/scrutinizerd): a service with an attached store is
// driven partway through the /v1 lifecycle, "crashes" (the live objects are
// abandoned), and a fresh service recovers from the journal. The assertions
// are bit-identity — recovery is only correct if the recovered registry
// verifies exactly like the one that never crashed.

// recoveryWorld is a small world: recovery tests replay journals many times
// over, so the per-replay training cost matters.
func recoveryWorld(t *testing.T) *World {
	t.Helper()
	cfg := SmallWorld()
	cfg.NumClaims = 16
	cfg.NumSections = 3
	w, err := GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// attachedService builds an empty service attached to st (Recover on a
// fresh store is the documented way to attach).
func attachedService(t *testing.T, st Store, mgr *SessionManager) *Service {
	t.Helper()
	svc := NewService()
	if _, err := svc.Recover(st, mgr); err != nil {
		t.Fatal(err)
	}
	return svc
}

// answerNext feeds the session's first pending question a fixed answer —
// the deterministic checker of the harness: both the reference run and the
// recovered run answer every question identically, so their final reports
// must agree bit for bit.
func answerNext(t *testing.T, sess *Session) {
	t.Helper()
	qs := sess.Questions()
	if len(qs) == 0 {
		t.Fatal("no pending questions")
	}
	if _, err := sess.Answer(context.Background(), SessionAnswer{ClaimID: qs[0].ClaimID, Value: "suggestion", Seconds: 2}); err != nil {
		t.Fatal(err)
	}
}

// driveToCompletion answers until the session reports done.
func driveToCompletion(t *testing.T, sess *Session) {
	t.Helper()
	for i := 0; !sess.Done(); i++ {
		if i > 10000 {
			t.Fatal("session did not converge")
		}
		answerNext(t, sess)
	}
}

// mustEqualReports asserts two session reports are bit-identical.
func mustEqualReports(t *testing.T, label string, want, got SessionReport) {
	t.Helper()
	if want.Done != got.Done || want.Seconds != got.Seconds ||
		want.Batches != got.Batches || want.Accuracy != got.Accuracy {
		t.Fatalf("%s: report header diverged: %+v vs %+v", label, got, want)
	}
	if len(want.Outcomes) != len(got.Outcomes) {
		t.Fatalf("%s: outcome counts %d vs %d", label, len(got.Outcomes), len(want.Outcomes))
	}
	for i := range want.Outcomes {
		a, b := want.Outcomes[i], got.Outcomes[i]
		if a.ClaimID != b.ClaimID || a.Verdict != b.Verdict || a.Seconds != b.Seconds ||
			a.Value != b.Value || a.HasSuggestion != b.HasSuggestion || a.Suggestion != b.Suggestion {
			t.Fatalf("%s: outcome %d diverged: %+v vs %+v", label, i, b, a)
		}
	}
}

// batchRun verifies doc in one batch run of v.
func batchRun(t *testing.T, v *Verifier, doc *Document) *Result {
	t.Helper()
	run, err := v.StartRun(context.Background(), doc)
	if err != nil {
		t.Fatal(err)
	}
	team, err := v.NewTeam(3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := run.Verify(context.Background(), team, VerifyOptions{BatchSize: 6})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRecoveryRoundTrip is the core harness: drive a corpus + verifier +
// interactive session partway, recover a fresh service from the journal,
// and assert the recovered registry is bit-identical to the uninterrupted
// one — same session state, same remaining walkthrough, same batch-run
// verdicts from the verifier that recovery retrained from its journaled
// training document. Creating the verifier parks no model snapshot: the
// journal is all recovery reads.
func TestRecoveryRoundTrip(t *testing.T) {
	w := recoveryWorld(t)
	docA, docB := splitWorldDoc(w)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, st, mgr)

	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		answerNext(t, sess)
	}
	preCrash := sess.Progress()

	// "Crash": the live service is abandoned; only the store survives.
	mgr2 := NewSessionManager(0, 0)
	svc2 := NewService()
	stats, err := svc2.Recover(st, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corpora != 1 || stats.Verifiers != 1 || stats.Sessions != 1 || stats.SessionsSkipped != 0 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	if n := st.Stats().Snapshots; n != 0 {
		t.Fatalf("creating a verifier parked %d model snapshots, want none", n)
	}

	sess2, ok := mgr2.Get(sess.ID())
	if !ok {
		t.Fatalf("session %q not recovered", sess.ID())
	}
	if sess2.Owner() != v.ID() {
		t.Fatalf("recovered session owner %q, want %q", sess2.Owner(), v.ID())
	}
	p := sess2.Progress()
	if p.Answered != preCrash.Answered || p.Verified != preCrash.Verified ||
		p.Batches != preCrash.Batches || p.PendingQuestions != preCrash.PendingQuestions ||
		p.CrowdSeconds != preCrash.CrowdSeconds || p.ModelGeneration != preCrash.ModelGeneration {
		t.Fatalf("recovered progress diverged:\n  got  %+v\n  want %+v", p, preCrash)
	}
	if !reflect.DeepEqual(sess2.Questions(), sess.Questions()) {
		t.Fatal("recovered session queues different questions")
	}

	// Finish both sessions with the same deterministic checker: the
	// recovered walkthrough must end in the same report.
	driveToCompletion(t, sess)
	driveToCompletion(t, sess2)
	mustEqualReports(t, "session after recovery", sess.Report(), sess2.Report())

	// And the retrained verifier verifies a second document bit-identically.
	v2, ok := svc2.Verifier(v.ID())
	if !ok {
		t.Fatal("verifier not recovered")
	}
	if v2.TrainedOn() != v.TrainedOn() {
		t.Fatalf("trained_on %d vs %d", v2.TrainedOn(), v.TrainedOn())
	}
	mustEqualResults(t, "batch run after recovery", batchRun(t, v, docB), batchRun(t, v2, docB))
}

// TestRecoveryRetrainFallback pins recovery from a journal with no blobs
// at all (here: a store whose journal was copied without them): the
// verifier is deterministically retrained from the journaled training
// document and still verifies bit-identically.
func TestRecoveryRetrainFallback(t *testing.T) {
	w := recoveryWorld(t)
	_, docB := splitWorldDoc(w)
	st := NewMemoryStore()
	svc := attachedService(t, st, nil)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	// Journal only: CloneWithPrefix copies every record and drops the blobs.
	bare := st.CloneWithPrefix(int(st.Stats().Records))
	if n := bare.Stats().Snapshots; n != 0 {
		t.Fatalf("journal-only copy holds %d blobs", n)
	}
	svc2 := NewService()
	stats, err := svc2.Recover(bare, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Corpora != 1 || stats.Verifiers != 1 {
		t.Fatalf("recovery stats: %+v", stats)
	}
	v2, ok := svc2.Verifier(v.ID())
	if !ok {
		t.Fatal("verifier not recovered")
	}
	if v2.TrainedOn() != v.TrainedOn() {
		t.Fatalf("trained_on %d vs %d", v2.TrainedOn(), v.TrainedOn())
	}
	mustEqualResults(t, "retrained verifier", batchRun(t, v, docB), batchRun(t, v2, docB))
}

// legacyModelBlob is a verifier model blob in the shape older builds
// parked through SaveSnapshot: JSON-encoded classifier states and formula
// library. Its one model is deliberately wrong, so a reader that restored
// from it would verify differently from a retrained verifier.
const legacyModelBlob = `{"version":1,"gen":1,"models":{"relation":{"config":{},"labels":["x"],"dim":1,"w":[1],"gsq":[1],"bias":[0],"gsq_b":[0],"trained":1,"rounds":1}},"formulas":["A1"],"formula_counts":[1]}`

// loadCountingStore counts snapshot reads.
type loadCountingStore struct {
	Store
	loads atomic.Int64
}

func (s *loadCountingStore) LoadSnapshot(kind, id string) ([]byte, error) {
	s.loads.Add(1)
	return s.Store.LoadSnapshot(kind, id)
}

// TestRecoveryIgnoresLegacySnapshot is the upgrade path: a store that
// holds a verifier model blob an older build parked boots without reading
// it, verifies and finishes sessions exactly like a journal-only boot, and
// deleting the verifier removes the blob.
func TestRecoveryIgnoresLegacySnapshot(t *testing.T) {
	w := recoveryWorld(t)
	docA, docB := splitWorldDoc(w)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, st, mgr)
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 6, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		answerNext(t, sess)
	}
	// The journal-only copy drops blobs; the legacy store gains one.
	bare := st.CloneWithPrefix(int(st.Stats().Records))
	if err := st.SaveSnapshot("verifier", v.ID(), []byte(legacyModelBlob)); err != nil {
		t.Fatal(err)
	}

	boot := func(from Store) (*Verifier, *Session, *Service) {
		t.Helper()
		mgr := NewSessionManager(0, 0)
		svc := NewService()
		stats, err := svc.Recover(from, mgr)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Verifiers != 1 || stats.Sessions != 1 {
			t.Fatalf("recovery stats: %+v", stats)
		}
		rv, ok := svc.Verifier(v.ID())
		if !ok {
			t.Fatal("verifier not recovered")
		}
		rs, ok := mgr.Get(sess.ID())
		if !ok {
			t.Fatal("session not recovered")
		}
		return rv, rs, svc
	}
	legacy := &loadCountingStore{Store: st}
	vLegacy, sessLegacy, svcLegacy := boot(legacy)
	if n := legacy.loads.Load(); n != 0 {
		t.Fatalf("Recover read %d snapshot blobs, want none", n)
	}
	vBare, sessBare, _ := boot(bare)

	mustEqualResults(t, "legacy-store boot vs journal-only boot", batchRun(t, vBare, docB), batchRun(t, vLegacy, docB))
	driveToCompletion(t, sessLegacy)
	driveToCompletion(t, sessBare)
	mustEqualReports(t, "legacy-store session vs journal-only session", sessBare.Report(), sessLegacy.Report())

	if ok, err := svcLegacy.RemoveVerifier(v.ID()); err != nil || !ok {
		t.Fatalf("RemoveVerifier: ok=%v err=%v", ok, err)
	}
	if n := st.Stats().Snapshots; n != 0 {
		t.Fatalf("deleting the verifier left %d snapshot blobs", n)
	}
}

// registrySummary flattens the recoverable state into comparable strings:
// corpora with their shapes, verifiers with their training counts, and the
// progress of every session in ids.
func registrySummary(svc *Service, mgr *SessionManager, ids []string) []string {
	var out []string
	for _, ci := range svc.Corpora() {
		out = append(out, fmt.Sprintf("corpus %s rel=%d rows=%d cells=%d", ci.ID, ci.Relations, ci.Rows, ci.Cells))
	}
	for _, vi := range svc.Verifiers() {
		out = append(out, fmt.Sprintf("verifier %s corpus=%s trained=%d", vi.ID, vi.CorpusID, vi.TrainedOn))
	}
	if mgr != nil {
		for _, id := range ids {
			sess, ok := mgr.Get(id)
			if !ok {
				out = append(out, fmt.Sprintf("session %s gone", id))
				continue
			}
			p := sess.Progress()
			out = append(out, fmt.Sprintf("session %s answered=%d verified=%d batches=%d pending=%d secs=%v done=%v",
				id, p.Answered, p.Verified, p.Batches, p.PendingQuestions, p.CrowdSeconds, p.Done))
		}
	}
	return out
}

// TestRecoveryJournalPrefixProperty is the property test: after every
// single mutation of a full walkthrough, the live registry state is
// captured; recovering a fresh service from exactly that journal prefix
// must reproduce the captured state. Since every mutation appends exactly
// one record, the checkpoints cover every journal prefix.
func TestRecoveryJournalPrefixProperty(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	st := NewMemoryStore()
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, st, mgr)

	var sessIDs []string
	type checkpoint struct {
		records int
		ids     []string
		summary []string
	}
	var checkpoints []checkpoint
	mark := func() {
		ids := append([]string(nil), sessIDs...)
		checkpoints = append(checkpoints, checkpoint{
			records: int(st.Stats().Records),
			ids:     ids,
			summary: registrySummary(svc, mgr, ids),
		})
	}

	mark() // empty prefix
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	mark()
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mark()
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 5, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	sessIDs = append(sessIDs, sess.ID())
	mark()
	for i := 0; i < 3; i++ {
		answerNext(t, sess)
		mark()
	}

	// A scratch corpus exercises relation put/delete/put and the delete
	// cascade over a second verifier.
	if _, err := svc.AddCorpus("scratch", NewCorpus()); err != nil {
		t.Fatal(err)
	}
	mark()
	rel, err := w.Corpus.Relation(w.Corpus.Names()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.PutRelation("scratch", rel); err != nil {
		t.Fatal(err)
	}
	mark()
	if existed, err := svc.DropRelation("scratch", rel.Name()); err != nil || !existed {
		t.Fatalf("DropRelation: existed=%v err=%v", existed, err)
	}
	mark()
	if _, err := svc.PutRelation("scratch", rel); err != nil {
		t.Fatal(err)
	}
	mark()
	if ok, err := svc.RemoveCorpus("scratch"); err != nil || !ok {
		t.Fatalf("RemoveCorpus: ok=%v err=%v", ok, err)
	}
	mark()
	if removed := mgr.Remove(sess.ID()); !removed {
		t.Fatal("Remove session failed")
	}
	mark()

	if got := int(st.Stats().Records); got != len(checkpoints)-1 {
		t.Fatalf("each mutation should journal exactly one record: %d records, %d checkpoints", got, len(checkpoints))
	}

	for _, cp := range checkpoints {
		prefix := st.CloneWithPrefix(cp.records)
		mgr2 := NewSessionManager(0, 0)
		svc2 := NewService()
		if _, err := svc2.Recover(prefix, mgr2); err != nil {
			t.Fatalf("prefix %d: recover: %v", cp.records, err)
		}
		got := registrySummary(svc2, mgr2, cp.ids)
		if !reflect.DeepEqual(got, cp.summary) {
			t.Fatalf("prefix %d diverged:\n  got  %v\n  want %v", cp.records, got, cp.summary)
		}
	}
}

// fakeClock is a deterministic time source for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestRecoveryExpiredSessionNotResurrected: a session evicted by the TTL
// sweep journals its deletion, so recovery must not bring it back — an
// expired walkthrough stays expired across a restart.
func TestRecoveryExpiredSessionNotResurrected(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	st := NewMemoryStore()
	clk := &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	mgr := session.NewManager(session.Config{TTL: time.Minute, Clock: clk.Now})
	svc := attachedService(t, st, mgr)

	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{Verify: VerifyOptions{BatchSize: 5}})
	if err != nil {
		t.Fatal(err)
	}
	answerNext(t, sess)
	id := sess.ID()

	clk.Advance(2 * time.Minute)
	if stats := mgr.Stats(); stats.Active != 0 || stats.EvictedTotal != 1 {
		t.Fatalf("session should be TTL-evicted: %+v", stats)
	}

	// The eviction must be durable: a fresh recovery sees the delete
	// record and does not re-park the session.
	mgr2 := NewSessionManager(0, 0)
	svc2 := NewService()
	stats, err := svc2.Recover(st, mgr2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 0 || stats.SessionsSkipped != 0 {
		t.Fatalf("expired session resurrected: %+v", stats)
	}
	if _, ok := mgr2.Get(id); ok {
		t.Fatalf("session %q came back from the dead", id)
	}
	if stats.Verifiers != 1 {
		t.Fatalf("verifier should survive: %+v", stats)
	}
}

// TestRecoveryJournalFailureRollsBack: when the store stops accepting
// appends (fault injection), every mutation is rolled back and surfaces
// ErrJournal — the registry never acknowledges state the journal does not
// hold, so a recovery matches exactly what clients were told succeeded.
func TestRecoveryJournalFailureRollsBack(t *testing.T) {
	w := recoveryWorld(t)
	docA, _ := splitWorldDoc(w)
	inner := NewMemoryStore()
	faulty := NewFaultyStore(inner, 2, false) // corpus create + verifier create succeed
	mgr := NewSessionManager(0, 0)
	svc := attachedService(t, faulty, mgr)

	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	v, err := svc.CreateVerifier("world", w.Document, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	// Budget exhausted: every further mutation must fail with ErrJournal
	// and leave no trace.
	if _, err := v.StartSession(context.Background(), mgr, docA, SessionOptions{}); err == nil {
		t.Fatal("StartSession acknowledged without a journal record")
	}
	if stats := mgr.Stats(); stats.Active != 0 {
		t.Fatalf("rolled-back session still registered: %+v", stats)
	}
	if _, err := svc.AddCorpus("doomed", NewCorpus()); !errors.Is(err, ErrJournal) || !errors.Is(err, store.ErrInjected) {
		t.Fatalf("AddCorpus: want ErrJournal wrapping the injected fault, got %v", err)
	}
	if _, ok := svc.Corpus("doomed"); ok {
		t.Fatal("rolled-back corpus still registered")
	}
	if ok, err := svc.RemoveVerifier(v.ID()); !errors.Is(err, ErrJournal) || ok {
		t.Fatalf("RemoveVerifier: want ErrJournal, got ok=%v err=%v", ok, err)
	}
	if _, ok := svc.Verifier(v.ID()); !ok {
		t.Fatal("failed removal lost the verifier")
	}
	if ok, err := svc.RemoveCorpus("world"); !errors.Is(err, ErrJournal) || ok {
		t.Fatalf("RemoveCorpus: want ErrJournal, got ok=%v err=%v", ok, err)
	}
	if _, ok := svc.Corpus("world"); !ok {
		t.Fatal("failed removal lost the corpus")
	}
	if !faulty.Tripped() {
		t.Fatal("fault injector never tripped")
	}

	// The journal holds exactly the two acknowledged mutations.
	svc2 := NewService()
	stats, err := svc2.Recover(inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 2 || stats.Corpora != 1 || stats.Verifiers != 1 {
		t.Fatalf("recovered more or less than was acknowledged: %+v", stats)
	}
}

// TestRecoveryRequiresEmptyService: Recover is a boot-time call; a
// populated registry must refuse it rather than merge.
func TestRecoveryRequiresEmptyService(t *testing.T) {
	w := recoveryWorld(t)
	svc := NewService()
	if _, err := svc.AddCorpus("world", w.Corpus); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Recover(NewMemoryStore(), nil); err == nil {
		t.Fatal("Recover merged into a populated service")
	}
	if _, err := svc.Recover(nil, nil); err == nil {
		t.Fatal("Recover accepted a nil store")
	}
}
