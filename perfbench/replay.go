package main

// The traced run: the same set-up, restart, warm-up and timed ops
// replayed in-process against scrutinizer.Service with one client, every
// layer call wrapped in a span. It must reproduce the untraced run's
// outcomes and its /metrics counts exactly.

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/feature"
)

// replayer holds the in-process service under trace.
type replayer struct {
	b         *bench
	t         *tracer
	svc       *scrutinizer.Service
	mgr       *scrutinizer.SessionManager
	st        *timedStore
	verifiers []*scrutinizer.Verifier
	crowds    []*crowd
	freshSeq  int
}

// traceResult is what the replay measured.
type traceResult struct {
	t                 *tracer
	ref               *measurement
	claims            int
	attempted, failed int
	errs              []string
}

func (r *traceResult) fail(format string, args ...any) {
	if len(r.errs) < 20 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *traceResult) correct() bool { return r.failed == 0 && len(r.errs) == 0 }

// selfTolerance bounds how far an op's summed span self times may stray
// from its measured duration (clock reads between spans are the only
// uncovered time, and they are attributed to the enclosing span).
const selfTolerance = 0.005

func (b *bench) replay(m *measurement) (res *traceResult, err error) {
	t := newTracer()
	core.SetObserver(t.observer())
	defer core.SetObserver(nil)
	dir, err := b.scratchDir("replay")
	if err != nil {
		return nil, err
	}
	rp := &replayer{b: b, t: t}
	for _, tn := range b.in.tenants[:b.in.parked] {
		cr, err := newCrowd(tn, b.in.team)
		if err != nil {
			return nil, err
		}
		rp.crowds = append(rp.crowds, cr)
	}
	ctx := context.Background()

	// Set-up, as the daemon's first boot and the client's tenant calls.
	root := t.startOp(opSetup)
	ids, err := rp.setUp(ctx, dir)
	t.endOp(root)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	// Restart on the journal set-up left.
	root = t.startOp(opRecover)
	err = rp.open(dir, ids)
	t.endOp(root)
	if err != nil {
		return nil, fmt.Errorf("recovery: %w", err)
	}
	defer rp.st.Close()

	// Warm-up, as in the untraced run. Fresh ops share no state with it,
	// so the document workload skips it.
	res = &traceResult{t: t, ref: m}
	if !b.in.fresh {
		root = t.startOp(opWarmup)
		for si := range b.in.specs {
			out, err := rp.op(ctx, si, false)
			if err != nil {
				t.endOp(root)
				return nil, fmt.Errorf("warm-up op %d: %w", si, err)
			}
			if out.hash() != m.refs[si].hash() {
				res.fail("warm-up op %d: replay hash %s, untraced %s", si, out.hash(), m.refs[si].hash())
			}
		}
		t.endOp(root)
	}

	// The timed ops, in the order the untraced window started them.
	for i, rec := range m.window {
		memoH, memoM := feature.MemoStats()
		root := t.startOp(i)
		out, err := rp.op(ctx, rec.spec, b.in.fresh)
		t.endOp(root)
		h, mm := feature.MemoStats()
		t.count(func(c *opCounts) { c.memoHits, c.memoMisses = h-memoH, mm-memoM })
		res.attempted++
		switch {
		case err != nil:
			res.failed++
			res.fail("replayed op %d: %v", i, err)
		case m.refs[rec.spec] == nil:
			res.failed++
			res.fail("replayed op %d: no untraced op of its document succeeded", i)
		case out.hash() != m.refs[rec.spec].hash():
			res.failed++
			res.fail("replayed op %d: hash %s, untraced %s", i, out.hash(), m.refs[rec.spec].hash())
		default:
			res.claims += out.claims
		}
	}
	res.crossCheck()
	return res, nil
}

// setUp boots an empty durable service and creates the tenants and parked
// sessions, returning the verifier IDs.
func (rp *replayer) setUp(ctx context.Context, dir string) (ids []string, err error) {
	if err := rp.open(dir, nil); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := rp.st.Close(); err == nil {
			err = cerr
		}
	}()
	startup, err := rp.b.in.tenants[0].parseCorpus()
	if err != nil {
		return nil, err
	}
	if _, err := rp.svc.AddCorpus("default", startup); err != nil {
		return nil, err
	}
	for _, tn := range rp.b.in.tenants {
		v, err := rp.createTenant(tn, tn.corpusID)
		if err != nil {
			return nil, err
		}
		rp.verifiers = append(rp.verifiers, v)
		ids = append(ids, v.ID())
	}
	for ti := range rp.crowds {
		if err := rp.park(ctx, ti); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// open attaches a fresh service to the file store in dir, replaying its
// journal; ids (when set) re-binds the tenants to the recovered verifiers.
func (rp *replayer) open(dir string, ids []string) error {
	fs, err := scrutinizer.OpenFileStore(dir)
	if err != nil {
		return err
	}
	rp.st = &timedStore{Store: fs, t: rp.t}
	rp.svc = scrutinizer.NewService()
	rp.mgr = scrutinizer.NewSessionManager(30*time.Minute, 256)
	if err := rp.t.timed("scrutinizer.recover", func() error {
		_, err := rp.svc.Recover(rp.st, rp.mgr)
		return err
	}); err != nil {
		return err
	}
	if ids == nil {
		return nil
	}
	rp.verifiers = rp.verifiers[:0]
	for _, id := range ids {
		v, ok := rp.svc.Verifier(id)
		if !ok {
			return fmt.Errorf("verifier %s not recovered", id)
		}
		rp.verifiers = append(rp.verifiers, v)
	}
	return nil
}

// createTenant mirrors POST /v1/corpora plus POST .../verifiers.
func (rp *replayer) createTenant(tn *tenant, corpusID string) (*scrutinizer.Verifier, error) {
	if err := rp.t.timed("scrutinizer.add_corpus", func() error {
		corpus, err := tn.parseCorpus()
		if err != nil {
			return err
		}
		_, err = rp.svc.AddCorpus(corpusID, corpus)
		return err
	}); err != nil {
		return nil, err
	}
	train, err := scrutinizer.ReadDocumentJSON(bytes.NewReader(tn.training))
	if err != nil {
		return nil, err
	}
	var v *scrutinizer.Verifier
	err = rp.t.timed("scrutinizer.create_verifier", func() (err error) {
		v, err = rp.svc.CreateVerifier(corpusID, train, scrutinizer.Options{Seed: tn.seed})
		return err
	})
	return v, err
}

// op replays one op of the pool.
func (rp *replayer) op(ctx context.Context, si int, fresh bool) (*outcome, error) {
	sp := rp.b.in.specs[si]
	tn := rp.b.in.tenants[sp.tenant]
	d := tn.docs[sp.doc]
	if !fresh {
		return rp.batch(ctx, rp.verifiers[sp.tenant], d)
	}
	rp.freshSeq++
	id := fmt.Sprintf("%s-op%d", tn.corpusID, rp.freshSeq)
	v, err := rp.createTenant(tn, id)
	if err != nil {
		return nil, err
	}
	out, err := rp.batch(ctx, v, d)
	if err != nil {
		return nil, err
	}
	return out, rp.t.timed("scrutinizer.remove_corpus", func() error {
		_, err := rp.svc.RemoveCorpus(id)
		return err
	})
}

// batch mirrors a mode=batch run: Verifier.StartRun, then the Algorithm 1
// loop of Run.Verify unrolled over Run.Engine() — StartDocument, one
// Pump per batch claim with the team's per-claim oracle — so each layer
// boundary can carry a span.
func (rp *replayer) batch(ctx context.Context, v *scrutinizer.Verifier, d *docInput) (*outcome, error) {
	in, t := rp.b.in, rp.t
	doc, err := scrutinizer.ReadDocumentJSON(bytes.NewReader(d.raw))
	if err != nil {
		return nil, err
	}
	var run *scrutinizer.Run
	if err := t.timed("scrutinizer.start_run", func() (err error) {
		run, err = v.StartRun(ctx, doc)
		return err
	}); err != nil {
		return nil, err
	}
	defer run.Close()
	team, err := v.NewTeam(in.team)
	if err != nil {
		return nil, err
	}
	eng := run.Engine()
	qc0 := eng.QueryCacheStats()
	var dr *core.DocumentRun
	if err := t.timed("core.start_document", func() (err error) {
		dr, err = eng.StartDocument(ctx, doc, core.VerifyConfig{
			BatchSize: in.batch, Parallelism: rp.b.parallel, Checkers: team.Size(),
		})
		return err
	}); err != nil {
		return nil, err
	}
	for !dr.Done() {
		for _, id := range dr.BatchClaims() {
			o, err := eng.NewTeamOracle(team.ForClaim(id))
			if err != nil {
				return nil, err
			}
			retrained, err := t.pump(ctx, dr, id, o)
			if err != nil {
				return nil, err
			}
			if retrained {
				t.count(func(c *opCounts) {
					for _, k := range core.PropertyKinds() {
						c.warmModels++
						if eng.Model(k).WarmStarted() {
							c.warm++
						}
					}
				})
			}
		}
		if err := dr.Err(); err != nil {
			return nil, err
		}
	}
	res, err := dr.Result()
	if err != nil {
		return nil, err
	}
	qc1 := eng.QueryCacheStats()
	t.count(func(c *opCounts) {
		c.qcHits += qc1.Hits - qc0.Hits
		c.qcMisses += qc1.Misses - qc0.Misses
	})
	out := &outcome{claims: len(doc.Claims), crowdS: res.Seconds, accuracy: core.Accuracy(doc, res.Outcomes), verdicts: map[int]string{}}
	for _, o := range res.Outcomes {
		out.verdicts[o.ClaimID] = o.Verdict.String()
	}
	return out, nil
}

// park mirrors the client's parkSession against the facade: start an
// interactive session on the tenant's first document and answer it
// question by question (crowd answers timed as crowd.oracle, each answer
// a session.answer span) until half its claims are verified.
func (rp *replayer) park(ctx context.Context, ti int) error {
	in, t := rp.b.in, rp.t
	d := in.tenants[ti].docs[0]
	doc, err := scrutinizer.ReadDocumentJSON(bytes.NewReader(d.raw))
	if err != nil {
		return err
	}
	var sess *scrutinizer.Session
	if err := t.timed("scrutinizer.start_run", func() (err error) {
		sess, err = rp.verifiers[ti].StartSession(ctx, rp.mgr, doc, scrutinizer.SessionOptions{
			Verify:   scrutinizer.VerifyOptions{BatchSize: sessionBatch, Parallelism: rp.b.parallel},
			Checkers: in.team,
		})
		return err
	}); err != nil {
		return err
	}
	answerer := rp.crowds[ti].forRun()
	queue := sess.Questions()
	for sess.Progress().Verified < len(doc.Claims)/2 {
		if sess.Done() || len(queue) == 0 {
			return fmt.Errorf("session %s stalled", sess.ID())
		}
		var ans scrutinizer.SessionAnswer
		if err := t.timed("crowd.oracle", func() (err error) {
			ans, err = answerer.answer(queue[0])
			return err
		}); err != nil {
			return err
		}
		queue = queue[1:]
		t.count(func(c *opCounts) { c.oracleCalls++ })
		next, err := t.answer(ctx, rp.st, sess, ans)
		if err != nil {
			return err
		}
		if next != nil {
			queue = append(queue, *next)
		}
		if len(queue) == 0 && !sess.Done() {
			queue = sess.Questions()
		}
	}
	return nil
}
