package main

// The tracer: spans recorded from the benchmark's own code around calls
// into each layer's public functions, kept in memory and reduced to self
// times at the end. A span has a name, start, end, parent and op id; the
// replay is single-threaded, so the open spans form one stack.
//
// Three spans are synthesized from events instead of wrapped calls:
//
//   - classifier.retrain and core.select split a batch-completing
//     DocumentRun.Pump or Session.Answer at the core.Observer Retrain and
//     Round events. The retrain span starts where the last crowd answer
//     of the pump ended (or at the session answer's start), so it also
//     holds the finishing of that answer's claim, a small share.
//   - core.final_screen is the engine time between a crowd answer and the
//     final-screen question it produced: Algorithm 2 query generation and
//     candidate planning.

import (
	"context"
	"sort"
	"sync"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/store"
)

// Op ids of the replay's untimed phases; timed ops are numbered from 0.
const (
	opSetup   = -1
	opRecover = -2
	opWarmup  = -3
)

type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index into spans, -1 for an op root
	op         int
}

type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	stack []int
	op    int

	// Event marks since the last reset, for span synthesis.
	retrainAt, roundAt time.Duration
	lastAnswer         time.Duration // end of the last crowd answer in this pump; -1 if none

	// Per-op counters, keyed by op id.
	counts map[int]*opCounts
}

// opCounts are the counts recorded at layer boundaries for one op.
type opCounts struct {
	retrains, rounds, scored    int
	oracleCalls, sessionAnswers int
	appends                     int
	appendBytes, answerBytes    int64
	snapshotBytes               int64
	warm, warmModels            int
	qcHits, qcMisses            uint64
	memoHits, memoMisses        uint64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: opSetup, counts: map[int]*opCounts{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// cur returns the current op's counters; caller holds t.mu.
func (t *tracer) cur() *opCounts {
	c := t.counts[t.op]
	if c == nil {
		c = &opCounts{}
		t.counts[t.op] = c
	}
	return c
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = t.now()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// child records a finished span under the innermost open span.
func (t *tracer) child(name string, start, end time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if end <= start || len(t.stack) == 0 {
		return
	}
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: t.stack[len(t.stack)-1], op: t.op})
}

// timed wraps fn in a span.
func (t *tracer) timed(name string, fn func() error) error {
	id := t.begin(name)
	defer t.end(id)
	return fn()
}

// startOp opens op's root span; endOp closes it.
func (t *tracer) startOp(op int) int {
	t.mu.Lock()
	t.op = op
	t.mu.Unlock()
	return t.begin("bench.op")
}

func (t *tracer) endOp(root int) { t.end(root) }

func (t *tracer) resetMarks() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retrainAt, t.roundAt, t.lastAnswer = -1, -1, -1
}

// splitBarrier synthesizes the retrain and select spans of a
// batch-completing call from the observer marks; from is where the
// barrier's work can have started at the earliest.
func (t *tracer) splitBarrier(from time.Duration) (retrained bool) {
	t.mu.Lock()
	r, s := t.retrainAt, t.roundAt
	t.mu.Unlock()
	if r >= 0 {
		t.child("classifier.retrain", from, r)
		from = r
	}
	if s >= 0 {
		t.child("core.select", from, s)
	}
	return r >= 0
}

// observer feeds core's run events into the tracer.
func (t *tracer) observer() *core.Observer {
	return &core.Observer{
		Round: func() {
			t.mu.Lock()
			t.roundAt = t.now()
			t.cur().rounds++
			t.mu.Unlock()
		},
		Retrain: func() {
			t.mu.Lock()
			t.retrainAt = t.now()
			t.cur().retrains++
			t.mu.Unlock()
		},
		BatchScored: func(n int) {
			t.mu.Lock()
			t.cur().scored += n
			t.mu.Unlock()
		},
	}
}

func (t *tracer) count(fn func(c *opCounts)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	fn(t.cur())
}

// pump is DocumentRun.Pump wrapped in a core.pump span, with the crowd
// oracle timed and the batch barrier split out.
func (t *tracer) pump(ctx context.Context, dr *core.DocumentRun, claimID int, o core.Oracle) (bool, error) {
	id := t.begin("core.pump")
	t.resetMarks()
	err := dr.Pump(ctx, claimID, &timedOracle{t: t, inner: o})
	t.mu.Lock()
	from := t.lastAnswer
	t.mu.Unlock()
	if from < 0 {
		from = t.spans[id].start
	}
	retrained := t.splitBarrier(from)
	t.end(id)
	return retrained, err
}

// timedOracle wraps the crowd: each answer is a crowd.oracle span, and the
// engine time before a final screen becomes core.final_screen.
type timedOracle struct {
	t     *tracer
	inner core.Oracle
}

func (o *timedOracle) AnswerProperty(c *scrutinizer.Claim, kind core.PropertyKind, options []planner.Option) (string, float64) {
	var v string
	var s float64
	o.around(false, func() { v, s = o.inner.AnswerProperty(c, kind, options) })
	return v, s
}

func (o *timedOracle) AnswerFinal(c *scrutinizer.Claim, candidates []string) (string, float64) {
	var v string
	var s float64
	o.around(true, func() { v, s = o.inner.AnswerFinal(c, candidates) })
	return v, s
}

func (o *timedOracle) around(final bool, fn func()) {
	t := o.t
	t.mu.Lock()
	prev := t.lastAnswer
	t.mu.Unlock()
	if final && prev >= 0 {
		t.child("core.final_screen", prev, t.now())
	}
	id := t.begin("crowd.oracle")
	fn()
	t.end(id)
	t.mu.Lock()
	t.lastAnswer = t.now()
	t.cur().oracleCalls++
	t.mu.Unlock()
}

// timedStore times journal and snapshot traffic at the store boundary.
// The embedded Store passes through any method not wrapped here.
type timedStore struct {
	scrutinizer.Store
	t *tracer
	// appendStart marks the start of the last append, for splitting a
	// session answer's engine time from its journal time.
	appendStart time.Duration
}

func (s *timedStore) Append(rec *store.Record) error {
	before := s.Store.Stats().JournalBytes
	id := s.t.begin("store.append")
	s.t.mu.Lock()
	s.appendStart = s.t.spans[id].start
	s.t.mu.Unlock()
	err := s.Store.Append(rec)
	s.t.end(id)
	grown := s.Store.Stats().JournalBytes - before
	s.t.count(func(c *opCounts) {
		c.appends++
		c.appendBytes += grown
	})
	return err
}

func (s *timedStore) Replay(fn func(*store.Record) error) error {
	return s.t.timed("store.replay", func() error { return s.Store.Replay(fn) })
}

func (s *timedStore) SaveSnapshot(kind, id string, data []byte) error {
	s.t.count(func(c *opCounts) { c.snapshotBytes += int64(len(data)) })
	return s.t.timed("store.save_snapshot", func() error { return s.Store.SaveSnapshot(kind, id, data) })
}

func (s *timedStore) LoadSnapshot(kind, id string) ([]byte, error) {
	var data []byte
	err := s.t.timed("store.load_snapshot", func() (err error) {
		data, err = s.Store.LoadSnapshot(kind, id)
		return err
	})
	return data, err
}

// answer is Session.Answer in a session.answer span. An answer that
// completes a batch gets its retrain and select split out; one that
// produces a final screen gets its engine time (before the journal
// append) recorded as core.final_screen.
func (t *tracer) answer(ctx context.Context, st *timedStore, sess *scrutinizer.Session, a scrutinizer.SessionAnswer) (*scrutinizer.SessionQuestion, error) {
	t.resetMarks()
	id := t.begin("session.answer")
	start := t.spans[id].start
	st.appendStart = -1
	var bytesBefore int64
	t.count(func(c *opCounts) { bytesBefore = c.appendBytes })
	next, err := sess.Answer(ctx, a)
	retrained := t.splitBarrier(start)
	if !retrained && next != nil && next.Screen == "final" {
		engineEnd := t.now()
		if st.appendStart >= 0 {
			engineEnd = st.appendStart
		}
		t.child("core.final_screen", start, engineEnd)
	}
	t.end(id)
	t.count(func(c *opCounts) {
		c.sessionAnswers++
		c.answerBytes += c.appendBytes - bytesBefore
	})
	return next, err
}

// selfTimes reduces the spans of ops accepted by keep to self time per
// span name: a span's duration minus the union of its children's
// intervals. It also returns each op's root duration and its summed self
// time, which must agree.
func (t *tracer) selfTimes(keep func(op int) bool) (self map[string]time.Duration, roots, sums map[int]time.Duration) {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self = map[string]time.Duration{}
	roots, sums = map[int]time.Duration{}, map[int]time.Duration{}
	for i, s := range t.spans {
		if !keep(s.op) {
			continue
		}
		d := s.end - s.start
		if s.parent < 0 {
			roots[s.op] += d
		}
		st := d - covered(t.spans, s, children[i])
		self[s.name] += st
		sums[s.op] += st
	}
	return self, roots, sums
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(spans []span, parent span, kids []int) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
