package main

// Metric assembly: the end-to-end metrics of the untraced run and the
// per-layer metrics of the traced replay, with the replay's cross-check.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// infMs stands in for an infinite latency percentile (more than 1% of the
// samples failed), which JSON cannot carry.
const infMs = 1e12

// percentile reads the p-quantile of sorted samples (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return infMs
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	if math.IsInf(sorted[i], 1) {
		return infMs
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// endToEnd is what a user of the system sees, from the untraced run.
func (m *measurement) endToEnd() map[string]metric {
	lats := m.latencies()
	var crowdS float64
	var claims, right, total int
	for si, ref := range m.refs {
		if ref == nil {
			continue // its every op failed
		}
		crowdS += ref.crowdS
		claims += ref.claims
		r, n := score(docOf(m.in, si).doc, ref.verdicts)
		right += r
		total += n
	}
	out := map[string]metric{
		"setup_s":             {median(m.setupS), "s"},
		"recovery_s":          {median(m.recoveryS), "s"},
		"claims_per_s":        {float64(m.windowClaims()) / m.windowS, "claims/s"},
		"latency_p50_ms":      {percentile(lats, 0.50), "ms"},
		"latency_p99_ms":      {percentile(lats, 0.99), "ms"},
		"checker_s_per_claim": {crowdS / float64(max(claims, 1)), "s"},
		"accuracy":            {float64(right) / float64(max(total, 1)), "ratio"},
		"peak_rss_mb":         {m.rssMiB, "MiB"},
	}
	return out
}

func docOf(in *inputs, si int) *docInput {
	sp := in.specs[si]
	return in.tenants[sp.tenant].docs[sp.doc]
}

// windowOps keeps the timed ops' spans.
func windowOps(op int) bool { return op >= 0 }

// sum adds up the counters of the ops keep accepts.
func (r *traceResult) sum(keep func(int) bool) opCounts {
	var s opCounts
	for op, c := range r.t.counts {
		if !keep(op) {
			continue
		}
		s.retrains += c.retrains
		s.rounds += c.rounds
		s.scored += c.scored
		s.oracleCalls += c.oracleCalls
		s.sessionAnswers += c.sessionAnswers
		s.appends += c.appends
		s.appendBytes += c.appendBytes
		s.answerBytes += c.answerBytes
		s.snapshotBytes += c.snapshotBytes
		s.warm += c.warm
		s.warmModels += c.warmModels
		s.qcHits += c.qcHits
		s.qcMisses += c.qcMisses
		s.memoHits += c.memoHits
		s.memoMisses += c.memoMisses
	}
	return s
}

// crossCheck holds the replay to the untraced run: its retrain, round,
// scored-claim and journal-append counts must equal the daemon's /metrics
// deltas over the timed window, and every op's span self times must sum to
// the op's duration.
func (r *traceResult) crossCheck() {
	m := r.ref
	s := r.sum(windowOps)
	for _, c := range []struct {
		what   string
		traced int
		series string
	}{
		{"retrains", s.retrains, "scrutinizer_model_retrains_total"},
		{"rounds", s.rounds, "scrutinizer_run_rounds_total"},
		{"batch-scored claims", s.scored, "scrutinizer_batch_scored_claims_sum"},
		{"journal appends", s.appends, "scrutinizer_store_appends_total"},
	} {
		if d := delta(m.before, m.after, c.series, nil); float64(c.traced) != d {
			r.fail("%s: traced replay %d, daemon /metrics delta %v", c.what, c.traced, d)
		}
	}
	_, roots, sums := r.t.selfTimes(func(int) bool { return true })
	for op, root := range roots {
		if gap := math.Abs(float64(sums[op]-root)) / float64(max(root, 1)); gap > selfTolerance {
			r.fail("op %d: span self times sum to %v, op took %v", op, sums[op], root)
		}
	}
}

// perLayer is the traced run's per-layer view. Times are span self times
// and, like counts, are per timed op unless the unit says otherwise; the
// scrutinizerd rows come from the untraced run's client accounting and
// /metrics deltas, the only view of the HTTP layer.
func perLayer(m *measurement, r *traceResult) map[string]metric {
	self, roots, _ := r.t.selfTimes(windowOps)
	ops := float64(max(len(m.window), 1))
	var wall time.Duration
	for _, d := range roots {
		wall += d
	}
	perOp := func(d time.Duration) float64 { return d.Seconds() / ops }
	s := r.sum(windowOps)
	setup := r.sum(func(op int) bool { return op == opSetup })
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	// Every verifier created, at set-up or inside document ops.
	cvSelf, _, _ := r.t.selfTimes(func(op int) bool { return op == opSetup || op >= 0 })
	created := 0
	for _, sp := range r.t.spans {
		if sp.name == "scrutinizer.create_verifier" && (sp.op == opSetup || sp.op >= 0) {
			created++
		}
	}
	recSelf, _, _ := r.t.selfTimes(func(op int) bool { return op == opRecover })
	setupSelf, _, _ := r.t.selfTimes(func(op int) bool { return op == opSetup })

	var sent, respBytes int
	var clientS float64
	for _, rec := range m.window {
		sent += rec.a.requests
		respBytes += rec.a.respBytes
		clientS += rec.a.clientS
	}
	handlerS := delta(m.before, m.after, "scrutinizer_http_request_seconds_sum", apiRoute)
	tracedCPS := float64(r.claims) / math.Max(wall.Seconds(), 1e-9)
	untracedCPS := float64(m.windowClaims()) / m.windowS

	return map[string]metric{
		"classifier.retrains":           {float64(s.retrains) / ops, "count/op"},
		"classifier.retrain_s":          {perOp(self["classifier.retrain"]), "s/op"},
		"classifier.warm_ratio":         {ratio(s.warm, s.warmModels), "ratio"},
		"core.start_document_s":         {perOp(self["core.start_document"]), "s/op"},
		"core.rounds":                   {float64(s.rounds) / ops, "count/op"},
		"core.select_s":                 {perOp(self["core.select"]), "s/op"},
		"core.pump_s":                   {perOp(self["core.pump"]), "s/op"},
		"core.batch_scored_claims":      {float64(s.scored) / ops, "count/op"},
		"core.final_screen_s":           {perOp(self["core.final_screen"]), "s/op"},
		"core.querycache_hits":          {float64(s.qcHits) / ops, "count/op"},
		"core.querycache_misses":        {float64(s.qcMisses) / ops, "count/op"},
		"feature.memo_hit_ratio":        {ratio(int(s.memoHits), int(s.memoHits+s.memoMisses)), "ratio"},
		"crowd.oracle_s":                {perOp(self["crowd.oracle"]), "s/op"},
		"crowd.answers":                 {float64(s.oracleCalls) / ops, "count/op"},
		"session.answer_s":              {setupSelf["session.answer"].Seconds() / float64(max(setup.sessionAnswers, 1)), "s/answer"},
		"session.answers":               {float64(setup.sessionAnswers), "count"},
		"store.appends":                 {float64(s.appends) / ops, "count/op"},
		"store.append_s":                {perOp(self["store.append"]), "s/op"},
		"store.bytes_per_answer":        {ratio(int(setup.answerBytes), setup.sessionAnswers), "bytes"},
		"store.replay_s":                {recSelf["store.replay"].Seconds(), "s"},
		"store.snapshot_bytes":          {float64(setup.snapshotBytes), "bytes"},
		"scrutinizer.create_verifier_s": {cvSelf["scrutinizer.create_verifier"].Seconds() / float64(max(created, 1)), "s"},
		"scrutinizer.start_run_s":       {perOp(self["scrutinizer.start_run"]), "s/op"},
		"scrutinizer.recover_s":         {recSelf["scrutinizer.recover"].Seconds(), "s"},
		"scrutinizerd.requests":         {float64(sent) / ops, "count/op"},
		"scrutinizerd.handler_s":        {handlerS / ops, "s/op"},
		"scrutinizerd.transport_s":      {(clientS - handlerS) / ops, "s/op"},
		"scrutinizerd.cpu_s":            {m.daemonCPUS / ops, "s/op"},
		"scrutinizerd.resp_bytes":       {float64(respBytes) / ops, "bytes/op"},
		"guard.rejected":                {delta(m.before, m.after, "scrutinizer_guard_rejected_total", nil), "count"},
		"bench.self_s":                  {perOp(self["bench.op"]), "s/op"},
		"bench.cpu_s":                   {m.benchCPUS / ops, "s/op"},
		"bench.steal_s":                 {m.stealS, "s"},
		"trace.claims_per_s":            {tracedCPS, "claims/s"},
		"trace.overhead_claims_per_s":   {tracedCPS - untracedCPS, "claims/s"},
	}
}

func (r *traceResult) summarize(w io.Writer) {
	s := r.sum(windowOps)
	fmt.Fprintf(w, "perfbench: traced replay: %d ops (%d failed), %d retrains, %d rounds, %d appends\n",
		r.attempted, r.failed, s.retrains, s.rounds, s.appends)
	self, _, _ := r.t.selfTimes(windowOps)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "perfbench:   self %-30s %10.4fs\n", n, self[n].Seconds())
	}
	for _, e := range r.errs {
		fmt.Fprintf(w, "perfbench: trace check failed: %s\n", e)
	}
}
