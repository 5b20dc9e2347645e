package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/planner"
)

func decodeJSON(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func do(t *testing.T, method, url string, body []byte) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sessionCrowd answers session questions exactly like the in-process
// simulated-crowd oracle: per-claim team views over the same seeds, truth
// labels from the document, truth SQL from an identically-built system.
type sessionCrowd struct {
	t       *testing.T
	engine  *core.Engine
	team    *crowd.Team
	doc     *scrutinizer.Document
	oracles map[int]core.Oracle
}

func newSessionCrowd(t *testing.T, corpus *scrutinizer.Corpus, doc *scrutinizer.Document, seed int64, teamSize int) *sessionCrowd {
	t.Helper()
	sys, err := scrutinizer.New(corpus, doc, scrutinizer.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	team, err := sys.NewTeam(teamSize)
	if err != nil {
		t.Fatal(err)
	}
	return &sessionCrowd{t: t, engine: sys.Engine(), team: team, doc: doc, oracles: map[int]core.Oracle{}}
}

func (sc *sessionCrowd) answer(q scrutinizer.SessionQuestion) scrutinizer.SessionAnswer {
	sc.t.Helper()
	oracle := sc.oracles[q.ClaimID]
	if oracle == nil {
		var err error
		oracle, err = sc.engine.NewTeamOracle(sc.team.ForClaim(q.ClaimID))
		if err != nil {
			sc.t.Fatal(err)
		}
		sc.oracles[q.ClaimID] = oracle
	}
	var claim *scrutinizer.Claim
	for _, c := range sc.doc.Claims {
		if c.ID == q.ClaimID {
			claim = c
			break
		}
	}
	if claim == nil {
		sc.t.Fatalf("question for unknown claim %d", q.ClaimID)
	}
	var value string
	var secs float64
	if q.Screen == "final" {
		value, secs = oracle.AnswerFinal(claim, q.Candidates)
	} else {
		var kind core.PropertyKind
		switch q.Screen {
		case "relation":
			kind = core.PropRelation
		case "key":
			kind = core.PropKey
		case "attribute":
			kind = core.PropAttr
		case "formula":
			kind = core.PropFormula
		default:
			sc.t.Fatalf("unknown screen %q", q.Screen)
		}
		opts := make([]planner.Option, len(q.Options))
		for i, o := range q.Options {
			opts[i] = planner.Option{Value: o.Value, Prob: o.Prob}
		}
		value, secs = oracle.AnswerProperty(claim, kind, opts)
	}
	return scrutinizer.SessionAnswer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: value, Seconds: secs}
}

// createSessionRun parks a mode=session run with the given envelope
// fields and returns its handle.
func createSessionRun(t *testing.T, baseURL, verifierID string, payload map[string]any) sessionRunResponse {
	t.Helper()
	body := map[string]any{"mode": "session"}
	for k, v := range payload {
		body[k] = v
	}
	resp := do(t, http.MethodPost, baseURL+"/v1/verifiers/"+verifierID+"/runs", mustJSON(t, body))
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("start session run: status %d: %s", resp.StatusCode, b)
	}
	var run sessionRunResponse
	decodeJSON(t, resp, &run)
	return run
}

// pumpRun answers an interactive run with the simulated crowd until it is
// done. The next batch's questions are fetched by polling, as a real
// client would.
func pumpRun(t *testing.T, baseURL string, sc *sessionCrowd, run sessionRunResponse) {
	t.Helper()
	questions := run.Questions
	for rounds := 0; len(questions) > 0; rounds++ {
		if rounds > 10000 {
			t.Fatal("run did not converge")
		}
		answers := make([]scrutinizer.SessionAnswer, 0, len(questions))
		for _, q := range questions {
			answers = append(answers, sc.answer(q))
		}
		resp := do(t, http.MethodPost, baseURL+"/v1/runs/"+run.ID+"/answers", mustJSON(t, map[string]any{"answers": answers}))
		if resp.StatusCode != http.StatusOK {
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			t.Fatalf("answers status = %d: %s", resp.StatusCode, b)
		}
		var ar answersResponse
		decodeJSON(t, resp, &ar)
		if ar.Accepted != len(answers) {
			t.Fatalf("accepted %d of %d answers", ar.Accepted, len(answers))
		}
		questions = ar.Questions
		if len(questions) == 0 && !ar.Progress.Done {
			var done bool
			questions, done = pendingQuestions(t, baseURL, run.ID)
			if len(questions) == 0 && !done {
				t.Fatal("run not done but no questions queued")
			}
		}
	}
}

// sameOutcome compares two report outcomes field by field.
func sameOutcome(a, b verifyOutcome) bool {
	if (a.Suggestion == nil) != (b.Suggestion == nil) ||
		(a.Suggestion != nil && *a.Suggestion != *b.Suggestion) {
		return false
	}
	a.Suggestion, b.Suggestion = nil, nil
	return a == b
}

// TestSessionLifecycleMatchesVerify is the acceptance pin at the HTTP
// layer: a simulated crowd driving a document through an interactive run
// (create → poll questions → post answers → progress → report → delete)
// produces verdicts, crowd seconds and accuracy bit-identical to a batch
// run of the same verifier with the same team and section-read cost.
func TestSessionLifecycleMatchesVerify(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	const seed = 11
	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, seed)
	envelope := func(knob string, n int) map[string]any {
		return map[string]any{
			"document": json.RawMessage(docJSON(t, w.Document)),
			"batch":    10, "section_read_cost": 15, knob: n,
		}
	}

	// Reference: the synchronous simulated-crowd batch run.
	refResp, ref := postV1Run(t, ts, info.ID, envelope("team", 3))
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("batch run status = %d", refResp.StatusCode)
	}

	// Interactive: three section-skimming checkers (the team-size analog
	// for the §5.1 cost accounting).
	created := createSessionRun(t, ts.URL, info.ID, envelope("checkers", 3))
	if created.ID == "" || created.Claims != len(w.Document.Claims) || len(created.Questions) == 0 {
		t.Fatalf("create response = %+v", created)
	}
	pumpRun(t, ts.URL, newSessionCrowd(t, w.Corpus, w.Document, seed, 3), created)
	run := ts.URL + "/v1/runs/" + created.ID

	// Progress reflects completion and the retrain generations.
	var prog scrutinizer.SessionProgress
	decodeJSON(t, do(t, http.MethodGet, run, nil), &prog)
	if !prog.Done || prog.Verified != len(w.Document.Claims) || prog.ModelGeneration == 0 {
		t.Fatalf("final progress = %+v", prog)
	}

	var rep sessionReportResponse
	decodeJSON(t, do(t, http.MethodGet, run+"/report", nil), &rep)
	if !rep.Done {
		t.Fatal("report not done")
	}
	if rep.CrowdSecs != ref.CrowdSecs {
		t.Errorf("crowd seconds = %v, want %v", rep.CrowdSecs, ref.CrowdSecs)
	}
	if rep.Correct != ref.Correct || rep.Incorrect != ref.Incorrect || rep.Skipped != ref.Skipped {
		t.Errorf("verdict counts %d/%d/%d, want %d/%d/%d",
			rep.Correct, rep.Incorrect, rep.Skipped, ref.Correct, ref.Incorrect, ref.Skipped)
	}
	if rep.Accuracy != ref.Accuracy {
		t.Errorf("accuracy = %v, want %v", rep.Accuracy, ref.Accuracy)
	}
	if rep.Batches != ref.Batches || len(rep.Outcomes) != len(ref.Outcomes) {
		t.Fatalf("batches/outcomes = %d/%d, want %d/%d", rep.Batches, len(rep.Outcomes), ref.Batches, len(ref.Outcomes))
	}
	for i := range rep.Outcomes {
		if !sameOutcome(rep.Outcomes[i], ref.Outcomes[i]) {
			t.Fatalf("outcome %d = %+v, want %+v", i, rep.Outcomes[i], ref.Outcomes[i])
		}
	}

	// Delete ends the run.
	dResp := do(t, http.MethodDelete, run, nil)
	dResp.Body.Close()
	if dResp.StatusCode != http.StatusOK {
		t.Errorf("delete status = %d", dResp.StatusCode)
	}
	g := do(t, http.MethodGet, run, nil)
	g.Body.Close()
	if g.StatusCode != http.StatusNotFound {
		t.Errorf("deleted run still reachable: %d", g.StatusCode)
	}
}

// TestSessionEndpointErrors covers the interactive-run error surface:
// malformed bodies, unknown IDs, stale question IDs, wrong methods.
func TestSessionEndpointErrors(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, 11)
	runs := ts.URL + "/v1/verifiers/" + info.ID + "/runs"
	status := func(method, url string, body []byte) int {
		t.Helper()
		resp := do(t, method, url, body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// Malformed create bodies.
	for _, payload := range [][]byte{
		[]byte("{not json"),
		mustJSON(t, map[string]any{"document": json.RawMessage(docJSON(t, w.Document)), "mode": "session", "ordering": "alphabetical"}),
	} {
		if got := status(http.MethodPost, runs, payload); got != http.StatusBadRequest {
			t.Errorf("create %q: status = %d, want 400", payload[:min(len(payload), 40)], got)
		}
	}
	// An empty document has nothing to verify.
	if got := status(http.MethodPost, runs, []byte(`{"document": {}, "mode": "session"}`)); got != http.StatusUnprocessableEntity {
		t.Errorf("empty create: status = %d, want 422", got)
	}

	// Unknown run IDs.
	for _, ep := range []string{"/v1/runs/nope", "/v1/runs/nope/questions", "/v1/runs/nope/report"} {
		if got := status(http.MethodGet, ts.URL+ep, nil); got != http.StatusNotFound {
			t.Errorf("GET %s: status = %d, want 404", ep, got)
		}
	}
	if got := status(http.MethodPost, ts.URL+"/v1/runs/nope/answers", []byte(`{"claim_id":1,"value":"x"}`)); got != http.StatusNotFound {
		t.Errorf("answers for unknown run: status = %d, want 404", got)
	}

	// A live run rejects malformed and conflicting answers.
	created := createSessionRun(t, ts.URL, info.ID, map[string]any{"document": json.RawMessage(docJSON(t, w.Document))})
	base := ts.URL + "/v1/runs/" + created.ID
	if got := status(http.MethodPost, base+"/answers", []byte("{not json")); got != http.StatusBadRequest {
		t.Errorf("malformed answers: status = %d, want 400", got)
	}
	if got := status(http.MethodPost, base+"/answers", []byte(`{}`)); got != http.StatusBadRequest {
		t.Errorf("empty answers: status = %d, want 400", got)
	}
	q := created.Questions[0]
	stale := mustJSON(t, scrutinizer.SessionAnswer{QuestionID: "c999999.7", ClaimID: q.ClaimID, Value: "x"})
	if got := status(http.MethodPost, base+"/answers", stale); got != http.StatusConflict {
		t.Errorf("stale question id: status = %d, want 409", got)
	}

	// Wrong methods 405 via the method-pattern router.
	if got := status(http.MethodPut, base, nil); got != http.StatusMethodNotAllowed {
		t.Errorf("PUT run: status = %d, want 405", got)
	}
	if got := status(http.MethodGet, ts.URL+"/v1/runs", nil); got == http.StatusOK {
		t.Errorf("GET /v1/runs unexpectedly served: %d", got)
	}
}

// TestBodyCap verifies the request-body cap returns 413 on every route
// that reads a body (the server's cap is lowered so the test does not
// allocate 64 MB).
func TestBodyCap(t *testing.T) {
	s, w := testServer(t)
	v, err := s.svc.CreateVerifier(defaultCorpusID, w.Document, scrutinizer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := v.StartSession(context.Background(), s.sessions, w.Document, scrutinizer.SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.svc.AddCorpus("empty", scrutinizer.NewCorpus()); err != nil {
		t.Fatal(err)
	}
	s.maxBody = 1024
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	big := []byte(`{"document": {"title": "` + strings.Repeat("x", 4096) + `"}}`)
	for _, ep := range []struct{ method, path string }{
		{http.MethodPost, "/v1/verifiers/" + v.ID() + "/runs"},
		{http.MethodPost, "/v1/runs/" + sess.ID() + "/answers"},
		{http.MethodPost, "/v1/corpora"},
		{http.MethodPut, "/v1/corpora/empty/relations/r"},
		{http.MethodPost, "/v1/corpora/empty/verifiers"},
	} {
		resp := do(t, ep.method, ts.URL+ep.path, big)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s %s oversized: status = %d, want 413", ep.method, ep.path, resp.StatusCode)
		}
	}
}

// TestHealthzReportsSessions extends the liveness probe: active session
// count, queued questions and the engine model generation must be
// reported.
func TestHealthzReportsSessions(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, 11)
	created := createSessionRun(t, ts.URL, info.ID, map[string]any{"document": json.RawMessage(docJSON(t, w.Document))})

	var health struct {
		Status   string `json:"status"`
		Sessions struct {
			Active          int    `json:"active"`
			QueuedQuestions int    `json:"queued_questions"`
			ModelGeneration uint64 `json:"model_generation"`
		} `json:"sessions"`
	}
	healthz(t, ts, &health)
	if health.Status != "ok" || health.Sessions.Active != 1 || health.Sessions.ModelGeneration == 0 {
		t.Errorf("healthz = %+v", health)
	}
	if health.Sessions.QueuedQuestions != len(created.Questions) {
		t.Errorf("queued = %d, want %d", health.Sessions.QueuedQuestions, len(created.Questions))
	}
}
