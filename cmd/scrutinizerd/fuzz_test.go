package main

// Handler fuzzers for the untrusted request bodies that create state: a
// relation CSV upload, a verifier's training document, a run's creation
// envelope and a session's answers. Whatever the body, the daemon must
// answer without a panic or a 5xx, and a refused request (4xx) must leave
// the journal and the registry exactly as they were — except a 409 on
// answers, which keeps the answers it accepted before the conflict.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
)

// fuzzState is what a refused request must not change: the journal's
// record count and size, and the registry of corpora, verifiers and
// interactive runs.
type fuzzState struct {
	Records   uint64
	Bytes     int64
	Corpora   []scrutinizer.CorpusInfo
	Verifiers []scrutinizer.VerifierInfo
	Sessions  scrutinizer.SessionStats
}

func captureState(s *server, st scrutinizer.Store) fuzzState {
	stats := st.Stats()
	return fuzzState{
		Records:   stats.Records,
		Bytes:     stats.JournalBytes,
		Corpora:   s.svc.Corpora(),
		Verifiers: s.svc.Verifiers(),
		Sessions:  s.sessions.Stats(),
	}
}

// fuzzClient bounds each fuzzed request: a body the daemon never answers
// is a finding, reported with its input, not a stalled fuzzer.
var fuzzClient = &http.Client{Timeout: 5 * time.Second}

// fuzzRequest sends one request and checks the invariants, returning the
// status and response body.
func fuzzRequest(t *testing.T, s *server, st scrutinizer.Store, method, url string, body []byte) (int, []byte) {
	t.Helper()
	before := captureState(s, st)
	status, out := fuzzSend(t, method, url, body)
	if status >= 400 {
		if after := captureState(s, st); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s %s: status %d changed state:\n  before %+v\n  after  %+v", method, url, status, before, after)
		}
	}
	return status, out
}

// fuzzSend sends one request and fails on a 5xx, returning the status and
// response body.
func fuzzSend(t testing.TB, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := fuzzClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 500 {
		t.Fatalf("%s %s: status %d: %s", method, url, resp.StatusCode, out)
	}
	return resp.StatusCode, out
}

// FuzzPutRelation fuzzes the CSV body of PUT /v1/corpora/{id}/relations/{name}
// against a mutable corpus.
func FuzzPutRelation(f *testing.F) {
	w := recoveryTestWorld(f)
	st := scrutinizer.NewMemoryStore()
	s, ts := storedServer(f, w, st)
	if _, err := s.svc.AddCorpus("fuzz", scrutinizer.NewCorpus()); err != nil {
		f.Fatal(err)
	}
	// Each world relation seeds its header and first two rows: small
	// inputs keep the fuzzer's minimization of new finds short.
	for _, name := range w.Corpus.Names() {
		rel, err := w.Corpus.Relation(name)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		lines := bytes.SplitAfter(buf.Bytes(), []byte("\n"))
		f.Add(bytes.Join(lines[:min(len(lines), 3)], nil))
	}
	for _, seed := range []string{"", "Index\n", "Index,2017\nx,1\n", "Index,2017\nx\n", "a,a\n1,2\n", "\"unterminated\n", "Index,2017\nx,\xff\n"} {
		f.Add([]byte(seed))
	}
	url := ts.URL + "/v1/corpora/fuzz/relations/r"
	f.Fuzz(func(t *testing.T, body []byte) {
		fuzzRequest(t, s, st, http.MethodPut, url, body)
	})
}

// FuzzCreateVerifier fuzzes the document JSON of POST
// /v1/corpora/{id}/verifiers. A verifier that trains is deleted again, so
// the registry stays small however long the fuzzer runs.
func FuzzCreateVerifier(f *testing.F) {
	w := recoveryTestWorld(f)
	st := scrutinizer.NewMemoryStore()
	s, ts := storedServer(f, w, st)
	// Small training documents keep the fuzzer's minimization short.
	small := &scrutinizer.Document{Title: "fuzz", Sections: w.Document.Sections, Claims: w.Document.Claims[:3]}
	var doc bytes.Buffer
	if err := small.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	envelope, err := json.Marshal(map[string]any{"training": json.RawMessage(doc.Bytes()), "seed": 3, "topk": 2, "embedding_dim": 8})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(envelope)
	for _, seed := range []string{"", "{}", "null", "[]", `{"claims": []}`, `{"training": {"claims": [{}]}}`, `{"claims": [{"id": 1, "text": "x", "section": 99}]}`} {
		f.Add([]byte(seed))
	}
	url := ts.URL + "/v1/corpora/" + defaultCorpusID + "/verifiers"
	f.Fuzz(func(t *testing.T, body []byte) {
		status, out := fuzzRequest(t, s, st, http.MethodPost, url, body)
		if status != http.StatusCreated {
			return
		}
		var created verifierResponse
		if err := json.Unmarshal(out, &created); err != nil {
			t.Fatalf("created verifier: %v: %s", err, out)
		}
		if got, _ := fuzzRequest(t, s, st, http.MethodDelete, ts.URL+"/v1/verifiers/"+created.ID, nil); got != http.StatusOK {
			t.Fatalf("delete verifier %s: status %d", created.ID, got)
		}
	})
}

// FuzzCreateRun fuzzes the envelope of POST /v1/verifiers/{id}/runs in
// both modes: batch runs verify inline against the simulated crowd, and
// session runs park an interactive run, which is deleted again so the
// registry stays small however long the fuzzer runs.
func FuzzCreateRun(f *testing.F) {
	w := recoveryTestWorld(f)
	st := scrutinizer.NewMemoryStore()
	s, ts := storedServer(f, w, st)
	v, err := s.svc.CreateVerifier(defaultCorpusID, w.Document, scrutinizer.Options{Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	// Small documents keep each run, and the minimization of new finds,
	// short.
	small := &scrutinizer.Document{Title: "fuzz", Sections: w.Document.Sections, Claims: w.Document.Claims[:3]}
	var doc bytes.Buffer
	if err := small.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	for _, env := range []map[string]any{
		{"mode": "batch", "team": 3, "batch": 2, "parallelism": 2, "ordering": "greedy", "seed": 3},
		{"mode": "session", "checkers": 2, "batch": 2, "ordering": "sequential", "section_read_cost": 1.5},
		{"team": maxRunTeam + 1},
		{"section_read_cost": 1e308, "batch": 2},
		{"mode": "batch", "batch": -1, "parallelism": -4, "ordering": "random", "team": -2},
	} {
		env["document"] = json.RawMessage(doc.Bytes())
		body, err := json.Marshal(env)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, seed := range []string{"", "{}", "null", "[]", `{"mode": "teleport"}`, `{"document": {"claims": []}}`, `{"document": {"claims": [{}]}, "mode": "session"}`} {
		f.Add([]byte(seed))
	}
	url := ts.URL + "/v1/verifiers/" + v.ID() + "/runs"
	f.Fuzz(func(t *testing.T, body []byte) {
		status, out := fuzzRequest(t, s, st, http.MethodPost, url, body)
		if status < 300 && !json.Valid(out) {
			t.Fatalf("status %d with a body that is not JSON: %q", status, out)
		}
		if status != http.StatusCreated {
			return
		}
		var created sessionRunResponse
		if err := json.Unmarshal(out, &created); err != nil {
			t.Fatalf("created run: %v: %s", err, out)
		}
		if got, _ := fuzzRequest(t, s, st, http.MethodDelete, ts.URL+"/v1/runs/"+created.ID, nil); got != http.StatusOK {
			t.Fatalf("delete run %s: status %d", created.ID, got)
		}
	})
}

// FuzzRunAnswers fuzzes the body of POST /v1/runs/{id}/answers, single and
// batch shapes, each input against a freshly parked session over the same
// document (so its questions are always the same), deleted again after.
// A 2xx body must be JSON; a 4xx other than 409 (a 400 or 422) must leave
// the state as it was; a 2xx or a 409 must grow the journal by exactly the
// answers it reports accepted, one record each.
func FuzzRunAnswers(f *testing.F) {
	w := recoveryTestWorld(f)
	st := scrutinizer.NewMemoryStore()
	s, ts := storedServer(f, w, st)
	v, err := s.svc.CreateVerifier(defaultCorpusID, w.Document, scrutinizer.Options{Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	small := &scrutinizer.Document{Title: "fuzz", Sections: w.Document.Sections, Claims: w.Document.Claims[:3]}
	var doc bytes.Buffer
	if err := small.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	create, err := json.Marshal(map[string]any{"document": json.RawMessage(doc.Bytes()), "mode": "session"})
	if err != nil {
		f.Fatal(err)
	}
	runsURL := ts.URL + "/v1/verifiers/" + v.ID() + "/runs"
	park := func(t testing.TB) sessionRunResponse {
		t.Helper()
		status, out := fuzzSend(t, http.MethodPost, runsURL, create)
		if status != http.StatusCreated {
			t.Fatalf("park session: status %d: %s", status, out)
		}
		var parked sessionRunResponse
		if err := json.Unmarshal(out, &parked); err != nil {
			t.Fatalf("parked session: %v: %s", err, out)
		}
		return parked
	}
	drop := func(t testing.TB, id string) {
		t.Helper()
		if status, out := fuzzSend(t, http.MethodDelete, ts.URL+"/v1/runs/"+id, nil); status != http.StatusOK {
			t.Fatalf("delete run %s: status %d: %s", id, status, out)
		}
	}

	// Seeds address the questions every freshly parked session asks.
	probe := park(f)
	drop(f, probe.ID)
	qs := probe.Questions
	if len(qs) < 2 {
		f.Fatalf("parked session asks %d questions, want at least 2", len(qs))
	}
	answer := func(q scrutinizer.SessionQuestion, seconds float64) map[string]any {
		value := ""
		if len(q.Options) > 0 {
			value = q.Options[0].Value
		}
		return map[string]any{"question_id": q.ID, "claim_id": q.ClaimID, "value": value, "seconds": seconds}
	}
	all := make([]map[string]any, 0, len(qs))
	for _, q := range qs {
		all = append(all, answer(q, 2))
	}
	mismatch := answer(qs[0], 2)
	mismatch["question_id"] = qs[1].ID
	for _, body := range []any{
		answer(qs[0], 2),
		map[string]any{"answers": all},
		answer(qs[0], 1e308),
		map[string]any{"answers": []map[string]any{answer(qs[0], 1), answer(qs[1], 1e308)}},
		map[string]any{"answers": []map[string]any{answer(qs[0], 1e308), answer(qs[1], 1e308)}},
		answer(qs[0], -1),
		map[string]any{"claim_id": 9999, "value": "", "seconds": 1},
		mismatch,
		map[string]any{"answers": []map[string]any{answer(qs[0], 1), {"claim_id": 9999, "value": "", "seconds": 1}}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, seed := range []string{"", "{}", "null", "[]", `{"answers": []}`, `{"answers": [{}]}`, `{"claim_id": "x"}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		parked := park(t)
		defer drop(t, parked.ID)
		before := captureState(s, st)
		status, out := fuzzSend(t, http.MethodPost, ts.URL+"/v1/runs/"+parked.ID+"/answers", body)
		if status >= 400 && status != http.StatusConflict {
			if after := captureState(s, st); !reflect.DeepEqual(before, after) {
				t.Fatalf("status %d changed state:\n  before %+v\n  after  %+v", status, before, after)
			}
			return
		}
		// A 2xx or a 409 reports how many answers it applied.
		var resp struct {
			Accepted uint64 `json:"accepted"`
		}
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("status %d with a body that is not JSON: %v: %q", status, err, out)
		}
		if grew := st.Stats().Records - before.Records; grew != resp.Accepted {
			t.Fatalf("status %d: journal grew by %d records for %d accepted answers", status, grew, resp.Accepted)
		}
	})
}
