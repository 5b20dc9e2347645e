package main

// Handler fuzzers for the untrusted request bodies that create state: a
// relation CSV upload and a verifier's training document. Whatever the
// body, the daemon must answer without a panic or a 5xx, and a refused
// request (4xx) must leave the journal and the registry exactly as they
// were.

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
// record count and size, and the registry.
type fuzzState struct {
	Records   uint64
	Bytes     int64
	Corpora   []scrutinizer.CorpusInfo
	Verifiers []scrutinizer.VerifierInfo
}

func captureState(s *server, st scrutinizer.Store) fuzzState {
	stats := st.Stats()
	return fuzzState{
		Records:   stats.Records,
		Bytes:     stats.JournalBytes,
		Corpora:   s.svc.Corpora(),
		Verifiers: s.svc.Verifiers(),
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
	if resp.StatusCode >= 400 {
		if after := captureState(s, st); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s %s: status %d changed state:\n  before %+v\n  after  %+v", method, url, resp.StatusCode, before, after)
		}
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
