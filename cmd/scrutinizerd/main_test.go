package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/repro/scrutinizer"
)

func testServer(t *testing.T) (*server, *scrutinizer.World) {
	t.Helper()
	cfg := scrutinizer.SmallWorld()
	cfg.NumClaims = 30
	cfg.NumSections = 3
	w, err := scrutinizer.GenerateWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := newServer(w.Corpus, serverConfig{parallel: 4, sessionTTL: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, w
}

// healthz fetches and decodes the liveness body.
func healthz(t *testing.T, ts *httptest.Server, v any) {
	t.Helper()
	resp := do(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
	decodeJSON(t, resp, v)
}

// corpusHealth is one service.per_corpus entry of /healthz.
type corpusHealth struct {
	Relations  int                         `json:"relations"`
	Rows       int                         `json:"rows"`
	Cells      int                         `json:"cells"`
	QueryCache scrutinizer.QueryCacheStats `json:"query_cache"`
}

// defaultCorpusHealth reads the startup corpus's /healthz entry.
func defaultCorpusHealth(t *testing.T, ts *httptest.Server) corpusHealth {
	t.Helper()
	var body struct {
		Service struct {
			PerCorpus map[string]corpusHealth `json:"per_corpus"`
		} `json:"service"`
	}
	healthz(t, ts, &body)
	ch, ok := body.Service.PerCorpus[defaultCorpusID]
	if !ok {
		t.Fatalf("per_corpus has no %q: %+v", defaultCorpusID, body.Service.PerCorpus)
	}
	return ch
}

func TestHealthz(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	var body map[string]json.RawMessage
	healthz(t, ts, &body)
	if string(body["status"]) != `"ok"` {
		t.Errorf("healthz status = %s", body["status"])
	}
	// Corpus statistics live per corpus; nothing describes one corpus at
	// the top level.
	for _, gone := range []string{"corpus", "query_cache", "interner"} {
		if _, ok := body[gone]; ok {
			t.Errorf("healthz still carries a top-level %q section", gone)
		}
	}
	ch := defaultCorpusHealth(t, ts)
	if ch.Relations != len(w.Corpus.Names()) || ch.Rows == 0 || ch.Cells == 0 {
		t.Errorf("default corpus health = %+v", ch)
	}
}

// TestHealthzQueryCacheWarmsAcrossVerifies: every run over a corpus shares
// its query cache, so repeated runs of the same document must surface
// cache hits on the corpus's /healthz entry.
func TestHealthzQueryCacheWarmsAcrossVerifies(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, 11)
	// A small batch forces mid-run retraining, so later batches carry
	// retrained formula candidates into Algorithm 2.
	payload := map[string]any{
		"document": json.RawMessage(docJSON(t, w.Document)),
		"batch":    5,
	}
	var hits [2]uint64
	for i := range hits {
		if resp, _ := postV1Run(t, ts, info.ID, payload); resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: status %d", i, resp.StatusCode)
		}
		hits[i] = defaultCorpusHealth(t, ts).QueryCache.Hits
	}
	if hits[1] <= hits[0] {
		t.Errorf("second run produced no query-cache hits: %d then %d", hits[0], hits[1])
	}
}

func TestVerifyEnvelope(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, 11)
	resp, out := postV1Run(t, ts, info.ID, map[string]any{
		"document":    json.RawMessage(docJSON(t, w.Document)),
		"team":        3,
		"batch":       10,
		"parallelism": 4,
		"seed":        11,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if out.Claims != len(w.Document.Claims) || len(out.Outcomes) != out.Claims {
		t.Fatalf("claims = %d, outcomes = %d, want %d", out.Claims, len(out.Outcomes), len(w.Document.Claims))
	}
	if out.Correct+out.Incorrect+out.Skipped != out.Claims {
		t.Errorf("verdict counts %d+%d+%d != %d", out.Correct, out.Incorrect, out.Skipped, out.Claims)
	}
	if out.Accuracy < 0.9 {
		t.Errorf("accuracy = %g", out.Accuracy)
	}
	if out.CrowdSecs <= 0 || out.Batches == 0 || out.Parallelism != 4 {
		t.Errorf("report fields: %+v", out)
	}
}

func TestVerifyBareDocumentAndDeterminism(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, 11)
	doc := docJSON(t, w.Document)
	resp1, out1 := postV1RunRaw(t, ts, info.ID, doc)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("bare document rejected: %d", resp1.StatusCode)
	}
	// Same request twice: identical crowd time and verdicts (the service
	// inherits the engine's determinism, whatever the fan-out).
	resp2, out2 := postV1RunRaw(t, ts, info.ID, doc)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d", resp2.StatusCode)
	}
	if out1.CrowdSecs != out2.CrowdSecs || out1.Correct != out2.Correct || out1.Incorrect != out2.Incorrect {
		t.Errorf("non-deterministic service: %+v vs %+v", out1, out2)
	}
}

func TestVerifyRejectsBadInput(t *testing.T) {
	s, w := testServer(t)
	ts := httptest.NewServer(s.routes())
	defer ts.Close()

	info := trainV1Verifier(t, ts, defaultCorpusID, w.Document, 3)
	for _, tc := range []struct {
		name    string
		payload []byte
		want    int
	}{
		{"malformed", []byte("{not json"), http.StatusBadRequest},
		// {} parses as an empty document: no claims to verify.
		{"empty object", []byte("{}"), http.StatusUnprocessableEntity},
		{"bad ordering", mustJSON(t, map[string]any{
			"document": json.RawMessage(docJSON(t, w.Document)), "ordering": "alphabetical"}), http.StatusBadRequest},
	} {
		if resp, _ := postV1RunRaw(t, ts, info.ID, tc.payload); resp.StatusCode != tc.want {
			t.Errorf("%s: status = %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// Unannotated claims are a 422: the simulated crowd has nothing to
	// answer from.
	stripped := *w.Document
	stripped.Claims = nil
	for _, c := range w.Document.Claims {
		cc := *c
		cc.Truth = nil
		stripped.Claims = append(stripped.Claims, &cc)
	}
	if resp, _ := postV1RunRaw(t, ts, info.ID, docJSON(t, &stripped)); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("unannotated document: status = %d, want 422", resp.StatusCode)
	}

	// Wrong method.
	resp := do(t, http.MethodGet, ts.URL+"/v1/verifiers/"+info.ID+"/runs", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET runs: status = %d", resp.StatusCode)
	}
}

func TestLoadCorpusSynthetic(t *testing.T) {
	corpus, err := loadCorpus("", 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus.Names()) == 0 {
		t.Fatal("synthetic corpus is empty")
	}
	if _, err := loadCorpus(t.TempDir(), 0, 0); err == nil || !strings.Contains(err.Error(), "no *.csv") {
		t.Errorf("empty corpus dir: err = %v", err)
	}
}
