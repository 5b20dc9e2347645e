package main

// The HTTP side: a /v1 client whose every exchange is timed and counted,
// and the three op kinds built from it.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/planner"
)

type client struct {
	base string
	hc   *http.Client
}

// newHTTPClient caps connections at conns, so the benchmark never holds
// more connections than it has clients.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 3 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		},
	}
}

// acct is the client-side accounting of one op's exchanges.
type acct struct {
	requests  int
	respBytes int
	clientS   float64 // summed round-trip seconds
}

// do sends one request and decodes a 2xx JSON answer into out (when
// non-nil); anything else is an error.
func (c *client) do(a *acct, method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.clientS += time.Since(start).Seconds()
	a.requests++
	a.respBytes += len(raw)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg := string(raw)
		if len(msg) > 300 {
			msg = msg[:300] + "..."
		}
		return fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, msg)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("decoding %s %s: %w", method, path, err)
		}
	}
	return nil
}

// outcome is what one verified document yields, whichever path ran it.
type outcome struct {
	claims   int
	crowdS   float64
	accuracy float64 // as reported by the system under test
	verdicts map[int]string
}

// hash digests the verdicts and crowd seconds: every run of the same
// (tenant, document, seed) must reproduce it.
func (o *outcome) hash() string {
	ids := make([]int, 0, len(o.verdicts))
	for id := range o.verdicts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d=%s;", id, o.verdicts[id])
	}
	fmt.Fprintf(h, "crowd=%s", strconv.FormatFloat(o.crowdS, 'g', -1, 64))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// score recomputes accuracy from the verdicts and the document's ground
// truth exactly as core.Accuracy defines it: skipped claims are left out,
// a verdict is right when it matches the claim's Correct flag.
func score(doc *scrutinizer.Document, verdicts map[int]string) (right, total int) {
	for _, c := range doc.Claims {
		v, ok := verdicts[c.ID]
		if !ok || v == core.VerdictSkipped.String() {
			continue
		}
		total++
		if (v == core.VerdictCorrect.String()) == c.Correct {
			right++
		}
	}
	return right, total
}

// check verifies an outcome against its document: one verdict per claim
// and the reported accuracy equal to the ground-truth recomputation.
func check(doc *scrutinizer.Document, o *outcome) error {
	if o.claims != len(doc.Claims) || len(o.verdicts) != len(doc.Claims) {
		return fmt.Errorf("%q: %d claims, %d verdicts, want %d", doc.Title, o.claims, len(o.verdicts), len(doc.Claims))
	}
	right, total := score(doc, o.verdicts)
	want := 0.0
	if total > 0 {
		want = float64(right) / float64(total)
	}
	if o.accuracy != want {
		return fmt.Errorf("%q: reported accuracy %v, ground truth gives %v", doc.Title, o.accuracy, want)
	}
	return nil
}

// runBody is the POST /v1/verifiers/{id}/runs envelope.
type runBody struct {
	Document json.RawMessage `json:"document"`
	Mode     string          `json:"mode"`
	Batch    int             `json:"batch"`
	Team     int             `json:"team,omitempty"`
	Checkers int             `json:"checkers,omitempty"`
}

type wireOutcome struct {
	ClaimID int    `json:"claim_id"`
	Verdict string `json:"verdict"`
}

func toOutcome(claims int, crowdS, accuracy float64, outs []wireOutcome) *outcome {
	o := &outcome{claims: claims, crowdS: crowdS, accuracy: accuracy, verdicts: make(map[int]string, len(outs))}
	for _, w := range outs {
		o.verdicts[w.ClaimID] = w.Verdict
	}
	return o
}

// createTenant registers a corpus under corpusID and trains a verifier on
// the tenant's training document, returning the verifier ID.
func (c *client) createTenant(a *acct, t *tenant, corpusID string) (string, error) {
	body, err := t.corpusBody(corpusID)
	if err != nil {
		return "", err
	}
	if err := c.do(a, http.MethodPost, "/v1/corpora", body, nil); err != nil {
		return "", err
	}
	vbody, err := json.Marshal(map[string]any{"training": json.RawMessage(t.training), "seed": t.seed})
	if err != nil {
		return "", err
	}
	var vr struct {
		ID string `json:"id"`
	}
	if err := c.do(a, http.MethodPost, "/v1/corpora/"+corpusID+"/verifiers", vbody, &vr); err != nil {
		return "", err
	}
	return vr.ID, nil
}

// batchRun verifies one document in mode=batch. The returned latency (ms)
// is the run request's round trip.
func (c *client) batchRun(a *acct, in *inputs, verifierID string, d *docInput) (*outcome, float64, error) {
	body, err := json.Marshal(runBody{Document: d.raw, Mode: "batch", Batch: in.batch, Team: in.team})
	if err != nil {
		return nil, 0, err
	}
	var resp struct {
		Claims   int           `json:"claims"`
		Accuracy float64       `json:"accuracy"`
		CrowdS   float64       `json:"crowd_seconds"`
		Outcomes []wireOutcome `json:"outcomes"`
	}
	start := time.Now()
	if err := c.do(a, http.MethodPost, "/v1/verifiers/"+verifierID+"/runs", body, &resp); err != nil {
		return nil, 0, err
	}
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	return toOutcome(resp.Claims, resp.CrowdS, resp.Accuracy, resp.Outcomes), ms, nil
}

type questionsResp struct {
	ID        string                        `json:"id"`
	Questions []scrutinizer.SessionQuestion `json:"questions"`
	Progress  scrutinizer.SessionProgress   `json:"progress"`
}

// parkSession starts a mode=session run and answers it question by
// question, the way a checker would, until half its claims are verified;
// the half-answered session stays parked in the daemon.
func (c *client) parkSession(a *acct, in *inputs, verifierID string, d *docInput, cr *crowd) error {
	body, err := json.Marshal(runBody{Document: d.raw, Mode: "session", Batch: sessionBatch, Checkers: in.team})
	if err != nil {
		return err
	}
	var sess questionsResp
	if err := c.do(a, http.MethodPost, "/v1/verifiers/"+verifierID+"/runs", body, &sess); err != nil {
		return err
	}
	answerer := cr.forRun()
	queue, progress := sess.Questions, sess.Progress
	for progress.Verified < len(d.doc.Claims)/2 {
		if progress.Done || len(queue) == 0 {
			return fmt.Errorf("session %s stalled at %d verified claims", sess.ID, progress.Verified)
		}
		ans, err := answerer.answer(queue[0])
		if err != nil {
			return err
		}
		queue = queue[1:]
		abody, err := json.Marshal(ans)
		if err != nil {
			return err
		}
		var ar questionsResp
		if err := c.do(a, http.MethodPost, "/v1/runs/"+sess.ID+"/answers", abody, &ar); err != nil {
			return err
		}
		queue, progress = append(queue, ar.Questions...), ar.Progress
		if len(queue) == 0 && !progress.Done {
			var qr questionsResp
			if err := c.do(a, http.MethodGet, "/v1/runs/"+sess.ID+"/questions", nil, &qr); err != nil {
				return err
			}
			queue = qr.Questions
		}
	}
	return nil
}

// crowd answers session questions from a tenant's ground truth the way
// the daemon's own simulated crowd answers batch runs: the verifier
// seed's team, one per-claim view per claim, truth SQL from an engine over
// the same corpus.
type crowd struct {
	engine *core.Engine
	team   *scrutinizer.Team
	claims map[int]*scrutinizer.Claim
}

func newCrowd(t *tenant, size int) (*crowd, error) {
	corpus, err := t.parseCorpus()
	if err != nil {
		return nil, err
	}
	train, err := scrutinizer.ReadDocumentJSON(bytes.NewReader(t.training))
	if err != nil {
		return nil, err
	}
	sys, err := scrutinizer.New(corpus, train, scrutinizer.Options{Seed: t.seed})
	if err != nil {
		return nil, err
	}
	team, err := sys.NewTeam(size)
	if err != nil {
		return nil, err
	}
	cr := &crowd{engine: sys.Engine(), team: team, claims: map[int]*scrutinizer.Claim{}}
	for _, d := range t.docs {
		for _, c := range d.doc.Claims {
			cr.claims[c.ID] = c
		}
	}
	return cr, nil
}

// forRun starts a fresh set of per-claim views, so every run answers
// identically whatever ran before it.
func (cr *crowd) forRun() *runCrowd {
	return &runCrowd{cr: cr, oracles: map[int]core.Oracle{}}
}

type runCrowd struct {
	cr      *crowd
	oracles map[int]core.Oracle
}

func (rc *runCrowd) oracle(claimID int) (core.Oracle, error) {
	if o := rc.oracles[claimID]; o != nil {
		return o, nil
	}
	o, err := rc.cr.engine.NewTeamOracle(rc.cr.team.ForClaim(claimID))
	if err != nil {
		return nil, err
	}
	rc.oracles[claimID] = o
	return o, nil
}

var screens = map[string]core.PropertyKind{
	"relation": core.PropRelation, "key": core.PropKey, "attribute": core.PropAttr, "formula": core.PropFormula,
}

func (rc *runCrowd) answer(q scrutinizer.SessionQuestion) (scrutinizer.SessionAnswer, error) {
	claim := rc.cr.claims[q.ClaimID]
	if claim == nil {
		return scrutinizer.SessionAnswer{}, fmt.Errorf("question for unknown claim %d", q.ClaimID)
	}
	o, err := rc.oracle(q.ClaimID)
	if err != nil {
		return scrutinizer.SessionAnswer{}, err
	}
	var value string
	var secs float64
	if q.Screen == "final" {
		value, secs = o.AnswerFinal(claim, q.Candidates)
	} else {
		kind, ok := screens[q.Screen]
		if !ok {
			return scrutinizer.SessionAnswer{}, fmt.Errorf("unknown screen %q", q.Screen)
		}
		opts := make([]planner.Option, len(q.Options))
		for i, op := range q.Options {
			opts[i] = planner.Option{Value: op.Value, Prob: op.Prob}
		}
		value, secs = o.AnswerProperty(claim, kind, opts)
	}
	return scrutinizer.SessionAnswer{QuestionID: q.ID, ClaimID: q.ClaimID, Value: value, Seconds: secs}, nil
}
