package main

// Inputs. Every world is generated here from the run's seed; the daemon
// only ever receives the serialized CSV relations and document JSON, and
// the in-process replay parses the very same bytes, so both sides see
// identical corpora and documents.

import (
	"bytes"
	"encoding/json"
	"fmt"

	"github.com/repro/scrutinizer"
	"github.com/repro/scrutinizer/internal/worldgen"
)

// inputs is one workload's generated input set and its knobs.
type inputs struct {
	name    string
	clients int // closed-loop clients, capped at nproc by the caller
	batch   int // Algorithm 1 retraining batch size of an op's batch run
	team    int // simulated checkers per claim (and section skimmers)
	// fresh makes every timed op create, use and delete its own corpus
	// and verifier, so no query-cache or feature-memo state carries over
	// from one op to the next (document).
	fresh bool
	// parked half-answered interactive sessions, one on each of the first
	// parked tenants, created during set-up and left for the restart to
	// recover.
	parked  int
	tenants []*tenant
	specs   []spec // the op pool the clients cycle through
}

// tenant is one corpus plus the verifier trained over it.
type tenant struct {
	corpusID  string
	seed      int64 // world seed, also the verifier's (and its crowd's) seed
	relations []relationCSV
	training  []byte      // annotated training document JSON
	docs      []*docInput // documents verified against the verifier
}

type relationCSV struct {
	Name string `json:"name"`
	CSV  string `json:"csv"`
}

// docInput is one document as sent (raw) and as the daemon parses it.
type docInput struct {
	raw []byte
	doc *scrutinizer.Document
}

// spec names one op of the pool: a document of a tenant.
type spec struct{ tenant, doc int }

var workloads = map[string]func(seed int64) (*inputs, error){
	"document": documentInputs,
	"serve":    serveInputs,
}

// sessionBatch is the retraining batch of the parked sessions: two of its
// barriers fall in the answered half, so recovery replays retrains too.
const sessionBatch = 10

// documentWorlds and serveWorlds are how many independently generated
// worlds, each with its own verifier seed, one run spreads its work over.
// The verifier seed alone moves checker seconds per claim by up to a fifth
// (it fixes the embeddings the classifiers learn from), so a run averages
// several, which keeps the run-to-run spread across seeds well under the
// metrics' bounds.
const (
	documentWorlds = 8
	serveWorlds    = 12
)

// documentInputs is the paper's scenario: one client verifies whole
// 400-claim, 16-section documents over the SmallScale corpus, each from a
// verifier bootstrapped on the document's first 40 claims, retraining every
// 20 claims. Ops cycle through eight worlds.
func documentInputs(seed int64) (*inputs, error) {
	in := &inputs{name: "document", clients: 1, batch: 20, team: 3, fresh: true}
	for k := 0; k < documentWorlds; k++ {
		t, err := newTenant(fmt.Sprintf("doc%d", k), seed*16+int64(k), 400, 16, 40, 0)
		if err != nil {
			return nil, err
		}
		in.tenants = append(in.tenants, t)
		in.specs = append(in.specs, spec{k, 0})
	}
	return in, nil
}

// serveInputs is the fit-once / verify-many steady state: twelve corpora,
// one verifier each trained on 40 annotated claims, and three further
// 40-claim documents per corpus verified in one batch each (batch >
// document). Set-up also parks a half-answered interactive session on
// each of the first two tenants, answered question by question over the
// journal, for the restart to recover.
func serveInputs(seed int64) (*inputs, error) {
	in := &inputs{name: "serve", clients: 2, batch: 100, team: 3, parked: 2}
	for m := 0; m < serveWorlds; m++ {
		t, err := newTenant(fmt.Sprintf("serve%d", m), seed*16+int64(m), 160, 8, 40, 40)
		if err != nil {
			return nil, err
		}
		in.tenants = append(in.tenants, t)
	}
	// Interleave tenants so concurrent clients work on different
	// verifiers.
	for d := 0; d < 3; d++ {
		for ti := range in.tenants {
			in.specs = append(in.specs, spec{ti, d})
		}
	}
	return in, nil
}

// newTenant generates a world and cuts it into a training document (the
// first train claims) and the documents to verify: the whole document
// when chunk is 0, else consecutive chunks of the remaining claims.
func newTenant(id string, worldSeed int64, claims, sections, train, chunk int) (*tenant, error) {
	cfg := worldgen.SmallScale()
	cfg.Seed = worldSeed
	cfg.NumClaims = claims
	cfg.NumSections = sections
	w, err := worldgen.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("world %s: %w", id, err)
	}
	t := &tenant{corpusID: id, seed: worldSeed}
	for _, name := range w.Corpus.Names() {
		rel, err := w.Corpus.Relation(name)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := rel.WriteCSV(&buf); err != nil {
			return nil, err
		}
		t.relations = append(t.relations, relationCSV{Name: name, CSV: buf.String()})
	}
	all := w.Document.Claims
	trainDoc, err := encodeDoc(&scrutinizer.Document{Title: id + " training", Sections: sections, Claims: all[:train]})
	if err != nil {
		return nil, err
	}
	t.training = trainDoc.raw
	if chunk == 0 {
		d, err := encodeDoc(&scrutinizer.Document{Title: id + " document", Sections: sections, Claims: all})
		if err != nil {
			return nil, err
		}
		t.docs = append(t.docs, d)
		return t, nil
	}
	for lo := train; lo+chunk <= len(all); lo += chunk {
		d, err := encodeDoc(&scrutinizer.Document{
			Title: fmt.Sprintf("%s document %d", id, len(t.docs)), Sections: sections, Claims: all[lo : lo+chunk],
		})
		if err != nil {
			return nil, err
		}
		t.docs = append(t.docs, d)
	}
	return t, nil
}

// encodeDoc serializes a document compactly and parses it back, so checks
// run against exactly what the daemon decodes.
func encodeDoc(doc *scrutinizer.Document) (*docInput, error) {
	var buf bytes.Buffer
	if err := doc.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, buf.Bytes()); err != nil {
		return nil, err
	}
	parsed, err := scrutinizer.ReadDocumentJSON(bytes.NewReader(compact.Bytes()))
	if err != nil {
		return nil, err
	}
	return &docInput{raw: compact.Bytes(), doc: parsed}, nil
}

// corpusBody is the POST /v1/corpora body registering the tenant's
// relations under id.
func (t *tenant) corpusBody(id string) ([]byte, error) {
	return json.Marshal(map[string]any{"id": id, "relations": t.relations})
}

// parseCorpus builds the corpus the daemon would from the same CSV.
func (t *tenant) parseCorpus() (*scrutinizer.Corpus, error) {
	c := scrutinizer.NewCorpus()
	for _, r := range t.relations {
		rel, err := scrutinizer.ReadRelationCSV(r.Name, bytes.NewReader([]byte(r.CSV)))
		if err != nil {
			return nil, fmt.Errorf("relation %s: %w", r.Name, err)
		}
		if err := c.Add(rel); err != nil {
			return nil, err
		}
	}
	return c, nil
}
