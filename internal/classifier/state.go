package classifier

// State is a comparable copy of a trained classifier: everything Train
// mutates, with the dense matrices exported as flat slices in the same
// feature-major layout the model scores from. Two models with equal States
// score identically and continue the same deterministic shuffle stream on
// their next warm-start retrain (Rounds seeds it). The equivalence tests
// compare and digest models through it, including those of package core.
type State struct {
	Config  Config    `json:"config"`
	Labels  []string  `json:"labels,omitempty"`
	Dim     int       `json:"dim"`
	W       []float64 `json:"w,omitempty"`
	Gsq     []float64 `json:"gsq,omitempty"`
	Bias    []float64 `json:"bias,omitempty"`
	GsqB    []float64 `json:"gsq_b,omitempty"`
	Trained int       `json:"trained"`
	Rounds  int       `json:"rounds"`
	Warm    bool      `json:"warm,omitempty"`
}

// State exports a deep copy of the model. Like Clone, it must not run
// concurrently with Train on the same model.
func (c *Classifier) State() State {
	return State{
		Config:  c.cfg,
		Labels:  append([]string(nil), c.labels...),
		Dim:     c.dim,
		W:       append([]float64(nil), c.w...),
		Gsq:     append([]float64(nil), c.gsq...),
		Bias:    append([]float64(nil), c.bias...),
		GsqB:    append([]float64(nil), c.gsqB...),
		Trained: c.trained,
		Rounds:  c.rounds,
		Warm:    c.warm,
	}
}
