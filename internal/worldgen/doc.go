// Package worldgen generates the synthetic energy-statistics world that
// substitutes for the proprietary IEA data of the paper's evaluation (see
// the README's "Package map"). Generate produces a World holding:
//
//   - a corpus of relations shaped like the paper's Figure 1 (row keys are
//     indicator codes, columns are years, values follow smooth trends),
//   - a document of textual claims with ground-truth annotations (relation,
//     keys, attributes, formula, correct value), rendered through
//     paraphrased templates so text classification is learnable but not
//     trivial,
//   - per-claim candidate lists mimicking the three checkers' annotation
//     breadth, from which the Table 1 frequency percentiles are computed,
//   - controlled error injection (the stated parameter of a fraction of
//     claims contradicts the data).
//
// Two reference configurations bracket the scale range: SmallScale runs in
// seconds and backs tests and demos; PaperScale reproduces the evaluation
// numbers (1539 claims, the corpus dimensions of §6.1). Both are plain
// Config values, so any field can be overridden before calling Generate.
//
// Everything is deterministic given Config.Seed: the same seed produces
// the same corpus, document, candidates and injected errors, which is what
// anchors the repo's reproducibility guarantees end to end.
package worldgen
