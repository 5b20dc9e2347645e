// Package sim drives the two evaluations of the paper's §6 on the
// synthetic world: the user study replica (Figures 5 and 6) and the
// report-scale simulation (Table 2, Figures 7, 8, 9 and 10). The crowd is
// simulated with the §5.1 cost model; see the README's "Package map" for
// the substitutions.
//
// RunUserStudy replays the 23-claim, 20-minute-per-checker study with
// StudyCostModel (calibrated so manual verification of a study claim costs
// about two minutes). RunSimulation replays the full-report comparison of
// Manual vs Sequential vs Scrutinizer under SimCostModel, sampling
// classifier accuracy per batch for the figure series; its
// SimulationConfig.Parallelism field fans per-batch claim verification out
// across goroutines (see core.VerifyConfig.Parallelism) without changing
// any simulated result — simulated crowd seconds are accounted per claim,
// so only wall-clock time moves.
//
// BuildEngine assembles a core.Engine from a generated world the same way
// the public facade does, and is reused by benchmarks and cmd/experiments.
package sim
