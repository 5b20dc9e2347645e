// Command experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic world. Each experiment prints the same
// rows/series the paper reports, plus the measured values, so the shape can
// be compared directly (see EXPERIMENTS.md).
//
// Usage:
//
//	experiments -exp all|table1|table2|table3|fig5|fig6|fig7|fig8|fig9|fig10 [-scale small|paper]
//
// The small scale runs in seconds; the paper scale (1539 claims, 1785
// relations) takes several minutes, most of it classifier retraining — the
// paper reports 13 minutes for the same step.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"github.com/repro/scrutinizer/internal/aggcheck"
	"github.com/repro/scrutinizer/internal/core"
	"github.com/repro/scrutinizer/internal/crowd"
	"github.com/repro/scrutinizer/internal/planner"
	"github.com/repro/scrutinizer/internal/report"
	"github.com/repro/scrutinizer/internal/sim"
	"github.com/repro/scrutinizer/internal/stats"
	"github.com/repro/scrutinizer/internal/worldgen"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: all, table1, table2, table3, fig5-fig10, ablations")
	scale := flag.String("scale", "small", "world scale: small or paper")
	seed := flag.Int64("seed", 2018, "world seed")
	parallel := flag.Int("parallel", 0, "claims verified concurrently per batch (0 = all CPUs, 1 = sequential)")
	flag.Parse()
	if *parallel <= 0 {
		*parallel = runtime.NumCPU()
	}

	worldCfg := worldgen.SmallScale()
	if *scale == "paper" {
		worldCfg = worldgen.PaperScale()
	}
	worldCfg.Seed = *seed

	runner := &runner{worldCfg: worldCfg, scale: *scale, parallel: *parallel}
	experiments := map[string]func() error{
		"table1":    runner.table1,
		"table2":    runner.table2,
		"table3":    runner.table3,
		"fig5":      runner.fig5,
		"fig6":      runner.fig6,
		"fig7":      runner.fig7,
		"fig8":      runner.fig8,
		"fig9":      runner.fig9,
		"fig10":     runner.fig10,
		"ablations": runner.ablations,
	}
	order := []string{"table1", "table2", "table3", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"}

	var toRun []string
	if *exp == "all" {
		toRun = order
	} else {
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := experiments[name]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
				os.Exit(2)
			}
			toRun = append(toRun, name)
		}
	}
	for _, name := range toRun {
		fmt.Printf("=== %s ===\n", name)
		if err := experiments[name](); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}
}

type runner struct {
	worldCfg worldgen.Config
	scale    string
	parallel int

	simResult *sim.SimulationResult // cached across fig7/8/9/table2
}

// table1 prints the percentiles of property value frequencies.
func (r *runner) table1() error {
	w, err := worldgen.Generate(r.worldCfg)
	if err != nil {
		return err
	}
	freq := func(extract func(worldgen.CandidateLists) []string) []float64 {
		counts := map[string]int{}
		for _, cand := range w.Candidates {
			for _, v := range extract(cand) {
				counts[v]++
			}
		}
		out := make([]float64, 0, len(counts))
		for _, n := range counts {
			out = append(out, float64(n))
		}
		return out
	}
	rows := []struct {
		name    string
		extract func(worldgen.CandidateLists) []string
		paper   [5]float64
	}{
		{"Relation", func(c worldgen.CandidateLists) []string { return c.Relations }, [5]float64{2, 4, 10, 199, 532}},
		{"Primary Key", func(c worldgen.CandidateLists) []string { return c.Keys }, [5]float64{2, 2, 4, 39, 107}},
		{"Attribute", func(c worldgen.CandidateLists) []string { return c.Attrs }, [5]float64{1, 2, 7, 127, 1400}},
		{"Formula", func(c worldgen.CandidateLists) []string { return c.Formulas }, [5]float64{1, 1, 1, 8, 55}},
	}
	levels := []float64{10, 25, 50, 95, 99}
	fmt.Printf("%-12s %8s %8s %8s %8s %8s   (paper values in parens)\n",
		"Percentiles", "10%", "25%", "50%", "95%", "99%")
	for _, row := range rows {
		fs := freq(row.extract)
		ps := stats.Percentiles(fs, levels)
		fmt.Printf("%-12s", row.name)
		for i, p := range ps {
			fmt.Printf(" %4.0f(%3.0f)", p, row.paper[i])
		}
		fmt.Println()
	}
	distinct := func(extract func(worldgen.CandidateLists) []string) int {
		set := map[string]bool{}
		for _, cand := range w.Candidates {
			for _, v := range extract(cand) {
				set[v] = true
			}
		}
		return len(set)
	}
	fmt.Printf("distinct values: relations=%d (paper 1791) keys=%d (830) attrs=%d (87) formulas=%d (413)\n",
		distinct(rows[0].extract), distinct(rows[1].extract), distinct(rows[2].extract), distinct(rows[3].extract))
	return nil
}

func (r *runner) simulation() (*sim.SimulationResult, error) {
	if r.simResult != nil {
		return r.simResult, nil
	}
	cfg := sim.DefaultSimulationConfig()
	cfg.World = r.worldCfg
	cfg.Parallelism = r.parallel
	if r.scale == "small" {
		cfg.BatchSize = 20
	}
	res, err := sim.RunSimulation(cfg)
	if err != nil {
		return nil, err
	}
	r.simResult = res
	return res, nil
}

// table2 prints the simulation summary.
func (r *runner) table2() error {
	res, err := r.simulation()
	if err != nil {
		return err
	}
	paper := map[sim.System][2]float64{ // weeks, savings
		sim.SystemManual:      {4.1, 0},
		sim.SystemSequential:  {2.1, 0.49},
		sim.SystemScrutinizer: {1.7, 0.59},
	}
	fmt.Printf("%-14s %10s %10s %10s %10s %12s\n",
		"", "Weeks", "%Savings", "AvgAcc", "MaxAcc", "Comp(mins)")
	for _, s := range res.Systems {
		p := paper[s.System]
		fmt.Printf("%-14s %5.2f(%3.1f) %5.0f%%(%2.0f%%) %9.2f %9.2f %11.1f\n",
			s.System, s.Weeks, p[0], s.Savings*100, p[1]*100, s.AvgAccuracy, s.MaxAccuracy, s.ComputeMinutes)
	}
	fmt.Println("(paper values in parens; Manual has no classifier accuracy)")
	return nil
}

func (r *runner) table3() error {
	if err := report.WriteTable3(os.Stdout); err != nil {
		return err
	}
	// Quantitative addendum: the AggChecker-style baseline (explicit
	// claims, fixed 9-op library, single user) against the same document.
	w, err := worldgen.Generate(r.worldCfg)
	if err != nil {
		return err
	}
	checker, err := aggcheck.New(w.Corpus, aggcheck.DefaultConfig())
	if err != nil {
		return err
	}
	cov := checker.CheckDocument(w.Document)
	fmt.Printf("\nAggChecker-style baseline on the same document (%d claims):\n", cov.Total)
	fmt.Printf("  unsupported (general/parameterless): %d (%.0f%%)\n",
		cov.Unsupported, 100*float64(cov.Unsupported)/float64(cov.Total))
	fmt.Printf("  attempted: %d, matched: %d, accuracy on attempted: %.0f%%\n",
		cov.Attempted(), cov.Matched, cov.Accuracy()*100)
	fmt.Println("  (Scrutinizer engages every claim; see table2/fig5 for its accuracy)")
	return nil
}

// fig5 prints the user-study bars.
func (r *runner) fig5() error {
	cfg := sim.DefaultStudyConfig()
	if r.scale == "paper" {
		cfg.World = r.worldCfg
		cfg.World.NumClaims = 600
		cfg.World.NumFormulas = 60
	}
	res, err := sim.RunUserStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Claims verified in 20 minutes per checker (paper: M≈7-13, S≈19-26):")
	for _, c := range res.Checkers {
		fmt.Printf("  %-3s correct=%-3d incorrect=%-2d skipped=%-2d (%.0fs used)\n",
			c.Name, c.Correct, c.Incorrect, c.Skipped, c.Seconds)
	}
	fmt.Printf("manual avg=%.1f system avg=%.1f (paper: 7 vs 23)\n", res.ManualAvg, res.SystemAvg)
	fmt.Printf("3-checker majority accuracy: %.0f%% (paper: 100%%)\n", res.MajorityAccuracy*100)
	return nil
}

// fig6 prints verification time vs claim complexity.
func (r *runner) fig6() error {
	cfg := sim.DefaultStudyConfig()
	res, err := sim.RunUserStudy(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Mean verification time (s) by claim complexity (paper: System ≈ half of Manual):")
	fmt.Printf("%-11s %12s %12s\n", "Complexity", "Manual", "System")
	for _, p := range res.Complexity {
		m, s := "-", "-"
		if p.ManualCount > 0 {
			m = fmt.Sprintf("%.0f±%.0f", p.ManualMean, p.ManualStd)
		}
		if p.SystemCount > 0 {
			s = fmt.Sprintf("%.0f±%.0f", p.SystemMean, p.SystemStd)
		}
		fmt.Printf("%-11d %12s %12s\n", p.Complexity, m, s)
	}
	return nil
}

// fig7 prints accumulated verification time.
func (r *runner) fig7() error {
	res, err := r.simulation()
	if err != nil {
		return err
	}
	fmt.Println("Accumulated verification time (weeks) vs verified claims:")
	fmt.Printf("%-9s", "claims")
	for _, s := range res.Systems {
		fmt.Printf(" %12s", s.System)
	}
	fmt.Println()
	// Align series on verified-claim counts of the first system.
	if len(res.Systems) == 0 {
		return fmt.Errorf("no systems")
	}
	n := len(res.Systems[0].Series)
	for i := 0; i < n; i++ {
		fmt.Printf("%-9d", res.Systems[0].Series[i].VerifiedClaims)
		for _, s := range res.Systems {
			if i < len(s.Series) {
				fmt.Printf(" %12.2f", s.Series[i].Weeks)
			} else {
				fmt.Printf(" %12s", "-")
			}
		}
		fmt.Println()
	}
	return nil
}

// fig8 prints classifier accuracy evolution for Scrutinizer vs Sequential.
func (r *runner) fig8() error {
	res, err := r.simulation()
	if err != nil {
		return err
	}
	var seq, scr *sim.SystemResult
	for i := range res.Systems {
		switch res.Systems[i].System {
		case sim.SystemSequential:
			seq = &res.Systems[i]
		case sim.SystemScrutinizer:
			scr = &res.Systems[i]
		}
	}
	if seq == nil || scr == nil {
		return fmt.Errorf("simulation lacks assisted systems")
	}
	fmt.Println("Average classifier accuracy vs verified claims (paper: Scrutinizer dominates mid-run):")
	fmt.Printf("%-9s %12s %12s\n", "claims", "Scrutinizer", "Sequential")
	for i := range scr.Series {
		line := fmt.Sprintf("%-9d %12.3f", scr.Series[i].VerifiedClaims, scr.Series[i].AvgAccuracy)
		if i < len(seq.Series) {
			line += fmt.Sprintf(" %12.3f", seq.Series[i].AvgAccuracy)
		}
		fmt.Println(line)
	}
	return nil
}

// fig9 prints per-classifier accuracy evolution for Scrutinizer.
func (r *runner) fig9() error {
	res, err := r.simulation()
	if err != nil {
		return err
	}
	var scr *sim.SystemResult
	for i := range res.Systems {
		if res.Systems[i].System == sim.SystemScrutinizer {
			scr = &res.Systems[i]
		}
	}
	if scr == nil {
		return fmt.Errorf("no Scrutinizer run")
	}
	fmt.Println("Per-classifier accuracy vs verified claims (paper: row keys hardest):")
	fmt.Printf("%-9s %10s %10s %10s %10s\n", "claims", "relation", "rowkey", "attribute", "formula")
	for _, s := range scr.Series {
		fmt.Printf("%-9d %10.3f %10.3f %10.3f %10.3f\n",
			s.VerifiedClaims, s.PerClassifier[0], s.PerClassifier[1], s.PerClassifier[2], s.PerClassifier[3])
	}
	return nil
}

// ablations runs the ablation comparisons: claim-ordering strategies and
// the question-planning design choices.
func (r *runner) ablations() error {
	w, err := worldgen.Generate(r.worldCfg)
	if err != nil {
		return err
	}
	fmt.Println("claim-ordering ablation (team-weeks, lower is better):")
	for _, ord := range []core.Ordering{core.OrderILP, core.OrderGreedy, core.OrderSequential, core.OrderRandom} {
		engine, err := sim.BuildEngine(w, sim.SimCostModel(), 3)
		if err != nil {
			return err
		}
		team, err := crowd.NewTeam("A", 3, 0.98, 3)
		if err != nil {
			return err
		}
		vc := core.VerifyConfig{
			BatchSize:       20,
			SectionReadCost: 60,
			Ordering:        ord,
			Seed:            3,
			Parallelism:     r.parallel,
		}
		if ord == core.OrderILP {
			vc.UtilityWeight = 60
		}
		res, err := engine.Verify(context.Background(), w.Document, team, vc)
		if err != nil {
			return err
		}
		fmt.Printf("  %-11s %.3f weeks\n", ord, res.Seconds/sim.SecondsPerWeek(3))
	}

	fmt.Println("\nanswer-option ordering (expected property-screen cost, Cor. 2):")
	options := []planner.Option{
		{Value: "e", Prob: 0.05}, {Value: "d", Prob: 0.10},
		{Value: "c", Prob: 0.15}, {Value: "b", Prob: 0.25}, {Value: "a", Prob: 0.45},
	}
	fmt.Printf("  sorted:   %.2f x vp\n", planner.ExpectedVerificationCost(planner.SortOptions(options), 1))
	fmt.Printf("  unsorted: %.2f x vp\n", planner.ExpectedVerificationCost(options, 1))

	fmt.Println("\nscreen/option budgets (Theorem 1 overhead bound):")
	cm := planner.DefaultCostModel()
	fmt.Printf("  Corollary 1 (nop=%d, nsc=%d): %.2f\n",
		cm.NumOptions(), cm.NumScreens(), cm.OverheadBound(cm.NumOptions(), cm.NumScreens()))
	fmt.Printf("  naive (50, 50):              %.2f\n", cm.OverheadBound(50, 50))
	return nil
}

// fig10 prints top-k accuracy per classifier.
func (r *runner) fig10() error {
	res, err := r.simulation()
	if err != nil {
		return err
	}
	if len(res.TopK) == 0 {
		return fmt.Errorf("no top-k data (Scrutinizer system not run)")
	}
	fmt.Println("Top-k accuracy (paper: most potential reached by k=10):")
	fmt.Printf("%-5s %9s %10s %10s %10s %10s\n", "k", "average", "relation", "rowkey", "attribute", "formula")
	for _, p := range res.TopK {
		fmt.Printf("%-5d %9.3f %10.3f %10.3f %10.3f %10.3f\n",
			p.K, p.Average, p.PerKind[0], p.PerKind[1], p.PerKind[2], p.PerKind[3])
	}
	return nil
}
