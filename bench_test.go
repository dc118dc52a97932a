package zpre_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5), plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark runs the corresponding slice of the
// evaluation and reports the paper's headline quantity (speedup or ratio)
// as a custom metric, so `go test -bench=. -benchmem` regenerates every
// experiment. Absolute numbers differ from the paper's (different machine,
// different solver, scaled corpus); the shape — who wins, by roughly what
// factor, where WMM amplifies the win — is the reproduction target.
//
// The table/figure ↔ benchmark mapping is indexed in DESIGN.md §4.

import (
	"testing"
	"time"

	"zpre"
	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/encode"
	"zpre/internal/harness"
	"zpre/internal/memmodel"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/svcomp"
)

// benchConfig is the evaluation slice used by the table/figure benches:
// width 16 makes the instances hard enough that search dominates overhead
// (see EXPERIMENTS.md), bounds 1..3 scale the looped programs.
func benchConfig(models []memmodel.Model, strategies []core.Strategy) harness.Config {
	return harness.Config{
		Models:     models,
		Strategies: strategies,
		Bounds:     []int{1, 2, 3},
		Timeout:    60 * time.Second,
		Width:      16,
		Seed:       1,
	}
}

func reportTable1(b *testing.B, res *harness.Results) {
	for _, row := range res.Table1() {
		b.ReportMetric(float64(row.AllBase())/float64(row.AllZpre()),
			"speedup_"+row.Model.String())
	}
}

// BenchmarkTable1_Overall regenerates Table 1: both-solved accumulated time
// of baseline vs ZPRE under SC, TSO and PSO, reported as speedup metrics.
func BenchmarkTable1_Overall(b *testing.B) {
	cfg := benchConfig(memmodel.All(), []core.Strategy{core.Baseline, core.ZPRE})
	for i := 0; i < b.N; i++ {
		res := harness.Run(cfg)
		if i == b.N-1 {
			reportTable1(b, res)
		}
	}
}

// BenchmarkTable2_SearchCounters regenerates Table 2: decisions,
// propagations and conflicts ratios of baseline vs ZPRE per memory model.
func BenchmarkTable2_SearchCounters(b *testing.B) {
	cfg := benchConfig(memmodel.All(), []core.Strategy{core.Baseline, core.ZPRE})
	for i := 0; i < b.N; i++ {
		res := harness.Run(cfg)
		if i == b.N-1 {
			for _, row := range res.Table2() {
				m := row.Model.String()
				b.ReportMetric(float64(row.DecisionsBase)/float64(row.DecisionsZpre), "decisions_"+m)
				b.ReportMetric(float64(row.PropsBase)/float64(row.PropsZpre), "props_"+m)
				b.ReportMetric(float64(row.ConflictsBase)/float64(row.ConflictsZpre), "conflicts_"+m)
			}
		}
	}
}

// BenchmarkTable3_ThreeStrategies regenerates Table 3: baseline vs ZPRE⁻ vs
// ZPRE, reporting both speedups per model.
func BenchmarkTable3_ThreeStrategies(b *testing.B) {
	cfg := benchConfig(memmodel.All(),
		[]core.Strategy{core.Baseline, core.ZPREMinus, core.ZPRE})
	for i := 0; i < b.N; i++ {
		res := harness.Run(cfg)
		if i == b.N-1 {
			for _, row := range res.Table3() {
				for _, per := range row.Per {
					if per.Strategy == core.Baseline {
						continue
					}
					b.ReportMetric(per.Speedup,
						per.Strategy.String()+"_"+row.Model.String())
				}
			}
		}
	}
}

// scatterBench regenerates one of Figures 6-8: the per-task scatter for a
// model. The reported metrics are the fraction of tasks below the diagonal
// (ZPRE wins) and the overall speedup.
func scatterBench(b *testing.B, mm memmodel.Model) {
	cfg := benchConfig([]memmodel.Model{mm}, []core.Strategy{core.Baseline, core.ZPRE})
	for i := 0; i < b.N; i++ {
		res := harness.Run(cfg)
		if i == b.N-1 {
			points := res.Scatter(mm)
			wins := 0
			for _, p := range points {
				if p.Zpre < p.Base {
					wins++
				}
			}
			b.ReportMetric(float64(len(points)), "tasks")
			b.ReportMetric(float64(wins)/float64(len(points)), "zpre_win_fraction")
			reportTable1(b, res)
		}
	}
}

// BenchmarkFigure6_ScatterSC regenerates Figure 6 (SC scatter).
func BenchmarkFigure6_ScatterSC(b *testing.B) { scatterBench(b, memmodel.SC) }

// BenchmarkFigure7_ScatterTSO regenerates Figure 7 (TSO scatter).
func BenchmarkFigure7_ScatterTSO(b *testing.B) { scatterBench(b, memmodel.TSO) }

// BenchmarkFigure8_ScatterPSO regenerates Figure 8 (PSO scatter).
func BenchmarkFigure8_ScatterPSO(b *testing.B) { scatterBench(b, memmodel.PSO) }

// subcatBench regenerates one of Figures 9-11: per-subcategory accumulated
// times; the per-subcategory speedups are the reported metrics.
func subcatBench(b *testing.B, mm memmodel.Model) {
	cfg := benchConfig([]memmodel.Model{mm}, []core.Strategy{core.Baseline, core.ZPRE})
	for i := 0; i < b.N; i++ {
		res := harness.Run(cfg)
		if i == b.N-1 {
			for _, row := range res.SubcategoryTimes(mm) {
				b.ReportMetric(row.Speedup(), row.Subcategory)
			}
		}
	}
}

// BenchmarkFigure9_SubcatSC regenerates Figure 9 (per-subcategory, SC).
func BenchmarkFigure9_SubcatSC(b *testing.B) { subcatBench(b, memmodel.SC) }

// BenchmarkFigure10_SubcatTSO regenerates Figure 10 (per-subcategory, TSO).
func BenchmarkFigure10_SubcatTSO(b *testing.B) { subcatBench(b, memmodel.TSO) }

// BenchmarkFigure11_SubcatPSO regenerates Figure 11 (per-subcategory, PSO).
func BenchmarkFigure11_SubcatPSO(b *testing.B) { subcatBench(b, memmodel.PSO) }

// hardTasks returns a fixed set of search-heavy instances for the ablations.
func hardTasks() []harness.Task {
	byName := map[string]svcomp.Benchmark{}
	for _, bench := range svcomp.All() {
		byName[bench.Name] = bench
	}
	var tasks []harness.Task
	for _, pick := range []struct {
		name  string
		bound int
	}{
		{"incr_lock_safe_5", 1},
		{"incr_lock_safe_6", 1},
		{"parsum_lock_safe_5", 1},
		{"fib_bench_safe_2", 3},
		{"long_cs_safe_3", 1},
		{"peterson_fenced", 1},
	} {
		bench, ok := byName[pick.name]
		if !ok {
			panic("missing ablation benchmark " + pick.name)
		}
		for _, mm := range memmodel.All() {
			tasks = append(tasks, harness.Task{Bench: bench, Model: mm, Bound: pick.bound})
		}
	}
	return tasks
}

// solveTask encodes and solves one task with explicit options, returning the
// elapsed solve time and stats.
func solveTask(b *testing.B, task harness.Task, strat core.Strategy, cfg core.Config, eager bool) (time.Duration, sat.Stats) {
	b.Helper()
	unrolled := cprog.Unroll(task.Bench.Program, task.Bound, cprog.UnwindAssume)
	vc, err := encode.Program(unrolled, encode.Options{Model: task.Model, Width: 16})
	if err != nil {
		b.Fatal(err)
	}
	infos := core.Classify(vc.Builder.NamedVars())
	dec := core.NewDecider(strat, infos, cfg)
	var decider sat.Decider
	if dec != nil {
		decider = dec
	}
	res, err := vc.Builder.Solve(smt.Options{Decider: decider, EagerOrderPropagation: eager})
	if err != nil {
		b.Fatal(err)
	}
	if res.Status == sat.Unknown {
		b.Fatal("ablation task did not solve")
	}
	return res.Elapsed, res.Stats
}

// BenchmarkAblation_RandomPolarity compares the paper's random polarity for
// interference decisions against always-true and always-false (DESIGN.md
// ablation: is the randomness load-bearing?).
func BenchmarkAblation_RandomPolarity(b *testing.B) {
	tasks := hardTasks()
	for i := 0; i < b.N; i++ {
		var tRandom, tTrue, tFalse time.Duration
		for _, task := range tasks {
			d1, _ := solveTask(b, task, core.ZPRE, core.Config{Seed: 1, Polarity: core.PolarityRandom}, false)
			d2, _ := solveTask(b, task, core.ZPRE, core.Config{Polarity: core.PolarityTrue}, false)
			d3, _ := solveTask(b, task, core.ZPRE, core.Config{Polarity: core.PolarityFalse}, false)
			tRandom += d1
			tTrue += d2
			tFalse += d3
		}
		if i == b.N-1 {
			b.ReportMetric(tRandom.Seconds(), "random_s")
			b.ReportMetric(tTrue.Seconds(), "true_s")
			b.ReportMetric(tFalse.Seconds(), "false_s")
		}
	}
}

// BenchmarkAblation_NumWriteTieBreak compares full ZPRE against ZPRE without
// the #write ranking (heuristic 3 of §4.1).
func BenchmarkAblation_NumWriteTieBreak(b *testing.B) {
	tasks := hardTasks()
	for i := 0; i < b.N; i++ {
		var full, flat time.Duration
		var fullDecs, flatDecs uint64
		for _, task := range tasks {
			d1, s1 := solveTask(b, task, core.ZPRE, core.Config{Seed: 1}, false)
			d2, s2 := solveTask(b, task, core.ZPRE, core.Config{Seed: 1, DisableNumWrites: true}, false)
			full += d1
			flat += d2
			fullDecs += s1.Decisions
			flatDecs += s2.Decisions
		}
		if i == b.N-1 {
			b.ReportMetric(full.Seconds(), "with_numwrite_s")
			b.ReportMetric(flat.Seconds(), "without_numwrite_s")
			b.ReportMetric(float64(flatDecs)/float64(fullDecs), "decision_ratio")
		}
	}
}

// BenchmarkAblation_OrderTheoryPropagation compares lazy (conflict-only, the
// paper's setting) against eager reachability propagation in the ordering
// theory.
func BenchmarkAblation_OrderTheoryPropagation(b *testing.B) {
	tasks := hardTasks()
	for i := 0; i < b.N; i++ {
		var lazy, eager time.Duration
		for _, task := range tasks {
			d1, _ := solveTask(b, task, core.ZPRE, core.Config{Seed: 1}, false)
			d2, _ := solveTask(b, task, core.ZPRE, core.Config{Seed: 1}, true)
			lazy += d1
			eager += d2
		}
		if i == b.N-1 {
			b.ReportMetric(lazy.Seconds(), "lazy_s")
			b.ReportMetric(eager.Seconds(), "eager_s")
		}
	}
}

// Micro-benchmarks for the substrates.

// BenchmarkMicro_SATPigeonhole measures the raw CDCL core on pigeonhole(7).
func BenchmarkMicro_SATPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := sat.New()
		n := 7
		vars := make([][]sat.Var, n+1)
		for p := 0; p <= n; p++ {
			vars[p] = make([]sat.Var, n)
			for h := 0; h < n; h++ {
				vars[p][h] = s.NewVar()
			}
			lits := make([]sat.Lit, n)
			for h := 0; h < n; h++ {
				lits[h] = sat.PosLit(vars[p][h])
			}
			s.AddClause(lits...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(sat.NegLit(vars[p1][h]), sat.NegLit(vars[p2][h]))
				}
			}
		}
		if s.Solve() != sat.Unsat {
			b.Fatal("php must be unsat")
		}
	}
}

// BenchmarkMicro_EncodeFig2 measures frontend encoding throughput.
func BenchmarkMicro_EncodeFig2(b *testing.B) {
	prog := svcomp.BySubcategory("lit")[0].Program
	for i := 0; i < b.N; i++ {
		if _, err := encode.Program(prog, encode.Options{Model: memmodel.TSO, Width: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_VerifyPeterson measures the whole pipeline on Peterson/TSO.
func BenchmarkMicro_VerifyPeterson(b *testing.B) {
	var prog *cprog.Program
	for _, bench := range svcomp.Lit() {
		if bench.Name == "peterson" {
			prog = bench.Program
		}
	}
	for i := 0; i < b.N; i++ {
		rep, err := zpre.Verify(prog, zpre.Options{Model: zpre.TSO, Strategy: zpre.ZPRE, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Verdict != zpre.Unsafe {
			b.Fatal("peterson must be unsafe under TSO")
		}
	}
}

// BenchmarkAblation_BranchHeuristic reproduces the paper's "Other Attempts"
// (§5.2): combining with the control-flow (branch-condition) heuristic of
// Chen & He 2018. On ConcurrencySafety-style programs branches are scarce,
// so branch-first should track the baseline while ZPRE keeps its edge.
func BenchmarkAblation_BranchHeuristic(b *testing.B) {
	tasks := hardTasks()
	for i := 0; i < b.N; i++ {
		var tBase, tBranch, tZpre, tBoth time.Duration
		for _, task := range tasks {
			d0, _ := solveTask(b, task, core.Baseline, core.Config{}, false)
			d1, _ := solveTask(b, task, core.BranchFirst, core.Config{Seed: 1}, false)
			d2, _ := solveTask(b, task, core.ZPRE, core.Config{Seed: 1}, false)
			d3, _ := solveTask(b, task, core.ZPREBranch, core.Config{Seed: 1}, false)
			tBase += d0
			tBranch += d1
			tZpre += d2
			tBoth += d3
		}
		if i == b.N-1 {
			b.ReportMetric(tBase.Seconds()/tBranch.Seconds(), "branch_speedup")
			b.ReportMetric(tBase.Seconds()/tZpre.Seconds(), "zpre_speedup")
			b.ReportMetric(tBase.Seconds()/tBoth.Seconds(), "zpre_branch_speedup")
		}
	}
}
