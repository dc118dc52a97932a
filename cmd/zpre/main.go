// Command zpre verifies a multi-threaded program file: it unrolls loops,
// encodes the verification condition under the chosen memory model and
// solves it with the chosen decision strategy (baseline / zpre- / zpre /
// zpre+static).
//
// Usage:
//
//	zpre [-model sc|tso|pso] [-strategy baseline|zpre-|zpre|zpre+static]
//	     [-unroll k] [-width 8] [-timeout 30s] [-prune] [-dataflow] [-rg] [-stats]
//	     [-incremental] [-trace out.jsonl] [-trace-sample n]
//	     [-cpuprofile cpu.out] [-memprofile mem.out]
//	     [-dump-smt out.smt2] [-dump-eog out.dot] program.cp
//	zpre analyze [-unroll k] program.cp
//
// With -incremental, bounds 1..k are swept on one live solver (the encoding
// grows by deltas under per-bound activation literals, learned clauses
// carry over) and a verdict is printed per bound; the exit status comes
// from the final bound.
//
// With -rg, the rely-guarantee proof-outline engine (internal/rg) runs
// first: if it discharges every assertion at its interference fixpoint the
// program is reported safe at EVERY unroll bound and no SMT instance is
// built; otherwise its stabilized invariant ranges are injected into the
// encoding as guarded per-read constraints (equisatisfiable). Composes with
// -incremental; incompatible with -each and -proof.
//
// The analyze subcommand runs only the static lockset/MHP race analysis and
// prints per-variable diagnostics (no SMT solving).
//
// Exit status: 0 = safe (unsat), 1 = unsafe (sat), 2 = unknown/error. For
// analyze: 0 = no potential races, 1 = potential race reported, 2 = error.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"zpre"
	"zpre/internal/analysis"
	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/encode"
	"zpre/internal/eog"
	"zpre/internal/incremental"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/profiling"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/smtlib"
	"zpre/internal/telemetry"
	"zpre/internal/witness"
)

// stopProfiles flushes any active pprof profiles. Every exit path must go
// through exit() so the profile files are complete.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "analyze" {
		os.Exit(runAnalyze(os.Args[2:]))
	}
	var (
		modelFlag = flag.String("model", "sc", "memory model: sc, tso, pso")
		stratFlag = flag.String("strategy", "zpre", "decision strategy: baseline, zpre-, zpre, zpre+static")
		unroll    = flag.Int("unroll", 1, "loop unrolling bound")
		width     = flag.Int("width", 8, "program integer bit width")
		timeout   = flag.Duration("timeout", 30*time.Second, "solve timeout")
		maxDec    = flag.Uint64("max-decisions", 0, "decision budget per solve (0 = none)")
		maxMemMB  = flag.Int64("max-mem-mb", 0, "approximate solver memory cap in MiB; exceeding it returns UNKNOWN (memout) (0 = none)")
		seed      = flag.Int64("seed", 1, "random-polarity seed")
		stats     = flag.Bool("stats", false, "print encoding and solver statistics")
		prune     = flag.Bool("prune", false, "statically prune provably redundant rf/ws candidates")
		dfFlag    = flag.Bool("dataflow", false, "value-flow dataflow: fold constants, prune value-infeasible rf edges, fix forced hb edges")
		rgFlag    = flag.Bool("rg", false, "rely-guarantee proof outlines: prove assertions at every unroll bound, or inject interference-stabilized invariants into the encoding")
		rgDomain  = flag.String("rg-domain", "", "rely-guarantee abstract domain: interval (default) or dbm (relational difference-bound zones)")
		rgPre     = flag.Bool("rg-prefilter", false, "skip hopeless rely-guarantee proof attempts with a cheap pre-filter (requires -rg)")
		mhbFlag   = flag.Bool("mhb", false, "must-happens-before closure: fix forced rf edges and their must-fr consequences at level 0, elide contradicted interference candidates")
		dumpSMT   = flag.String("dump-smt", "", "write the VC as SMT-LIB v2.6 to this file")
		dumpEOG   = flag.String("dump-eog", "", "write the event order graph as Graphviz DOT")
		witness   = flag.Bool("witness", false, "on UNSAFE, print a violating interleaving")
		checkPf   = flag.Bool("proof", false, "record and independently check the refutation proof on SAFE")
		each      = flag.Bool("each", false, "check every assertion separately (incremental per-property queries)")
		increm    = flag.Bool("incremental", false, "sweep bounds 1..unroll on one live solver, printing a per-bound verdict")
		traceOut  = flag.String("trace", "", "write the structured search trace (JSONL) to this file")
		chromeOut = flag.String("chrometrace", "", "write this verification's span trace as Chrome trace-event JSON (load in Perfetto)")
		traceN    = flag.Int("trace-sample", 1, "record only every Nth high-volume trace event")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: zpre [flags] program.cp")
		flag.Usage()
		os.Exit(2)
	}

	if *cpuProf != "" || *memProf != "" {
		stop, err := profiling.Start(*cpuProf, *memProf)
		if err != nil {
			fatalf("%v", err)
		}
		stopProfiles = stop
	}

	model, ok := memmodel.Parse(*modelFlag)
	if !ok {
		fatalf("unknown memory model %q", *modelFlag)
	}
	strat, ok := core.ParseStrategy(*stratFlag)
	if !ok {
		fatalf("unknown strategy %q", *stratFlag)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	prog, err := cprog.Parse(flag.Arg(0), string(src))
	if err != nil {
		fatalf("%v", err)
	}

	if *dumpSMT != "" || *dumpEOG != "" {
		unrolled := cprog.Unroll(prog, *unroll, cprog.UnwindAssume)
		vc, err := encode.Program(unrolled, encode.Options{Model: model, Width: *width})
		if err != nil {
			fatalf("encode: %v", err)
		}
		if *dumpSMT != "" {
			if err := os.WriteFile(*dumpSMT, []byte(smtlib.Write(vc)), 0o644); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *dumpSMT)
		}
		if *dumpEOG != "" {
			g := eog.FromVC(vc)
			if err := os.WriteFile(*dumpEOG, []byte(g.DOT(prog.Name)), 0o644); err != nil {
				fatalf("%v", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *dumpEOG)
		}
	}

	// SIGINT/SIGTERM cancel the solve cooperatively: the search stops at its
	// next poll and the verdict comes back UNKNOWN (cancelled) instead of
	// the process dying mid-solve.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	verifyOpts := zpre.Options{
		Model:          model,
		Strategy:       strat,
		Unroll:         *unroll,
		Width:          *width,
		Timeout:        *timeout,
		MaxDecisions:   *maxDec,
		MaxMemoryBytes: *maxMemMB << 20,
		Context:        ctx,
		Seed:           *seed,
		StaticPrune:    *prune,
		Dataflow:       *dfFlag,
		MHB:            *mhbFlag,
		RG:             *rgFlag,
		RGDomain:       *rgDomain,
		RGPrefilter:    *rgPre,
		TimePhases:     *stats,
	}
	if (*rgDomain != "" || *rgPre) && !*rgFlag {
		fatalf("-rg-domain and -rg-prefilter require -rg")
	}
	if *rgFlag && (*each || *checkPf) {
		// VerifyEach needs the full per-assert instance and a proof only
		// exists when the SMT backend actually ran.
		fatalf("-rg is not compatible with -each or -proof")
	}
	var chromeTr *obs.Trace
	if *chromeOut != "" {
		if *each || *increm {
			fatalf("-chrometrace is not supported with -each or -incremental")
		}
		chromeTr = obs.NewTrace(obs.RunID{
			Subcategory: "cli", Benchmark: prog.Name,
			Model: model.String(), Strategy: strat.String(), Bound: *unroll,
		}.String())
		verifyOpts.Spans = chromeTr
	}
	var sink telemetry.Sink
	if *traceOut != "" {
		if *each {
			fatalf("-trace is not supported with -each (one trace covers one solve)")
		}
		sink, err = telemetry.NewFileSink(*traceOut)
		if err != nil {
			fatalf("%v", err)
		}
		verifyOpts.TraceSink = sink
		verifyOpts.TraceEvery = *traceN
	}
	if *increm {
		if *each || *checkPf || *traceOut != "" || *prune {
			fatalf("-incremental is not compatible with -each, -proof, -trace or -prune")
		}
		var rgRanges map[string]dataflow.Interval
		if *rgFlag {
			res, err := rg.Prove(prog, rg.Options{
				Model: model, Width: *width, Domain: *rgDomain, Prefilter: *rgPre,
			})
			if err != nil {
				fatalf("rg: %v", err)
			}
			if res.Proved {
				fmt.Printf("%s: SAFE at every bound (rely-guarantee proof, %d fixpoint rounds; no SMT instance solved)\n",
					prog.Name, res.StabilizeIters)
				exit(0)
			}
			if *stats {
				fmt.Printf("rely-guarantee: unproven after %d fixpoint rounds; injecting stabilized invariants\n",
					res.StabilizeIters)
			}
			rgRanges = res.Ranges
		}
		exit(runIncrementalSweep(prog, model, strat, ctx, *unroll, *width, *timeout, *maxDec, *maxMemMB<<20, *seed, *stats, *witness, *dfFlag, rgRanges))
	}

	if *each {
		reps, err := zpre.VerifyEach(prog, verifyOpts)
		if err != nil {
			fatalf("%v", err)
		}
		code := 0
		for _, r := range reps {
			where := "main"
			if r.Thread > 0 {
				where = fmt.Sprintf("thread %d", r.Thread)
			}
			fmt.Printf("assertion %d (%s): %s (solve %v)\n",
				r.Index, where, verdictText(r.Verdict), r.SolveTime.Round(time.Microsecond))
			if r.Verdict == zpre.Unsafe {
				code = 1
			} else if r.Verdict == zpre.Unknown && code == 0 {
				code = 2
			}
		}
		exit(code)
	}

	var rep zpre.Report
	if *checkPf {
		rep, err = zpre.VerifyWithProof(prog, verifyOpts)
	} else {
		rep, err = zpre.Verify(prog, verifyOpts)
	}
	if err != nil {
		fatalf("%v", err)
	}
	if sink != nil {
		if cerr := sink.Close(); cerr != nil {
			fatalf("trace: %v", cerr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
	if chromeTr != nil {
		if cerr := obs.WriteChromeFile(*chromeOut, []*obs.Trace{chromeTr}); cerr != nil {
			fatalf("chrometrace: %v", cerr)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (open in Perfetto)\n", *chromeOut)
	}
	if rep.ProofChecked {
		fmt.Fprintln(os.Stderr, "refutation proof independently checked: OK")
	}

	if *witness && rep.Verdict == zpre.Unsafe {
		printWitness(prog, model, *unroll, *width, *seed)
	}

	fmt.Printf("%s: %s (model=%s strategy=%s unroll=%d, solve %v)\n",
		prog.Name, verdictStopText(rep.Verdict, rep.Stop), model, strat, *unroll,
		rep.SolveTime.Round(time.Microsecond))
	if *stats {
		fmt.Printf("encoding: %d threads, %d events (%d reads, %d writes), %d rf vars, %d ws vars, %d po edges, %d clauses, %d variables\n",
			rep.EncodeStats.Threads, rep.EncodeStats.Events, rep.EncodeStats.Reads,
			rep.EncodeStats.Writes, rep.EncodeStats.RFVars, rep.EncodeStats.WSVars,
			rep.EncodeStats.POEdges, rep.EncodeStats.Clauses, rep.EncodeStats.Variables)
		if *prune {
			fmt.Printf("pruning: %d rf candidates, %d ws pairs dropped by the static analysis\n",
				rep.EncodeStats.RFPruned, rep.EncodeStats.WSPruned)
		}
		if *dfFlag {
			fmt.Printf("dataflow: %d rf candidates value-pruned, %d assignments folded, %d hb edges fixed (analysis %v)\n",
				rep.EncodeStats.ValuePruned, rep.EncodeStats.FoldedAssigns,
				rep.EncodeStats.FixedHB, rep.EncodeStats.DataflowTime.Round(time.Microsecond))
		}
		if *mhbFlag {
			fmt.Printf("mhb closure: %d rf edges fixed, %d must-fr derived, %d candidates elided\n",
				rep.EncodeStats.MHBFixedRF, rep.EncodeStats.MHBFixedFR, rep.EncodeStats.MHBPruned)
		}
		if *rgFlag {
			switch {
			case rep.RGProved:
				fmt.Printf("rely-guarantee: proved at every bound in %d fixpoint rounds (no SMT instance)\n",
					rep.RGStabilizeIters)
			case rep.RGSkippedPrefilter:
				fmt.Println("rely-guarantee: pre-filter skipped the proof attempt")
			default:
				fmt.Printf("rely-guarantee: unproven after %d fixpoint rounds; %d invariant constraints injected\n",
					rep.RGStabilizeIters, rep.EncodeStats.RGInvariants)
			}
		}
		fmt.Printf("solver: %d decisions, %d propagations (%d theory), %d conflicts (%d theory), %d restarts\n",
			rep.SolverStats.Decisions, rep.SolverStats.Propagations, rep.SolverStats.TheoryProps,
			rep.SolverStats.Conflicts, rep.SolverStats.TheoryConfl, rep.SolverStats.Restarts)
		fmt.Printf("theory: %d asserts, %d conflicts, %d path queries, %d propagations\n",
			rep.OrderStats.Asserts, rep.OrderStats.Conflicts,
			rep.OrderStats.PathQueries, rep.OrderStats.Propagations)
		if t := rep.SearchTimings; t.BCP+t.Theory+t.Analyze+t.Reduce+t.Inprocess > 0 {
			fmt.Printf("phases: bcp %v, theory %v, analyze %v, reduce %v, inprocess %v\n",
				t.BCP.Round(time.Microsecond), t.Theory.Round(time.Microsecond),
				t.Analyze.Round(time.Microsecond), t.Reduce.Round(time.Microsecond),
				t.Inprocess.Round(time.Microsecond))
		}
	}
	switch rep.Verdict {
	case zpre.Safe, zpre.UnboundedSafe:
		exit(0)
	case zpre.Unsafe:
		exit(1)
	default:
		exit(2)
	}
}

// runIncrementalSweep verifies bounds 1..maxBound on one live solver,
// printing a line per bound. Returns the process exit code, derived from
// the final bound's verdict.
func runIncrementalSweep(prog *cprog.Program, model memmodel.Model, strat core.Strategy, ctx context.Context, maxBound, width int, timeout time.Duration, maxDec uint64, maxMem, seed int64, stats, showWitness, dataflow bool, rgRanges map[string]dataflow.Interval) int {
	sweep, err := incremental.New(prog, incremental.Options{
		Model:          model,
		Strategy:       strat,
		Width:          width,
		Timeout:        timeout,
		MaxDecisions:   maxDec,
		MaxMemoryBytes: maxMem,
		Context:        ctx,
		Seed:           seed,
		TimePhases:     stats,
		CheckWitness:   showWitness,
		Dataflow:       dataflow,
		RGRanges:       rgRanges,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "zpre: incremental: %v\n", err)
		return 2
	}
	last := incremental.Unknown
	for k := 1; k <= maxBound; k++ {
		br, err := sweep.Next()
		if err != nil {
			fmt.Fprintf(os.Stderr, "zpre: incremental k=%d: %v\n", k, err)
			return 2
		}
		verdict := "UNKNOWN"
		switch br.Verdict {
		case incremental.Safe:
			verdict = "SAFE"
		case incremental.Unsafe:
			verdict = "UNSAFE"
		}
		if br.Verdict == incremental.Unknown && br.Stop != sat.StopNone {
			verdict += " (" + br.Stop.String() + ")"
		}
		fmt.Printf("%s k=%d: %s (encode %v, solve %v, cumulative %v; +%d decisions, +%d conflicts; totals %d/%d)\n",
			prog.Name, k, verdict,
			br.Encode.Round(time.Microsecond), br.Solve.Round(time.Microsecond),
			(br.Encode + br.Solve).Round(time.Microsecond),
			br.Stats.Decisions, br.Stats.Conflicts,
			br.Cumulative.Decisions, br.Cumulative.Conflicts)
		if stats {
			es := br.EncodeStats
			fmt.Printf("  encoding now: %d events, %d rf vars, %d ws vars, %d po edges, %d clauses, %d variables\n",
				es.Events, es.RFVars, es.WSVars, es.POEdges, es.Clauses, es.Variables)
			if dataflow {
				fmt.Printf("  dataflow: %d rf candidates value-pruned, %d assignments folded\n",
					es.ValuePruned, es.FoldedAssigns)
			}
		}
		if showWitness && br.Verdict == incremental.Unsafe {
			steps, werr := witness.Extract(sweep.VC())
			if werr != nil {
				fmt.Fprintf(os.Stderr, "zpre: witness: %v\n", werr)
			} else {
				fmt.Println("witness interleaving (thread, access, value):")
				fmt.Print(witness.Format(steps, "  "))
			}
		}
		last = br.Verdict
	}
	switch last {
	case incremental.Safe:
		return 0
	case incremental.Unsafe:
		return 1
	}
	return 2
}

// printWitness re-solves the instance (the Verify-owned builder is not
// exposed) and linearises the model's EOG into a concrete interleaving.
func printWitness(prog *cprog.Program, model memmodel.Model, unroll, width int, seed int64) {
	unrolled := cprog.Unroll(prog, unroll, cprog.UnwindAssume)
	vc, err := encode.Program(unrolled, encode.Options{Model: model, Width: width})
	if err != nil {
		fatalf("encode: %v", err)
	}
	infos := core.ClassifyBuilder(vc.Builder)
	dec := core.NewDecider(core.ZPRE, infos, core.Config{Seed: seed})
	if _, err := vc.Builder.Solve(smt.Options{Decider: dec}); err != nil {
		fatalf("solve: %v", err)
	}
	steps, err := witness.Extract(vc)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println("witness interleaving (thread, access, value):")
	fmt.Print(witness.Format(steps, "  "))
}

// runAnalyze implements the analyze subcommand: static race diagnostics
// with no solving. Returns the process exit code.
func runAnalyze(args []string) int {
	fs := flag.NewFlagSet("zpre analyze", flag.ExitOnError)
	unroll := fs.Int("unroll", 1, "loop unrolling bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: zpre analyze [-unroll k] program.cp")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "zpre: %v\n", err)
		return 2
	}
	prog, err := cprog.Parse(fs.Arg(0), string(src))
	if err != nil {
		fmt.Fprintf(os.Stderr, "zpre: %v\n", err)
		return 2
	}
	unrolled := cprog.Unroll(prog, *unroll, cprog.UnwindAssume)
	res, err := analysis.Analyze(unrolled)
	if err != nil {
		fmt.Fprintf(os.Stderr, "zpre: %v\n", err)
		return 2
	}
	fmt.Printf("%s (unroll=%d):\n%s", prog.Name, *unroll, analysis.FormatReport(res.Races()))
	if len(res.RacyVars()) > 0 {
		return 1
	}
	return 0
}

func verdictText(v zpre.Verdict) string {
	switch v {
	case zpre.Safe:
		return "SAFE (verification condition unsat)"
	case zpre.UnboundedSafe:
		return "SAFE at every bound (rely-guarantee proof; no SMT instance solved)"
	case zpre.Unsafe:
		return "UNSAFE (assertion violation reachable)"
	}
	return "UNKNOWN (budget exhausted)"
}

// verdictStopText refines an UNKNOWN with the solver's stop reason
// (deadline, decision-budget, memout, cancelled).
func verdictStopText(v zpre.Verdict, stop sat.StopReason) string {
	if v == zpre.Unknown && stop != sat.StopNone {
		return "UNKNOWN (" + stop.String() + ")"
	}
	return verdictText(v)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "zpre: "+format+"\n", args...)
	exit(2)
}
