// Command evaluate reproduces the paper's evaluation (§5): it runs the
// benchmark corpus under the selected memory models, unroll bounds and
// decision strategies and prints Table 1, Table 2, Table 3 and the data
// behind Figures 6-11 (per-task scatter, per-subcategory times).
//
// Usage:
//
//	evaluate [-models sc,tso,pso] [-bounds 1,2,3] [-timeout 10s]
//	         [-sub wmm,pthread] [-table all|1|2|3] [-figure all|6..11]
//	         [-out results/] [-width 8] [-seed 1] [-progress] [-live]
//	         [-prune] [-dataflow] [-rg] [-trace dir/] [-trace-sample n]
//	         [-cpuprofile cpu.out] [-memprofile mem.out]
//
// With -prune, the static lockset/MHP analysis drops provably-infeasible
// rf/ws interference candidates during encoding and a per-benchmark
// pruning-effectiveness report (formula size before/after) is printed.
//
// With -dataflow, a constant/interval value-flow analysis simplifies each
// program before encoding, drops rf candidates whose write value cannot
// match any read-feasible value, and fixes the happens-before order of
// single-candidate reads; the pruning report gains val-rf/folded/fixhb
// columns.
//
// With -rg, the rely-guarantee proof-outline engine runs once per
// (benchmark, model) pair: proved pairs report unsat at every bound without
// touching the SMT backend, unproven pairs have the engine's stabilized
// invariant ranges injected into their encodings (equisatisfiable). A
// summary line counts proved pairs and injected constraints.
//
// With -trace, every run writes a structured JSONL search trace into the
// given directory (one file per task/strategy; analyse with tracereport).
// -live renders a single self-updating status line on stderr driven by the
// shared metrics registry: runs done, solves in flight, conflict rate.
//
// Observability (see internal/obs): -serve ADDR exposes the metrics
// registry as Prometheus text on /metrics, a live per-run status board on
// /runs and a /healthz probe for the duration of the evaluation (bind
// failures degrade gracefully). -chrometrace FILE exports every run's
// hierarchical span trace (rg prove, unroll, encode with static/dataflow
// children, solve with the BCP/theory/analyze/reduce split) as one Chrome
// trace-event JSON file loadable in Perfetto. -log FILE emits structured
// slog JSON run records keyed by the stable run id
// (sub/bench@model/k<bound>/strategy), the join key shared by spans, trace
// meta records and /runs.
//
// Resilience: SIGINT/SIGTERM cancel the sweep cooperatively — in-flight
// solves stop at their next poll, partial results are flushed (tables, JSON,
// -checkpoint file), and a second signal kills the process immediately.
// -checkpoint periodically atomic-writes the results recorded so far;
// -resume skips the (task, strategy) pairs a prior export already completed.
// -max-decisions/-max-mem-mb set per-task budgets; -inject plants
// deterministic faults (see internal/faultinject) for harness testing.
//
// With -incremental, each (benchmark, model, strategy) triple is solved as
// one unroll sweep on a single live solver: the encoding grows by deltas
// under per-bound activation literals and learned clauses carry over
// between bounds. Verdicts match fresh mode; a per-bound-vs-cumulative
// sweep summary table is printed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"zpre/internal/faultinject"
	"zpre/internal/harness"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/profiling"
	"zpre/internal/retry"
	"zpre/internal/telemetry"
)

// stopProfiles flushes any active pprof profiles. Exit paths go through
// exit() so the profile files are complete.
var stopProfiles = func() {}

func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// liveProgress redraws a single status line on w until done is closed:
// run completion, solves in flight, and the solver conflict/decision
// counters aggregated across all workers by the metrics registry.
func liveProgress(w io.Writer, reg *telemetry.Registry, done <-chan struct{}) {
	start := time.Now()
	var lastConfl uint64
	lastT := start
	tick := time.NewTicker(500 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			fmt.Fprint(w, "\r\x1b[K")
			return
		case <-tick.C:
			now := time.Now()
			confl := reg.Counter("solver_conflicts").Value()
			rate := float64(confl-lastConfl) / now.Sub(lastT).Seconds()
			lastConfl, lastT = confl, now
			line := fmt.Sprintf("\r\x1b[K[%7s] %d/%d runs, %d solving, %d conflicts (%.0f/s), %d decisions",
				time.Since(start).Round(time.Second),
				reg.Counter("runs_done").Value(), reg.Gauge("runs_total").Value(),
				reg.Gauge("solves_running").Value(), confl, rate,
				reg.Counter("solver_decisions").Value())
			for _, f := range []struct{ metric, label string }{
				{"tasks_panicked", "panicked"},
				{"tasks_memout", "memout"},
				{"tasks_cancelled", "cancelled"},
				{"tasks_errored", "errored"},
				{"runs_resumed", "resumed"},
				{"checkpoints_written", "ckpt"},
			} {
				if n := reg.Counter(f.metric).Value(); n > 0 {
					line += fmt.Sprintf(", %d %s", n, f.label)
				}
			}
			fmt.Fprint(w, line)
		}
	}
}

func main() {
	var (
		modelsFlag = flag.String("models", "sc,tso,pso", "comma-separated memory models")
		boundsFlag = flag.String("bounds", "1,2,3", "comma-separated unroll bounds")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-task solve timeout")
		subFlag    = flag.String("sub", "", "restrict to comma-separated subcategories")
		tableFlag  = flag.String("table", "all", "which table to print: all, 1, 2, 3, none")
		figFlag    = flag.String("figure", "all", "which figure data to print: all, 6..11, none")
		outDir     = flag.String("out", "", "directory for CSV dumps (optional)")
		width      = flag.Int("width", 8, "program integer bit width")
		seed       = flag.Int64("seed", 1, "random-polarity seed")
		progress   = flag.Bool("progress", false, "print per-task progress")
		parallel   = flag.Int("parallel", 1, "worker goroutines (1 = faithful per-task timing)")
		checked    = flag.Bool("checked", false, "independently validate every verdict (proofs + witnesses)")
		prune      = flag.Bool("prune", false, "statically prune rf/ws candidates and report the formula-size effect")
		dfFlag     = flag.Bool("dataflow", false, "value-flow dataflow: fold constants, prune value-infeasible rf edges, fix forced hb edges")
		rgFlag     = flag.Bool("rg", false, "rely-guarantee proof outlines: discharge provable (benchmark, model) pairs without solving, inject stabilized invariants elsewhere")
		rgDomain   = flag.String("rg-domain", "", "rely-guarantee abstract domain: interval (default) or dbm")
		rgPre      = flag.Bool("rg-prefilter", false, "skip hopeless rely-guarantee proof attempts with a cheap pre-filter (requires -rg)")
		mhbFlag    = flag.Bool("mhb", false, "must-happens-before closure: fix forced rf edges, derive must-fr, elide contradicted candidates")
		jsonOut    = flag.String("json", "", "write the full result set as JSON to this file")
		traceDir   = flag.String("trace", "", "write per-run JSONL search traces into this directory")
		traceN     = flag.Int("trace-sample", 1, "record only every Nth high-volume trace event")
		live       = flag.Bool("live", false, "render a self-updating metrics line on stderr")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
		maxDec     = flag.Uint64("max-decisions", 0, "per-task decision budget (0 = none)")
		maxMemMB   = flag.Int64("max-mem-mb", 0, "per-task approximate solver memory cap in MiB; exceeding it classifies as memout (0 = none)")
		ckptPath   = flag.String("checkpoint", "", "periodically atomic-write partial results (JSON) to this file")
		ckptEvery  = flag.Int("checkpoint-every", 0, "checkpoint cadence in completed runs (default 16)")
		resumePath = flag.String("resume", "", "skip (task, strategy) pairs already completed in this JSON export")
		increm     = flag.Bool("incremental", false, "solve each (benchmark, model, strategy) as one unroll sweep on a live solver, retaining learned clauses between bounds")
		serveAddr  = flag.String("serve", "", "serve /metrics (Prometheus text), /runs (live status JSON) and /healthz on this address for the duration of the run (e.g. :9090)")
		chromeOut  = flag.String("chrometrace", "", "write one Chrome trace-event JSON file covering every run (load in Perfetto or chrome://tracing)")
		logOut     = flag.String("log", "", "write structured JSON run logs (slog, one line per run event) to this file, or '-' for stderr")
		timePhases = flag.Bool("time-phases", false, "split each run's solve time across BCP/theory/analyze/reduce/inprocess phases (exported in the JSON)")
	)
	var faults []faultinject.Fault
	flag.Func("inject", "inject a fault: kind:match[:after[:sleep]] with kind panic|stall|corrupt (repeatable)", func(spec string) error {
		f, err := faultinject.Parse(spec)
		if err != nil {
			return err
		}
		faults = append(faults, f)
		return nil
	})
	flag.Parse()

	if *cpuProf != "" || *memProf != "" {
		stop, err := profiling.Start(*cpuProf, *memProf)
		if err != nil {
			fatalf("%v", err)
		}
		stopProfiles = stop
	}

	// First SIGINT/SIGTERM cancels the sweep cooperatively (workers drain,
	// partial results flush); a second signal restores default handling and
	// kills the process.
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancelSignals()

	metrics := telemetry.NewRegistry()
	cfg := harness.Config{
		Timeout:         *timeout,
		Width:           *width,
		Seed:            *seed,
		Parallel:        *parallel,
		CheckVerdicts:   *checked,
		StaticPrune:     *prune,
		Dataflow:        *dfFlag,
		MHB:             *mhbFlag,
		RG:              *rgFlag,
		RGDomain:        *rgDomain,
		RGPrefilter:     *rgPre,
		TraceDir:        *traceDir,
		TraceEvery:      *traceN,
		Metrics:         metrics,
		Context:         ctx,
		MaxDecisions:    *maxDec,
		MaxMemoryBytes:  *maxMemMB << 20,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		Incremental:     *increm,
		TimePhases:      *timePhases,
	}
	if *increm && *traceDir != "" {
		fatalf("-trace is not supported with -incremental (one live solver spans many bounds)")
	}
	if *chromeOut != "" {
		cfg.Chrome = obs.NewCollector()
	}
	var logFile *os.File
	if *logOut == "-" {
		cfg.Logger = obs.NewRunLogger(os.Stderr)
	} else if *logOut != "" {
		f, err := os.Create(*logOut)
		if err != nil {
			fatalf("-log: %v", err)
		}
		logFile = f
		cfg.Logger = obs.NewRunLogger(f)
	}
	var obsSrv *obs.Server
	if *serveAddr != "" {
		cfg.Board = obs.NewRunBoard()
		srv, err := obs.Serve(*serveAddr, metrics, cfg.Board)
		if err != nil {
			// The HTTP surface is pure observability: losing it never costs
			// the evaluation.
			fmt.Fprintf(os.Stderr, "evaluate: -serve %s: %v (continuing without the HTTP surface)\n", *serveAddr, err)
		} else {
			obsSrv = srv
			fmt.Fprintf(os.Stderr, "evaluate: serving /metrics, /runs, /healthz on %s\n", srv.Addr())
		}
	}
	if len(faults) > 0 {
		cfg.Faults = faultinject.New(faults...)
	}
	if *resumePath != "" {
		// Transient read failures back off and retry; a corrupt (torn/
		// truncated) checkpoint warns and starts fresh instead of failing the
		// run; a missing file still fails loud (mistyped -resume path).
		var prev *harness.JSONResults
		err := retry.Do(ctx, retry.Policy{MaxAttempts: 3, Base: 50 * time.Millisecond},
			func(ctx context.Context, attempt int) error {
				doc, err := harness.LoadCheckpointLenient(*resumePath, os.Stderr)
				if err != nil {
					return err
				}
				prev = doc
				return nil
			})
		if err != nil {
			fatalf("%v", err)
		}
		cfg.Resume = prev
	}
	for _, name := range strings.Split(*modelsFlag, ",") {
		mm, ok := memmodel.Parse(strings.TrimSpace(name))
		if !ok {
			fatalf("unknown memory model %q", name)
		}
		cfg.Models = append(cfg.Models, mm)
	}
	for _, b := range strings.Split(*boundsFlag, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(b))
		if err != nil || k < 1 {
			fatalf("bad bound %q", b)
		}
		cfg.Bounds = append(cfg.Bounds, k)
	}
	if *subFlag != "" {
		cfg.Subcategories = strings.Split(*subFlag, ",")
	}
	if *progress {
		cfg.Progress = os.Stderr
	}

	start := time.Now()
	var liveDone chan struct{}
	var liveStopped chan struct{}
	if *live {
		liveDone = make(chan struct{})
		liveStopped = make(chan struct{})
		go func() {
			defer close(liveStopped)
			liveProgress(os.Stderr, metrics, liveDone)
		}()
	}
	res := harness.Run(cfg)
	if *live {
		close(liveDone)
		<-liveStopped
	}
	if obsSrv != nil {
		obsSrv.Close()
	}
	if cfg.Chrome != nil {
		if err := obs.WriteChromeFile(*chromeOut, cfg.Chrome.Traces()); err != nil {
			fmt.Fprintf(os.Stderr, "evaluate: -chrometrace: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "wrote Chrome trace to %s (open in Perfetto)\n", *chromeOut)
		}
	}
	if logFile != nil {
		defer logFile.Close()
	}
	fmt.Printf("evaluation: %d runs in %v\n\n", len(res.Runs), time.Since(start).Round(time.Millisecond))
	if failures := res.Failures(); failures.Total() > 0 {
		fmt.Println(harness.FormatFailureSummary(failures, 10))
	}
	if ctx.Err() != nil {
		// After the drain a second signal would have killed us; say where
		// the partial results went and how to pick the sweep back up.
		fmt.Fprintln(os.Stderr, "evaluate: interrupted — partial results below")
		if *ckptPath != "" {
			fmt.Fprintf(os.Stderr, "evaluate: re-run with -resume %s to finish the remaining pairs\n", *ckptPath)
		}
	}
	if *traceDir != "" {
		fmt.Fprintf(os.Stderr, "wrote per-run traces to %s\n", *traceDir)
	}
	if *checked {
		nChecked, nSkipped, nFailed := 0, 0, 0
		for _, r := range res.Runs {
			switch {
			case r.CheckErr != nil:
				nFailed++
				fmt.Printf("VALIDATION FAILURE %s/%s: %v\n", r.Task.ID(), r.Strategy, r.CheckErr)
			case r.Checked:
				nChecked++
			case r.CheckSkipped:
				nSkipped++
			}
		}
		skipWhy := "rely-guarantee proofs"
		if *increm {
			skipWhy = "unsat: proofs unavailable incrementally"
		}
		fmt.Printf("verdict validation: %d checked, %d skipped (%s), %d FAILED\n\n",
			nChecked, nSkipped, skipWhy, nFailed)
		if nFailed > 0 {
			exit(1)
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatalf("%v", err)
		}
		if err := res.WriteJSON(f); err != nil {
			fatalf("%v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("%v", err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}

	if *prune || *dfFlag {
		fmt.Println(harness.FormatPruneReport(res.PruneReport()))
	}
	if *dfFlag {
		vp, fa, hb := 0, 0, 0
		for _, r := range res.PruneReport() {
			vp += r.ValuePruned
			fa += r.FoldedAssigns
			hb += r.FixedHB
		}
		fmt.Printf("dataflow: %d rf candidates value-pruned, %d assignments folded, %d hb edges fixed\n\n", vp, fa, hb)
	}

	if *rgFlag {
		proved, inv := 0, 0
		provedPairs := map[string]bool{}
		for _, r := range res.Runs {
			if r.RGProved {
				proved++
				provedPairs[r.Task.Bench.Subcategory+"/"+r.Task.Bench.Name+"@"+r.Task.Model.String()] = true
			}
			inv += r.VC.RGInvariants
		}
		fmt.Printf("rely-guarantee: %d (benchmark, model) pairs proved at every bound (%d runs discharged without solving), %d invariant constraints injected elsewhere\n\n",
			len(provedPairs), proved, inv)
	}

	if *increm {
		fmt.Println(harness.FormatIncremental(res.IncrementalSweeps()))
	}

	wantTable := func(n string) bool { return *tableFlag == "all" || *tableFlag == n }
	if wantTable("1") {
		fmt.Println(harness.FormatTable1(res.Table1()))
	}
	if wantTable("2") {
		fmt.Println(harness.FormatTable2(res.Table2()))
	}
	if wantTable("3") {
		fmt.Println(harness.FormatTable3(res.Table3()))
	}
	if *tableFlag == "all" {
		for _, mm := range cfg.Models {
			fmt.Println(harness.FormatAsymmetries(res.TimeoutAsymmetries(mm), mm))
		}
	}

	figModels := map[string]memmodel.Model{"6": memmodel.SC, "7": memmodel.TSO, "8": memmodel.PSO}
	figSubcats := map[string]memmodel.Model{"9": memmodel.SC, "10": memmodel.TSO, "11": memmodel.PSO}
	wantFig := func(n string) bool { return *figFlag == "all" || *figFlag == n }
	for _, n := range []string{"6", "7", "8"} {
		if !wantFig(n) || !hasModel(cfg.Models, figModels[n]) {
			continue
		}
		points := res.Scatter(figModels[n])
		fmt.Println(harness.AsciiScatter(points, fmt.Sprintf("Figure %s. baseline vs ZPRE, %s", n, figModels[n])))
		writeOut(*outDir, fmt.Sprintf("figure%s_scatter_%s.csv", n, figModels[n]), harness.ScatterCSV(points))
	}
	for _, n := range []string{"9", "10", "11"} {
		if !wantFig(n) || !hasModel(cfg.Models, figSubcats[n]) {
			continue
		}
		rows := res.SubcategoryTimes(figSubcats[n])
		fmt.Println(harness.FormatSubcategories(rows,
			fmt.Sprintf("Figure %s. per-subcategory time, %s: baseline vs ZPRE", n, figSubcats[n])))
	}
	stopProfiles()
}

func hasModel(models []memmodel.Model, mm memmodel.Model) bool {
	for _, m := range models {
		if m == mm {
			return true
		}
	}
	return false
}

func writeOut(dir, name, content string) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("mkdir %s: %v", dir, err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		fatalf("write %s: %v", name, err)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "evaluate: "+format+"\n", args...)
	exit(1)
}
