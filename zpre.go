// Package zpre is a reproduction of "Interference Relation-Guided SMT
// Solving for Multi-Threaded Program Verification" (Fan, Liu, He; PPoPP
// 2022): a bounded model checker for multi-threaded programs under SC, TSO
// and PSO memory models, built on a from-scratch DPLL(T) engine whose
// decision order can be guided by the interference relation (read-from and
// write-serialization variables) of the encoded program.
//
// The package is a thin facade over the internal packages:
//
//	cprog    — the concurrent program language, parser and unroller
//	memmodel — SC/TSO/PSO program-order rules
//	encode   — the partial-order verification-condition encoder
//	smt/sat  — the DPLL(T) engine (CDCL core + ordering theory)
//	core     — the paper's interference decision-order strategies
//
// Typical use:
//
//	prog, _ := zpre.ParseProgram("example", src)
//	rep, _ := zpre.Verify(prog, zpre.Options{
//	    Model:    zpre.TSO,
//	    Strategy: zpre.ZPRE,
//	    Unroll:   3,
//	})
//	fmt.Println(rep.Verdict) // Safe (unsat) or Unsafe (sat)
package zpre

import (
	"context"
	"fmt"
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/encode"
	"zpre/internal/faultinject"
	"zpre/internal/memmodel"
	"zpre/internal/obs"
	"zpre/internal/order"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/telemetry"
	"zpre/internal/witness"
)

// Re-exported memory models.
const (
	SC  = memmodel.SC
	TSO = memmodel.TSO
	PSO = memmodel.PSO
)

// Re-exported strategies (Table 3's three configurations, plus the
// static-analysis-seeded extension).
const (
	Baseline  = core.Baseline // stock VSIDS order — the paper's "Z3"
	ZPREMinus = core.ZPREMinus
	ZPRE      = core.ZPRE
	// ZPREStatic ranks interference variables by the static conflict score
	// of their event pair (racy pairs first) before the #write tie-break.
	ZPREStatic = core.ZPREStatic
)

// Verdict is the verification outcome at the given unrolling bound.
type Verdict int

// Verdicts.
const (
	// Unknown means the solver budget was exhausted.
	Unknown Verdict = iota
	// Safe means the VC is unsatisfiable: no assertion violation is
	// reachable within the unrolling bound.
	Safe
	// Unsafe means the VC is satisfiable: a violating execution exists.
	Unsafe
	// UnboundedSafe means the rely-guarantee proof-outline engine
	// (Options.RG) discharged every assertion at its interference fixpoint:
	// the program is safe at EVERY unrolling bound, not just the requested
	// one, and no SMT instance was encoded or solved.
	UnboundedSafe
)

// String renders the verdict in SV-COMP vocabulary.
func (v Verdict) String() string {
	switch v {
	case Safe, UnboundedSafe:
		return "true"
	case Unsafe:
		return "false"
	}
	return "unknown"
}

// Options configures a Verify call.
type Options struct {
	// Model is the memory model (SC, TSO or PSO). Default SC.
	Model memmodel.Model
	// Strategy selects the decision order (Baseline, ZPREMinus, ZPRE).
	Strategy core.Strategy
	// Unroll is the loop unrolling bound (default 1).
	Unroll int
	// Width is the program integer bit width (default 8).
	Width int
	// Timeout bounds the solving wall-clock time (0 = none).
	Timeout time.Duration
	// MaxConflicts bounds the search (0 = none).
	MaxConflicts uint64
	// MaxDecisions bounds the decisions per solve (0 = none).
	MaxDecisions uint64
	// MaxMemoryBytes caps the solver's approximate allocation accounting;
	// exceeding it yields a graceful Unknown instead of an OOM (0 = none).
	MaxMemoryBytes int64
	// Context, when non-nil, cancels the solve cooperatively (e.g. from a
	// SIGINT handler); the verdict comes back Unknown with
	// Report.Stop == sat.StopCancelled.
	Context context.Context
	// Seed drives the random polarity of interference decisions.
	Seed int64
	// StaticPrune drops interference candidates the static lockset/MHP
	// pre-analysis proves redundant before solving (see
	// encode.Options.StaticPrune). The pruned VC is equisatisfiable;
	// Report.EncodeStats.RFPruned/WSPruned count the dropped candidates.
	StaticPrune bool
	// Dataflow enables the value-flow pre-analysis (see
	// encode.Options.Dataflow): pre-encoding constant/copy simplification,
	// value-infeasible rf candidate pruning and fixed happens-before
	// derivation. Equisatisfiable; Report.EncodeStats.ValuePruned/
	// FoldedAssigns/FixedHB count its effects.
	Dataflow bool
	// RG runs the rely-guarantee proof-outline engine (internal/rg) before
	// encoding. If it proves every assertion at its interference fixpoint,
	// Verify returns UnboundedSafe without encoding or solving (zero
	// decisions). Otherwise the engine's interference-stabilized variable
	// ranges are injected into the encoder as guarded per-read invariants
	// (equisatisfiable; Report.EncodeStats.RGInvariants counts them).
	// Ignored by VerifyEach and VerifyWithProof, whose per-assert indexing
	// and proof traces require the full SMT instance.
	RG bool
	// RGDomain selects the rely-guarantee engine's abstract domain:
	// rg.DomainInterval (default) or rg.DomainDBM, which layers the
	// relational zone analysis (internal/relational) onto the proof
	// outlines — closed-form exit bounds sharpen the post-state, a
	// difference-bound matrix tracks variable differences through the post
	// walk, and assertions the interval domain cannot see (x ≥ y, x−y ≤ c)
	// become provable. Only consulted when RG is true.
	RGDomain string
	// RGPrefilter enables the rely-guarantee engine's cheap pre-filter:
	// proof attempts whose assertions are not domain-expressible, or that
	// round 1 already refutes under the strongest (empty) rely, are skipped
	// before the interference fixpoint spends its budget
	// (Report.RGSkippedPrefilter). Never flips a verdict — a skipped
	// attempt reports unproved, exactly what the full run would have
	// concluded. Only consulted when RG is true.
	RGPrefilter bool
	// MHB runs the must-happens-before closure engine before solving (see
	// encode.Options.MHB): forced rf edges of unconditional
	// single-candidate reads are fixed statically, the must-fr edges they
	// entail are derived, and contradicted rf/ws candidates are elided.
	// Equisatisfiable; Report.EncodeStats.MHBFixedRF/MHBFixedFR/MHBPruned
	// count its effects, and the closed relation feeds the ZPRE decision
	// order (must-ordered interference variables are decided last).
	MHB bool
	// RGResult supplies a precomputed rely-guarantee result for this
	// (program, model, width), skipping the analysis inside Verify; callers
	// running many bounds of one program (the harness, the incremental
	// sweep) compute it once and share it. Only consulted when RG is true.
	RGResult *rg.Result
	// TraceSink, when non-nil, receives the structured search trace
	// (decisions with variable class, conflicts with LBD, restarts, ...;
	// see internal/telemetry), closed by the run's span tree and the
	// summary record. The caller owns the sink's lifetime.
	TraceSink telemetry.Sink
	// TraceEvery subsamples high-volume trace events: every Nth
	// decision/conflict is recorded (0 or 1 = all; counts stay exact).
	TraceEvery int
	// TraceTask labels the trace's meta record. Verify defaults it to the
	// program name. TraceTask + "/" + the strategy name is the run id the
	// trace's meta record and span tree carry.
	TraceTask string
	// TimePhases splits solve time across BCP/theory/analyze/reduce into
	// Report.SearchTimings.
	TimePhases bool
	// Spans, when non-nil, receives this call's hierarchical span trace
	// under a "run" root (rg prove, unroll, encode with static/dataflow
	// children, solve with the in-solve phase split, check) for Chrome
	// trace-event export; see internal/obs. Implies TimePhases. Ignored by
	// VerifyEach.
	Spans *obs.Trace
	// Faults, when non-nil, arms deterministic fault injection at the
	// solver's tracer and theory seams for this call (see
	// internal/faultinject); faults are matched against FaultLabel. Used by
	// the zpred service's chaos harness; nil costs nothing.
	Faults *faultinject.Set
	// FaultLabel is the label Faults match against (defaults to TraceTask).
	FaultLabel string
	// Metrics, when non-nil, receives live search counters
	// (solver_decisions, solver_conflicts, ...; see
	// telemetry.NewMetricsTracer) and the solves_running gauge, aggregated
	// across concurrent calls.
	Metrics *telemetry.Registry
	// Check validates the verdict independently of the solver: a Safe
	// verdict's refutation is replayed by the proof checker
	// (internal/proof), an Unsafe verdict's model is linearised into a
	// witness schedule whose memory semantics are validated
	// (internal/witness). The outcome lands in Report.ProofChecked,
	// CheckSkipped and CheckErr; Verify itself does not fail on a rejection
	// (VerifyWithProof does).
	Check bool
}

// Report is the result of a Verify call.
type Report struct {
	Verdict Verdict
	// Status is the raw SMT status (Sat = Unsafe, Unsat = Safe).
	Status sat.Status
	// Stop says why an Unknown verdict stopped (deadline, conflict or
	// decision budget, memout, cancelled); sat.StopNone for a verdict.
	Stop sat.StopReason
	// SolverStats carries decisions/propagations/conflicts (Table 2).
	SolverStats sat.Stats
	// EncodeStats summarises the encoded VC (events, rf/ws variables, ...).
	EncodeStats encode.Stats
	// SolveTime is the backend solving time (what the paper measures).
	SolveTime time.Duration
	// UnrollTime is the loop-unrolling time; EncodeTime the frontend
	// encoding time.
	UnrollTime time.Duration
	EncodeTime time.Duration
	// SearchTimings is the in-solve phase split (Options.TimePhases).
	SearchTimings sat.SearchTimings
	// OrderStats are the ordering theory's work counters (cycle checks,
	// theory conflicts, eager propagations).
	OrderStats order.Stats
	// ProofChecked is true when the verdict passed independent validation
	// (Options.Check). CheckSkipped marks a checked call whose verdict has
	// no certificate to validate: an UnboundedSafe verdict, whose proof is
	// the rely-guarantee outline rather than an SMT refutation. CheckErr is
	// a validation failure (a solver bug if it ever happens).
	ProofChecked bool
	CheckSkipped bool
	CheckErr     error
	// RGProved is true when the verdict is UnboundedSafe: the
	// rely-guarantee engine proved the program at every bound and the SMT
	// backend never ran.
	RGProved bool
	// RGStabilizeIters is the engine's outer fixpoint round count
	// (Options.RG only; zero otherwise).
	RGStabilizeIters int
	// RGSkippedPrefilter is true when the rely-guarantee pre-filter
	// (Options.RGPrefilter) skipped the proof attempt — the assertions were
	// not domain-expressible, or round 1 refuted them under the strongest
	// rely — and the SMT backend decided the program alone.
	RGSkippedPrefilter bool
}

// ParseProgram parses the textual program form (see internal/cprog).
func ParseProgram(name, src string) (*cprog.Program, error) {
	return cprog.Parse(name, src)
}

// Verify encodes the program at the configured unrolling bound and memory
// model and solves the verification condition with the selected strategy.
// It is the one fresh verification path: the CLI, the zpred portfolio and
// the evaluation harness all run rely-guarantee proof → unroll → encode →
// classify → decide → solve → check through it. On an error the returned
// Report keeps what was measured before it.
func Verify(p *cprog.Program, opts Options) (rep Report, err error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	if opts.TraceTask == "" {
		opts.TraceTask = p.Name
	}
	spans := opts.Spans
	if spans == nil && opts.TraceSink != nil {
		// The JSONL trace closes with the span tree even when no Chrome
		// consumer asked for one.
		spans = obs.NewTrace(opts.runID())
	}
	root := spans.Start("run")
	defer spans.End(root)

	var rgRanges map[string]dataflow.Interval
	if opts.RG {
		rgSpan := spans.Start("rg.prove")
		res, err := resolveRG(p, opts)
		spans.End(rgSpan)
		if err != nil {
			return rep, err
		}
		rep.RGStabilizeIters = res.StabilizeIters
		rep.RGSkippedPrefilter = res.SkippedPrefilter
		if res.Proved {
			rep.Verdict = UnboundedSafe
			rep.Status = sat.Unsat
			rep.RGProved = true
			rep.CheckSkipped = opts.Check
			return rep, nil
		}
		rgRanges = res.Ranges
	}

	unrollSpan := spans.Start("unroll")
	unrollStart := time.Now()
	unrolled := cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume)
	rep.UnrollTime = time.Since(unrollStart)
	spans.End(unrollSpan)

	encSpan := spans.Start("encode")
	encStart := time.Now()
	vc, err := encode.Program(unrolled, encode.Options{
		Model:       opts.Model,
		Width:       opts.Width,
		WithProof:   opts.Check,
		StaticPrune: opts.StaticPrune,
		Dataflow:    opts.Dataflow,
		MHB:         opts.MHB,
		RGRanges:    rgRanges,
	})
	rep.EncodeTime = time.Since(encStart)
	spans.End(encSpan)
	if err != nil {
		return rep, err
	}
	rep.EncodeStats = vc.Stats
	// The encoder's pre-analysis shares are measured sub-phases: lay them
	// out as children of the encode span.
	if opts.StaticPrune {
		spans.AddChild(encSpan, "encode.static", vc.Stats.StaticTime)
	}
	if opts.Dataflow {
		spans.AddChild(encSpan, "encode.dataflow", vc.Stats.DataflowTime)
	}
	err = solve(vc, opts, spans, root, &rep)
	return rep, err
}

// runID is the run id a trace carries: "task/strategy".
func (o Options) runID() string { return o.TraceTask + "/" + o.Strategy.String() }

// resolveRG returns the caller's precomputed rely-guarantee result or runs
// the engine for this (program, model, width).
func resolveRG(p *cprog.Program, opts Options) (*rg.Result, error) {
	if opts.RGResult != nil {
		return opts.RGResult, nil
	}
	return rg.Prove(p, rg.Options{
		Model:     opts.Model,
		Width:     opts.Width,
		Domain:    opts.RGDomain,
		Prefilter: opts.RGPrefilter,
	})
}

// solve is Verify's backend half: it builds the decision order, solves the
// VC with the configured budgets and instruments, checks the verdict
// (Options.Check) and closes the JSONL trace with the span tree.
func solve(vc *encode.VC, opts Options, spans *obs.Trace, root int, rep *Report) error {
	// The decision order and the trace's class map are the classification's
	// only readers: a baseline run without a trace needs neither.
	var infos []core.VarInfo
	if opts.Strategy != Baseline || opts.TraceSink != nil {
		infos = core.ClassifyBuilder(vc.Builder)
	}
	var decider sat.Decider
	if dec := core.NewDecider(opts.Strategy, infos, deciderConfig(vc, opts.Seed)); dec != nil {
		decider = dec
	}
	var tracer *telemetry.SolverTracer
	var satTracer sat.Tracer
	if opts.TraceSink != nil {
		tracer = telemetry.NewSolverTracer(opts.TraceSink, telemetry.TracerOptions{
			Classes:  core.TraceClasses(vc.Builder, infos),
			Task:     opts.TraceTask,
			Strategy: opts.Strategy.String(),
			Model:    opts.Model.String(),
			Every:    opts.TraceEvery,
			RunID:    opts.runID(),
		})
		satTracer = tracer
	}
	var metrics *telemetry.MetricsTracer
	if opts.Metrics != nil {
		metrics = telemetry.NewMetricsTracer(opts.Metrics)
		satTracer = telemetry.Combine(satTracer, metrics)
	}
	sopts := smt.Options{
		Decider:        decider,
		MaxConflicts:   opts.MaxConflicts,
		MaxDecisions:   opts.MaxDecisions,
		MaxMemoryBytes: opts.MaxMemoryBytes,
		Context:        opts.Context,
		Tracer:         satTracer,
		TimePhases:     opts.TimePhases || spans != nil,
	}
	if opts.Faults != nil {
		label := opts.FaultLabel
		if label == "" {
			label = opts.TraceTask
		}
		sopts.Tracer = opts.Faults.Tracer(label, sopts.Tracer)
		sopts.WrapTheory = func(th sat.Theory) sat.Theory {
			return opts.Faults.Theory(label, th)
		}
	}
	if opts.Timeout > 0 {
		sopts.Deadline = time.Now().Add(opts.Timeout)
	}
	if opts.Metrics != nil {
		running := opts.Metrics.Gauge("solves_running")
		running.Add(1)
		defer running.Add(-1)
	}
	solveSpan := spans.Start("solve")
	res, err := vc.Builder.Solve(sopts)
	if metrics != nil {
		metrics.Flush()
	}
	spans.End(solveSpan)
	if err != nil {
		return err
	}
	rep.Status = res.Status
	switch res.Status {
	case sat.Sat:
		rep.Verdict = Unsafe
	case sat.Unsat:
		rep.Verdict = Safe
	}
	rep.Stop = res.Stop
	rep.SolverStats = res.Stats
	rep.SolveTime = res.Elapsed
	rep.SearchTimings = res.Timings
	rep.OrderStats = res.OrderStats
	// The in-solve phase split comes from the solver's own timers, so the
	// solve span's children sum exactly to sat.SearchTimings.
	spans.AddChild(solveSpan, "solve.bcp", res.Timings.BCP)
	spans.AddChild(solveSpan, "solve.theory", res.Timings.Theory)
	spans.AddChild(solveSpan, "solve.analyze", res.Timings.Analyze)
	spans.AddChild(solveSpan, "solve.reduce", res.Timings.Reduce)
	spans.AddChild(solveSpan, "solve.inprocess", res.Timings.Inprocess)
	if opts.Check {
		checkSpan := spans.Start("check")
		checkVerdict(vc, rep)
		spans.End(checkSpan)
	}
	if tracer != nil {
		// Close the root now so the trace carries the complete span tree.
		spans.End(root)
		for _, sp := range spans.Spans() {
			tracer.SpanAt(sp.Name, sp.ID, sp.Parent, sp.Start, sp.Dur)
		}
		if err := tracer.Close(res.StatsDelta); err != nil {
			return fmt.Errorf("zpre: trace sink: %w", err)
		}
	}
	return nil
}

// checkVerdict validates a solved verdict independently of the solver: an
// unsat answer by replaying its recorded refutation, a sat answer by
// extracting and validating a witness schedule.
func checkVerdict(vc *encode.VC, rep *Report) {
	var err error
	switch rep.Status {
	case sat.Unsat:
		err = vc.Builder.CheckProof(vc.Proof)
	case sat.Sat:
		var steps []witness.Step
		if steps, err = witness.Extract(vc); err == nil {
			err = witness.Validate(steps)
		}
	default:
		return
	}
	rep.CheckErr = err
	rep.ProofChecked = err == nil
}

// deciderConfig builds the strategy configuration for a solve, attaching
// the static conflict scorer when the VC carries an aligned pre-analysis
// (consumed by the ZPREStatic strategy; ignored by the others). When the
// must-happens-before closure ran, interference variables whose two
// accesses it proved must-ordered are down-ranked below every other pair:
// their value is forced by unit propagation from the level-0 fixed edges,
// so deciding them early is pure search noise.
func deciderConfig(vc *encode.VC, seed int64) core.Config {
	cfg := core.Config{Seed: seed}
	st, ordered := vc.Static, vc.MHBOrdered
	if st != nil || ordered != nil {
		cfg.Score = func(vi core.VarInfo) int {
			if ordered != nil && ordered(vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx) {
				return -1
			}
			if st == nil {
				return 0
			}
			return st.PairScore(vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx)
		}
	}
	return cfg
}

// FindMinimalBound searches unroll bounds 1..maxBound for the smallest
// bound at which the program is unsafe (the paper's k*: "the minimal
// unrolling bound that violates the given property", §5). It returns that
// bound and the corresponding report. If no bound up to maxBound violates,
// it returns 0 and the report of the last (safe or unknown) bound.
func FindMinimalBound(p *cprog.Program, opts Options, maxBound int) (int, Report, error) {
	var last Report
	for k := 1; k <= maxBound; k++ {
		opts.Unroll = k
		rep, err := Verify(p, opts)
		if err != nil {
			return 0, Report{}, err
		}
		last = rep
		if rep.Verdict == Unsafe {
			return k, rep, nil
		}
		if rep.Verdict == UnboundedSafe {
			break // every bound is safe; higher bounds can't violate
		}
		if !p.HasLoops() {
			break // higher bounds encode the identical instance
		}
	}
	return 0, last, nil
}

// AssertReport is the per-assertion outcome of VerifyEach.
type AssertReport struct {
	// Index is the assertion's ordinal in encoding order.
	Index int
	// Thread is the thread the assertion appears in (0 = main's post block).
	Thread int
	// Verdict for this assertion alone.
	Verdict Verdict
	// SolveTime for this assertion's incremental query.
	SolveTime time.Duration
}

// VerifyEach checks every assertion of the program separately: the VC is
// encoded once with selector-guarded violations and each property is solved
// as an incremental assumption query on the same solver, so learnt clauses
// and variable activities carry over between properties.
func VerifyEach(p *cprog.Program, opts Options) ([]AssertReport, error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	unrolled := cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume)
	vc, err := encode.Program(unrolled, encode.Options{
		Model:             opts.Model,
		Width:             opts.Width,
		SelectableAsserts: true,
		StaticPrune:       opts.StaticPrune,
		Dataflow:          opts.Dataflow,
		MHB:               opts.MHB,
	})
	if err != nil {
		return nil, err
	}
	infos := core.ClassifyBuilder(vc.Builder)
	dec := core.NewDecider(opts.Strategy, infos, deciderConfig(vc, opts.Seed))
	var decider sat.Decider
	if dec != nil {
		decider = dec
	}
	var out []AssertReport
	for i, sel := range vc.Selectors {
		sopts := smt.Options{
			Decider:        decider,
			MaxConflicts:   opts.MaxConflicts,
			MaxDecisions:   opts.MaxDecisions,
			MaxMemoryBytes: opts.MaxMemoryBytes,
			Context:        opts.Context,
		}
		if opts.Timeout > 0 {
			sopts.Deadline = time.Now().Add(opts.Timeout)
		}
		res, err := vc.Builder.SolveAssuming(sopts, sel)
		if err != nil {
			return nil, err
		}
		verdict := Unknown
		switch res.Status {
		case sat.Sat:
			verdict = Unsafe
		case sat.Unsat:
			verdict = Safe
		}
		out = append(out, AssertReport{
			Index:     i,
			Thread:    vc.AssertThreads[i],
			Verdict:   verdict,
			SolveTime: res.Elapsed,
		})
	}
	return out, nil
}

// VerifyWithProof runs Verify with Options.Check on: a Safe (unsat)
// verdict's inference trace is validated by the independent proof checker
// (internal/proof), and an Unsafe (sat) verdict's model is linearised into
// a witness schedule whose memory semantics are validated
// (internal/witness). A rejection in either direction is returned as an
// error — the solver may not vouch for itself. Options.RG is ignored: an
// UnboundedSafe verdict has no refutation to check.
func VerifyWithProof(p *cprog.Program, opts Options) (Report, error) {
	opts.RG = false
	opts.Check = true
	rep, err := Verify(p, opts)
	if err != nil {
		return Report{}, err
	}
	if rep.CheckErr != nil {
		what := "unsat verdict failed proof checking"
		if rep.Verdict == Unsafe {
			what = "sat verdict failed witness validation"
		}
		return Report{}, fmt.Errorf("%s: %w", what, rep.CheckErr)
	}
	return rep, nil
}
