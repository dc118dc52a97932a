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
	// Polarity overrides the interference decision polarity (default
	// random, as in the paper).
	Polarity core.PolarityMode
	// DisableNumWrites drops the #write ranking from ZPRE (ablation).
	DisableNumWrites bool
	// EagerOrderPropagation turns on eager reachability propagation in the
	// ordering theory (ablation; off in the paper's setting).
	EagerOrderPropagation bool
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
	// see internal/telemetry). The caller owns the sink's lifetime.
	TraceSink telemetry.Sink
	// TraceEvery subsamples high-volume trace events: every Nth
	// decision/conflict is recorded (0 or 1 = all; counts stay exact).
	TraceEvery int
	// TraceTask labels the trace's meta record. Verify defaults it to the
	// program name.
	TraceTask string
	// TimePhases splits solve time across BCP/theory/analyze/reduce into
	// Report.SearchTimings.
	TimePhases bool
	// Spans, when non-nil, receives this call's hierarchical span trace
	// (rg prove, unroll, encode with static/dataflow children, solve with
	// the in-solve phase split) for Chrome trace-event export; see
	// internal/obs. Implies TimePhases. Ignored by VerifyEach.
	Spans *obs.Trace
	// Faults, when non-nil, arms deterministic fault injection at the
	// solver's tracer and theory seams for this call (see
	// internal/faultinject); faults are matched against FaultLabel. Used by
	// the zpred service's chaos harness; nil costs nothing.
	Faults *faultinject.Set
	// FaultLabel is the label Faults match against (defaults to TraceTask).
	FaultLabel string
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
	// EncodeTime is the frontend encoding time.
	EncodeTime time.Duration
	// SearchTimings is the in-solve phase split (Options.TimePhases).
	SearchTimings sat.SearchTimings
	// OrderStats are the ordering theory's work counters (cycle checks,
	// theory conflicts, eager propagations).
	OrderStats order.Stats
	// ProofChecked is true when a Safe verdict's refutation was validated
	// by the independent proof checker (VerifyWithProof only).
	ProofChecked bool
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
func Verify(p *cprog.Program, opts Options) (Report, error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	if opts.TraceTask == "" {
		opts.TraceTask = p.Name
	}
	var rgRanges map[string]dataflow.Interval
	var rgIters int
	var rgSkipped bool
	if opts.RG {
		rgSpan := opts.Spans.Start("rg.prove")
		res, err := resolveRG(p, opts)
		opts.Spans.End(rgSpan)
		if err != nil {
			return Report{}, err
		}
		rgIters = res.StabilizeIters
		rgSkipped = res.SkippedPrefilter
		if res.Proved {
			return Report{
				Verdict:          UnboundedSafe,
				Status:           sat.Unsat,
				RGProved:         true,
				RGStabilizeIters: res.StabilizeIters,
			}, nil
		}
		rgRanges = res.Ranges
	}
	unrollSpan := opts.Spans.Start("unroll")
	unrolled := cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume)
	opts.Spans.End(unrollSpan)

	encSpan := opts.Spans.Start("encode")
	encStart := time.Now()
	vc, err := encode.Program(unrolled, encode.Options{
		Model:       opts.Model,
		Width:       opts.Width,
		StaticPrune: opts.StaticPrune,
		Dataflow:    opts.Dataflow,
		MHB:         opts.MHB,
		RGRanges:    rgRanges,
	})
	opts.Spans.End(encSpan)
	if err != nil {
		return Report{}, err
	}
	encodeTime := time.Since(encStart)
	if opts.StaticPrune {
		opts.Spans.AddChild(encSpan, "encode.static", vc.Stats.StaticTime)
	}
	if opts.Dataflow {
		opts.Spans.AddChild(encSpan, "encode.dataflow", vc.Stats.DataflowTime)
	}

	rep, err := solveVC(vc, opts, encodeTime)
	if err != nil {
		return Report{}, err
	}
	rep.EncodeTime = encodeTime
	rep.RGStabilizeIters = rgIters
	rep.RGSkippedPrefilter = rgSkipped
	return rep, nil
}

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

// SolveVC runs the backend on an already-encoded verification condition.
// This is the seam the paper's evaluation measures: the same SMT instance is
// solved with different decision strategies.
func SolveVC(vc *encode.VC, opts Options) (Report, error) {
	return solveVC(vc, opts, 0)
}

// solveVC is SolveVC with the caller's encode duration, so a trace opened
// here records the full parse→encode→static→solve span set.
func solveVC(vc *encode.VC, opts Options, encodeTime time.Duration) (Report, error) {
	infos := core.ClassifyBuilder(vc.Builder)
	dec := core.NewDecider(opts.Strategy, infos, deciderConfig(vc, opts))
	var decider sat.Decider
	if dec != nil {
		decider = dec
	}
	var deadline time.Time
	if opts.Timeout > 0 {
		deadline = time.Now().Add(opts.Timeout)
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
		})
		if encodeTime > 0 {
			tracer.Span("encode", encodeTime)
		}
		tracer.Span("static", vc.Stats.StaticTime)
		satTracer = tracer
	}
	sopts := smt.Options{
		Decider:               decider,
		Deadline:              deadline,
		MaxConflicts:          opts.MaxConflicts,
		MaxDecisions:          opts.MaxDecisions,
		MaxMemoryBytes:        opts.MaxMemoryBytes,
		Context:               opts.Context,
		EagerOrderPropagation: opts.EagerOrderPropagation,
		Tracer:                satTracer,
		TimePhases:            opts.TimePhases || tracer != nil || opts.Spans != nil,
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
	solveSpan := opts.Spans.Start("solve")
	res, err := vc.Builder.Solve(sopts)
	opts.Spans.End(solveSpan)
	if err != nil {
		return Report{}, err
	}
	opts.Spans.AddChild(solveSpan, "solve.bcp", res.Timings.BCP)
	opts.Spans.AddChild(solveSpan, "solve.theory", res.Timings.Theory)
	opts.Spans.AddChild(solveSpan, "solve.analyze", res.Timings.Analyze)
	opts.Spans.AddChild(solveSpan, "solve.reduce", res.Timings.Reduce)
	opts.Spans.AddChild(solveSpan, "solve.inprocess", res.Timings.Inprocess)
	if tracer != nil {
		tracer.Span("solve", res.Elapsed)
		tracer.Span("solve.bcp", res.Timings.BCP)
		tracer.Span("solve.theory", res.Timings.Theory)
		tracer.Span("solve.analyze", res.Timings.Analyze)
		tracer.Span("solve.reduce", res.Timings.Reduce)
		tracer.Span("solve.inprocess", res.Timings.Inprocess)
		if err := tracer.Close(res.StatsDelta); err != nil {
			return Report{}, fmt.Errorf("zpre: trace sink: %w", err)
		}
	}
	verdict := Unknown
	switch res.Status {
	case sat.Sat:
		verdict = Unsafe
	case sat.Unsat:
		verdict = Safe
	}
	return Report{
		Verdict:       verdict,
		Status:        res.Status,
		Stop:          res.Stop,
		SolverStats:   res.Stats,
		EncodeStats:   vc.Stats,
		SolveTime:     res.Elapsed,
		SearchTimings: res.Timings,
		OrderStats:    res.OrderStats,
	}, nil
}

// deciderConfig builds the strategy configuration for a solve, attaching
// the static conflict scorer when the VC carries an aligned pre-analysis
// (consumed by the ZPREStatic strategy; ignored by the others). When the
// must-happens-before closure ran, interference variables whose two
// accesses it proved must-ordered are down-ranked below every other pair:
// their value is forced by unit propagation from the level-0 fixed edges,
// so deciding them early is pure search noise.
func deciderConfig(vc *encode.VC, opts Options) core.Config {
	cfg := core.Config{
		Seed:             opts.Seed,
		Polarity:         opts.Polarity,
		DisableNumWrites: opts.DisableNumWrites,
	}
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
	dec := core.NewDecider(opts.Strategy, infos, deciderConfig(vc, opts))
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

// VerifyWithProof runs Verify in checked mode: a Safe (unsat) verdict's
// inference trace is validated by the independent proof checker
// (internal/proof), and an Unsafe (sat) verdict's model is linearised into
// a witness schedule whose memory semantics are validated
// (internal/witness). A rejection in either direction is returned as an
// error — the solver may not vouch for itself.
func VerifyWithProof(p *cprog.Program, opts Options) (Report, error) {
	if opts.Unroll <= 0 {
		opts.Unroll = 1
	}
	unrolled := cprog.Unroll(p, opts.Unroll, cprog.UnwindAssume)
	vc, err := encode.Program(unrolled, encode.Options{
		Model:       opts.Model,
		Width:       opts.Width,
		WithProof:   true,
		StaticPrune: opts.StaticPrune,
		Dataflow:    opts.Dataflow,
		MHB:         opts.MHB,
	})
	if err != nil {
		return Report{}, err
	}
	rep, err := SolveVC(vc, opts)
	if err != nil {
		return Report{}, err
	}
	switch rep.Verdict {
	case Safe:
		if err := vc.Builder.CheckProof(vc.Proof); err != nil {
			return Report{}, fmt.Errorf("unsat verdict failed proof checking: %w", err)
		}
		rep.ProofChecked = true
	case Unsafe:
		steps, err := witness.Extract(vc)
		if err != nil {
			return Report{}, fmt.Errorf("sat verdict yielded no witness: %w", err)
		}
		if err := witness.Validate(steps); err != nil {
			return Report{}, fmt.Errorf("sat verdict failed witness validation: %w", err)
		}
		rep.ProofChecked = true
	}
	return rep, nil
}
