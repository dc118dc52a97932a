package main

import (
	"time"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/dataflow"
	"zpre/internal/encode"
	"zpre/internal/harness"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/smt"
)

// freshRunner solves each op as a fresh instance: untraced through
// harness.RunOne, which `evaluate` executes per task and strategy.
type freshRunner struct {
	ops []op
	cfg harness.Config
}

func (r *freshRunner) run(i int) outcome {
	p := r.ops[i]
	res := harness.RunOne(p.task, p.strat, r.cfg)
	out := outcome{
		status: res.Status,
		proved: res.RGProved,
		fail:   res.Failure(),
		work:   res.Stats.Decisions + res.Stats.Conflicts,
		encode: res.Encode,
		solve:  res.Solve,
	}
	if res.Err != nil {
		out.err = errorText(res.Err)
	}
	return out
}

// traced repeats harness.RunOne's layer calls — rely-guarantee proof,
// unrolling, encoding, decision-order construction, solving — with a span
// around each.
func (r *freshRunner) traced(i int, t *tracer) (out outcome) {
	p := r.ops[i]
	cfg := r.cfg
	width := cfg.Width
	if width == 0 {
		width = 8
	}
	defer func() {
		if v := recover(); v != nil {
			out = panicked(v)
		}
	}()

	var ranges map[string]dataflow.Interval
	if cfg.RG {
		sp := t.begin()
		res, err := rg.Prove(p.task.Bench.Program, rg.Options{
			Model: p.task.Model, Width: width, Domain: cfg.RGDomain, Prefilter: cfg.RGPrefilter,
		})
		d := t.end(layerRG, sp)
		if err != nil {
			res = &rg.Result{}
		}
		t.proof(res, d)
		if res.Proved {
			return outcome{status: sat.Unsat, proved: true}
		}
		ranges = res.Ranges
	}

	sp := t.begin()
	unrolled := cprog.Unroll(p.task.Bench.Program, p.task.Bound, cprog.UnwindAssume)
	t.end(layerUnroll, sp)

	sp = t.begin()
	vc, err := encode.Program(unrolled, encode.Options{
		Model: p.task.Model, Width: width, MHB: cfg.MHB, RGRanges: ranges,
	})
	t.end(layerEncode, sp)
	if err != nil {
		return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
	}
	t.formula(vc.Stats)

	sp = t.begin()
	dec := newDecider(p.strat, vc.Builder.NamedVars(), cfg.Seed)
	t.end(layerClassify, sp)

	sp = t.begin()
	res, err := vc.Builder.Solve(smt.Options{
		Decider:    dec,
		Deadline:   time.Now().Add(cfg.Timeout),
		TimePhases: true,
	})
	t.end(layerSolve, sp)
	if err != nil {
		return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
	}
	t.search(res.Stats, res.Timings, res.OrderStats.Conflicts)
	return outcome{
		status: res.Status,
		fail:   failure(res.Status, res.Stop),
		work:   res.Stats.Decisions + res.Stats.Conflicts,
	}
}

// newDecider classifies the VC's variables and builds the strategy's
// decision order (nil for the solver's own order), as the entry points do.
// The static conflict score RunOne also supplies is read only by the
// zpre+static strategy, which no workload runs.
func newDecider(strat core.Strategy, named map[string]sat.Var, seed int64) sat.Decider {
	infos := core.Classify(named)
	if d := core.NewDecider(strat, infos, core.Config{Seed: seed}); d != nil {
		return d
	}
	return nil
}
