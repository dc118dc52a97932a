package main

import (
	"time"

	"zpre/internal/encode"
	"zpre/internal/incremental"
	"zpre/internal/sat"
	"zpre/internal/smt"
)

// sweepRunner solves each op as one bound of a live unroll sweep: untraced
// through incremental.(*Sweep).Next, which `evaluate -incremental` executes
// per bound. Ops of one sweep are consecutive, bounds 1..maxSweepBound; the
// bound-1 op also prepares the sweep. After a failed bound the next op
// rebuilds the sweep and replays the encoding up to its own bound, as the
// harness does.
type sweepRunner struct {
	ops   []op
	width int
	seed  int64

	sw *incremental.Sweep // untraced sweep

	inc        *encode.Incremental // traced sweep
	orderConfl uint64              // traced sweep's cumulative theory conflicts
}

func (r *sweepRunner) run(i int) (out outcome) {
	p := r.ops[i]
	defer func() {
		if v := recover(); v != nil {
			out = panicked(v)
			r.sw = nil
		}
	}()
	if p.task.Bound == 1 || r.sw == nil {
		sw, err := incremental.New(p.task.Bench.Program, incremental.Options{
			Model: p.task.Model, Strategy: p.strat, Width: r.width, Timeout: opTimeout, Seed: r.seed,
		})
		if err != nil {
			return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
		}
		for sw.Bound() < p.task.Bound-1 {
			if err := sw.ExtendOnly(); err != nil {
				return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
			}
		}
		r.sw = sw
	}
	br, err := r.sw.Next()
	if err != nil {
		r.sw = nil
		return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
	}
	return outcome{
		status: br.Status,
		fail:   failure(br.Status, br.Stop),
		work:   br.Stats.Decisions + br.Stats.Conflicts,
		encode: br.Encode,
		solve:  br.Solve,
	}
}

// traced repeats Sweep.Next's layer calls — extending the encoding,
// rebuilding the decision order, solving under the bound's assumptions —
// with a span around each. Preparing the sweep counts as encoding.
func (r *sweepRunner) traced(i int, t *tracer) (out outcome) {
	p := r.ops[i]
	defer func() {
		if v := recover(); v != nil {
			out = panicked(v)
			r.inc = nil
		}
	}()

	sp := t.begin()
	if p.task.Bound == 1 || r.inc == nil {
		inc, err := encode.NewIncremental(p.task.Bench.Program, encode.Options{
			Model: p.task.Model, Width: r.width,
		})
		if err != nil {
			t.end(layerEncode, sp)
			return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
		}
		r.inc, r.orderConfl = inc, 0
	}
	var ba encode.BoundAssumptions
	var err error
	for r.inc.Bound() < p.task.Bound && err == nil {
		ba, err = r.inc.Extend()
	}
	t.end(layerEncode, sp)
	if err != nil {
		r.inc = nil
		return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
	}
	vc := r.inc.VC()
	t.formula(vc.Stats)

	sp = t.begin()
	dec := newDecider(p.strat, vc.Builder.NamedVars(), r.seed)
	t.end(layerClassify, sp)

	sp = t.begin()
	res, err := vc.Builder.SolveAssuming(smt.Options{
		Decider:    dec,
		Deadline:   time.Now().Add(opTimeout),
		TimePhases: true,
	}, ba.Act, ba.Err)
	t.end(layerSolve, sp)
	if err != nil {
		r.inc = nil
		return outcome{status: sat.Unknown, fail: sat.FailError, err: errorText(err)}
	}
	t.search(res.StatsDelta, res.Timings, res.OrderStats.Conflicts-r.orderConfl)
	r.orderConfl = res.OrderStats.Conflicts
	return outcome{
		status: res.Status,
		fail:   failure(res.Status, res.Stop),
		work:   res.StatsDelta.Decisions + res.StatsDelta.Conflicts,
	}
}
