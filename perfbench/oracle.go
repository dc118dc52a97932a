package main

import (
	_ "embed"
	"fmt"
	"strconv"
	"strings"

	"zpre/internal/core"
	"zpre/internal/harness"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
)

// oracle checks every decided op against the corpus ground truth and
// against every other decided op of the same task (other strategies, and
// the same op repeated in later passes).
type oracle struct {
	first map[string]sat.Status // task id -> first decided status
	wrong map[string]string     // op id -> why it is wrong
	count int                   // wrong ops, repeats included
}

func newOracle() *oracle {
	return &oracle{first: map[string]sat.Status{}, wrong: map[string]string{}}
}

// check records one op's outcome.
func (o *oracle) check(p op, out outcome) {
	status := out.status
	if status == sat.Unknown {
		return
	}
	why := ""
	if contradictsTruth(p.task, status, out.proved) {
		why = fmt.Sprintf("%s contradicts ground truth %s (min bound %d)",
			verdictName(out), expectName(p.task.Bench.Expected[p.task.Model]), p.task.Bench.MinBound)
	}
	tid := p.task.ID()
	if prev, ok := o.first[tid]; !ok {
		o.first[tid] = status
	} else if prev != status && why == "" {
		why = fmt.Sprintf("%s disagrees with an earlier %s on the same task", verdictName(out), prev)
	}
	if why != "" {
		o.count++
		o.wrong[p.id()] = why
	}
}

// contradictsTruth reports whether a verdict contradicts the task's recorded
// ground truth: an unsafe program is violable from its MinBound on, so sat
// is right exactly at bounds >= MinBound; a safe program is never violable.
// An UNBOUNDED-SAFE proof claims safety at every bound.
func contradictsTruth(t harness.Task, status sat.Status, proved bool) bool {
	exp := t.Bench.Expected[t.Model]
	switch {
	case proved:
		return exp == svcomp.ExpectUnsafe
	case status == sat.Sat:
		return exp == svcomp.ExpectSafe || (exp == svcomp.ExpectUnsafe && t.Bound < t.Bench.MinBound)
	case status == sat.Unsat:
		return exp == svcomp.ExpectUnsafe && t.Bound >= t.Bench.MinBound
	}
	return false
}

func verdictName(out outcome) string {
	if out.proved {
		return "unbounded-safe"
	}
	return out.status.String()
}

func expectName(e svcomp.Expectation) string {
	switch e {
	case svcomp.ExpectSafe:
		return "safe"
	case svcomp.ExpectUnsafe:
		return "unsafe"
	}
	return "unknown"
}

// baselinePR10 holds status and search work per run of the committed
// BENCH_pr10.json sweep (width 8, MHB, polarity seed 1).
//
//go:embed baseline_pr10.tsv
var baselinePR10 string

type baselineRun struct {
	status string
	work   uint64
}

func loadBaseline() map[string]baselineRun {
	out := map[string]baselineRun{}
	for _, line := range strings.Split(baselinePR10, "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 3 || strings.HasPrefix(line, "#") {
			continue
		}
		w, err := strconv.ParseUint(f[2], 10, 64)
		if err != nil {
			panic(fmt.Sprintf("baseline_pr10.tsv: bad work in %q", line))
		}
		out[f[0]] = baselineRun{status: f[1], work: w}
	}
	return out
}

// baselineTie compares ops shared with the committed baseline run for run:
// the same task and strategy, and a strategy whose decisions the polarity
// seed cannot change (baseline) or the baseline's own polarity seed 1.
type baselineTie struct {
	runs     map[string]baselineRun
	checked  map[string]bool
	mismatch map[string]string
}

func newBaselineTie() *baselineTie {
	return &baselineTie{runs: loadBaseline(), checked: map[string]bool{}, mismatch: map[string]string{}}
}

// check compares one op solved under polarity seed pol.
func (b *baselineTie) check(p op, out outcome, pol int64) {
	if b == nil || (p.strat != core.Baseline && pol != 1) {
		return
	}
	id := p.id()
	want, ok := b.runs[id]
	if !ok || b.checked[id] {
		return
	}
	b.checked[id] = true
	if got := out.status.String(); got != want.status || out.work != want.work {
		b.mismatch[id] = fmt.Sprintf("got %s work %d, committed %s work %d", got, out.work, want.status, want.work)
	}
}
