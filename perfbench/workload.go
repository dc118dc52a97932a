package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"strings"
	"time"

	"zpre/internal/core"
	"zpre/internal/harness"
	"zpre/internal/memmodel"
	"zpre/internal/rg"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
)

// op is one verification: a task solved with one strategy. On the
// incremental workload it is one bound step of a live sweep.
type op struct {
	task  harness.Task
	strat core.Strategy
}

func (p op) id() string { return harness.RunID(p.task, p.strat) }

// outcome is what one op returned.
type outcome struct {
	status sat.Status
	// proved marks an UNBOUNDED-SAFE answer from the rely-guarantee prover.
	proved bool
	fail   sat.FailureKind
	err    string
	// work is the op's search work, decisions + conflicts.
	work uint64
	// wall is the op's wall-clock time; cpu the CPU time the whole process
	// spent meanwhile, which excludes time the host steals from the VM.
	wall, cpu time.Duration
	// encode and solve are the entry point's own timing of the op's
	// encoding and solving.
	encode, solve time.Duration
}

// failure classifies an unknown status the way harness.RunResult.Failure
// does.
func failure(status sat.Status, stop sat.StopReason) sat.FailureKind {
	if status != sat.Unknown {
		return sat.FailNone
	}
	if k := stop.Failure(); k != sat.FailNone {
		return k
	}
	return sat.FailTimeout
}

// runner executes the ops of one pass.
type runner interface {
	// run executes op i through the entry point users run.
	run(i int) outcome
	// traced executes op i by calling the layers' public functions in the
	// entry point's order, recording a span around each call.
	traced(i int, t *tracer) outcome
}

// workload is one named set of inputs.
type workload struct {
	name string
	// draw returns one pass of ops, drawn from the corpus by seed.
	draw func(corpus []svcomp.Benchmark, seed int64) []op
	// newRunner builds the runner for a pass under polarity seed pol.
	newRunner func(ops []op, pol int64) runner
	// warm is the number of ops run untimed in each set-up.
	warm int
	// passSeconds is one pass's wall time on a quiet 2-vCPU VM; a run of
	// --seconds makes the nearest whole number of passes, at least one.
	passSeconds float64
	// baseline enables the tie to the committed BENCH_pr10.json runs.
	baseline bool
	// minOpMS makes a timed run repeat each op back to back, up to
	// maxRepeats runs, until its runs in the pass have taken minOpMS of CPU
	// time. Only ops that can run again unchanged repeat: a sweep's bound
	// step cannot.
	minOpMS float64
}

// maxRepeats caps the back-to-back runs of one op in a pass.
const maxRepeats = 8

// opTimeout is every op's solve budget, the harness default.
const opTimeout = 10 * time.Second

var paperStrategies = []core.Strategy{core.Baseline, core.ZPREMinus, core.ZPRE}

var workloads = []workload{
	// Whole corpus at width 8, bounds 1-2, three strategies, MHB: sub-ms
	// median op, mostly encoding.
	{
		name: "corpus-light",
		draw: func(corpus []svcomp.Benchmark, seed int64) []op {
			return withStrategies(spread(tasks(corpus, nil, []int{1, 2}), seed), paperStrategies)
		},
		newRunner: func(ops []op, pol int64) runner {
			return &freshRunner{ops: ops, cfg: harness.Config{MHB: true, Timeout: opTimeout, Seed: pol}}
		},
		warm:        300,
		passSeconds: 2.3,
		baseline:    true,
	},
	// Solve-dominated families and the looped programs at width 32, bounds
	// 3-5. Keeps the baseline-strategy ops on wmm/mp_loop* that panic in
	// sat.(*Solver).analyze; they count as failed ops.
	{
		name: "heavy-solve",
		draw: func(corpus []svcomp.Benchmark, seed int64) []op {
			return withStrategies(spread(tasks(corpus, heavyProgram, []int{3, 4, 5}), seed), paperStrategies)
		},
		newRunner: func(ops []op, pol int64) runner {
			return &freshRunner{ops: ops, cfg: harness.Config{Width: 32, Timeout: opTimeout, Seed: pol}}
		},
		warm:        60,
		passSeconds: 4.2,
	},
	// Every (program, model) pair verified with the rely-guarantee prover
	// (DBM domain, prefilter, MHB) in front of zpre at bound 2, so every op
	// pays its own proof. One pass fills a run, and the prover's heap keeps
	// the collector busy, so the cheap ops repeat to average its cycles.
	{
		name: "rg-prove",
		draw: func(corpus []svcomp.Benchmark, seed int64) []op {
			return withStrategies(spread(tasks(corpus, nil, []int{2}), seed), []core.Strategy{core.ZPRE})
		},
		newRunner: func(ops []op, pol int64) runner {
			return &freshRunner{ops: ops, cfg: harness.Config{
				RG: true, RGDomain: rg.DomainDBM, RGPrefilter: true, MHB: true, Timeout: opTimeout, Seed: pol,
			}}
		},
		warm:        20,
		passSeconds: 20,
		minOpMS:     15,
	},
	// Every looped program, model and strategy as one live sweep over bounds
	// 1-6 at width 16.
	{
		name: "incremental-sweep",
		draw: func(corpus []svcomp.Benchmark, seed int64) []op {
			return sweepOps(spread(tasks(corpus, looped, []int{1}), seed), paperStrategies, maxSweepBound)
		},
		newRunner: func(ops []op, pol int64) runner {
			return &sweepRunner{ops: ops, width: 16, seed: pol}
		},
		warm:        20 * maxSweepBound,
		passSeconds: 1.35,
	},
}

// maxSweepBound is the deepest bound an incremental sweep reaches.
const maxSweepBound = 6

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func looped(b svcomp.Benchmark) bool { return b.Program.HasLoops() }

// heavyProgram selects the solve-dominated families and the looped programs.
func heavyProgram(b svcomp.Benchmark) bool {
	return b.Subcategory == "ext" || b.Subcategory == "C-DAC" || looped(b)
}

// tasks expands the selected programs into (program, model, bound) tasks in
// corpus order; loop-free programs contribute their first bound only, as in
// harness.Tasks.
func tasks(corpus []svcomp.Benchmark, keep func(svcomp.Benchmark) bool, bounds []int) []harness.Task {
	var out []harness.Task
	for _, b := range corpus {
		if keep != nil && !keep(b) {
			continue
		}
		bs := bounds
		if !b.Program.HasLoops() {
			bs = bounds[:1]
		}
		for _, m := range memmodel.All() {
			for _, k := range bs {
				out = append(out, harness.Task{Bench: b, Model: m, Bound: k})
			}
		}
	}
	return out
}

// spread draws every task once, in a seeded order that visits the
// corpus-ordered list with a golden-ratio stride from a seeded offset. Any
// stretch of the order then samples every family and bound evenly, which
// keeps a prefix, such as the warm-up, representative of the whole pass.
func spread(ts []harness.Task, seed int64) []harness.Task {
	n := len(ts)
	if n == 0 {
		return nil
	}
	stride := int(float64(n)*0.6180339887) | 1
	for gcd(stride, n) != 1 {
		stride++
	}
	offset := rand.New(rand.NewSource(seed)).Intn(n)
	out := make([]harness.Task, n)
	for i := range out {
		out[i] = ts[(offset+i*stride)%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func withStrategies(ts []harness.Task, strats []core.Strategy) []op {
	out := make([]op, 0, len(ts)*len(strats))
	for _, t := range ts {
		for _, s := range strats {
			out = append(out, op{task: t, strat: s})
		}
	}
	return out
}

// sweepOps turns each (program, model) task into one sweep per strategy, a
// run of consecutive ops at bounds 1..maxBound.
func sweepOps(ts []harness.Task, strats []core.Strategy, maxBound int) []op {
	var out []op
	for _, t := range ts {
		for _, s := range strats {
			for k := 1; k <= maxBound; k++ {
				tk := t
				tk.Bound = k
				out = append(out, op{task: tk, strat: s})
			}
		}
	}
	return out
}

// panicked turns a recovered panic into a failed outcome.
func panicked(p any) outcome {
	err := fmt.Errorf("panic: %v\n%s", p, debug.Stack())
	return outcome{status: sat.Unknown, fail: sat.FailPanic, err: errorText(err)}
}

// errorText keeps the first line of an error and, when the error carries a
// panic's stack, the three innermost program frames that panicked.
func errorText(err error) string {
	lines := strings.Split(err.Error(), "\n")
	msg := lines[0]
	for strings.HasPrefix(msg, "panic: panic: ") {
		msg = strings.TrimPrefix(msg, "panic: ")
	}
	var frames []string
	for i, inPanic := 0, false; i+1 < len(lines) && len(frames) < 3; i++ {
		fn := lines[i]
		if strings.HasPrefix(fn, "panic(") {
			inPanic = true
		}
		if !inPanic || !strings.HasPrefix(fn, "zpre/") {
			continue
		}
		if k := strings.LastIndexByte(fn, '('); k > 0 && strings.HasSuffix(fn, ")") {
			fn = fn[:k]
		}
		file := strings.Fields(lines[i+1] + " ?")[0]
		if k := strings.LastIndex(file, "/internal/"); k >= 0 {
			file = file[k+len("/internal/"):]
		}
		frames = append(frames, strings.TrimPrefix(fn, "zpre/internal/")+" "+file)
	}
	if len(frames) > 0 {
		msg += " at " + strings.Join(frames, " < ")
	}
	return msg
}
