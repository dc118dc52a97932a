package harness

import (
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zpre/internal/core"
	"zpre/internal/faultinject"
	"zpre/internal/memmodel"
	"zpre/internal/sat"
	"zpre/internal/telemetry"
)

// incConfig is the loop-bearing slice the incremental resilience tests use:
// fib_bench has multi-bound sweeps with real search work at bounds >= 2.
func incConfig() Config {
	return Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.Baseline},
		Bounds:        []int{1, 2, 3},
		Timeout:       time.Minute,
		Width:         8,
		Subcategories: []string{"pthread"},
		Incremental:   true,
	}
}

// TestIncrementalModeMatchesFresh: the harness's incremental mode produces
// the same verdict for every (task, strategy) pair as fresh mode, with the
// result slots in the same deterministic order.
func TestIncrementalModeMatchesFresh(t *testing.T) {
	fresh := incConfig()
	fresh.Incremental = false
	freshRes := Run(fresh)

	incRes := Run(incConfig())
	if len(incRes.Runs) != len(freshRes.Runs) {
		t.Fatalf("incremental runs = %d, fresh = %d", len(incRes.Runs), len(freshRes.Runs))
	}
	for i := range incRes.Runs {
		a, b := freshRes.Runs[i], incRes.Runs[i]
		if a.Task.ID() != b.Task.ID() || a.Strategy != b.Strategy {
			t.Fatalf("slot %d: task order diverged: %s/%v vs %s/%v",
				i, a.Task.ID(), a.Strategy, b.Task.ID(), b.Strategy)
		}
		if b.Err != nil {
			t.Fatalf("%s: incremental error: %v", b.Task.ID(), b.Err)
		}
		if a.Status != b.Status {
			t.Fatalf("%s: fresh=%v incremental=%v", a.Task.ID(), a.Status, b.Status)
		}
		if !b.Incremental {
			t.Fatalf("%s: run not marked incremental", b.Task.ID())
		}
		if b.Solved() && b.CumulativeSolve < b.Solve {
			t.Fatalf("%s: cumulative solve %v < bound solve %v", b.Task.ID(), b.CumulativeSolve, b.Solve)
		}
	}
	rows := incRes.IncrementalSweeps()
	if len(rows) != len(incRes.Runs) {
		t.Fatalf("sweep table rows = %d, want %d", len(rows), len(incRes.Runs))
	}
	if out := FormatIncremental(rows); !strings.Contains(out, "cum solve") {
		t.Fatalf("sweep table header missing:\n%s", out)
	}

	// The parallel worker pool distributes whole sweeps and must land every
	// result in the same deterministic slot.
	par := incConfig()
	par.Parallel = 4
	parRes := Run(par)
	for i := range parRes.Runs {
		if parRes.Runs[i].Status != incRes.Runs[i].Status {
			t.Fatalf("%s: parallel=%v sequential=%v",
				parRes.Runs[i].Task.ID(), parRes.Runs[i].Status, incRes.Runs[i].Status)
		}
	}
}

// TestIncrementalCancellationMidSweep: cancelling mid-sweep marks exactly
// the not-yet-solved bounds cancelled and incomplete — the same contract as
// fresh mode, but across live sweeps.
func TestIncrementalCancellationMidSweep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := incConfig()
	cfg.Context = ctx
	cfg.Progress = &cancelOnFirstWrite{cancel: cancel}
	cfg.Metrics = telemetry.NewRegistry()

	res := Run(cfg)
	completed, cancelled := 0, 0
	for _, r := range res.Runs {
		switch {
		case r.Failure() == sat.FailCancelled:
			cancelled++
			if r.Completed {
				t.Fatalf("%s: cancelled run marked completed", r.Task.ID())
			}
		case r.Solved():
			completed++
		default:
			t.Fatalf("%s: unexpected outcome status=%v err=%v", r.Task.ID(), r.Status, r.Err)
		}
	}
	if completed != 1 || cancelled != len(res.Runs)-1 {
		t.Fatalf("completed=%d cancelled=%d of %d", completed, cancelled, len(res.Runs))
	}
	if got := cfg.Metrics.Counter("tasks_cancelled").Value(); got != uint64(cancelled) {
		t.Fatalf("tasks_cancelled = %d, want %d", got, cancelled)
	}
}

// TestIncrementalBudgetExhaustionThenResume: a decision budget exhausts
// fib_bench_safe_2's sweep at bound 2 (bound 1 solves by propagation
// alone). The checkpoint marks the exhausted bound terminal; resuming with
// the budget lifted and an extra bound restores bounds 1-2 and solves bound
// 3 live on a replayed encoding — budget exhaustion at bound k never costs
// the later bounds.
func TestIncrementalBudgetExhaustionThenResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.json")
	cfg := incConfig()
	cfg.Bounds = []int{1, 2}
	cfg.MaxDecisions = 20
	cfg.CheckpointPath = ckpt

	first := Run(cfg)
	var sawBudget bool
	for _, r := range first.Runs {
		if r.Task.Bench.Name != "fib_bench_safe_2" {
			continue
		}
		switch r.Task.Bound {
		case 1:
			if !r.Solved() {
				t.Fatalf("k1: status=%v err=%v", r.Status, r.Err)
			}
		case 2:
			if r.Status != sat.Unknown || r.Stop != sat.StopDecisions {
				t.Fatalf("k2: status=%v stop=%v, want unknown/decision-budget", r.Status, r.Stop)
			}
			if !r.Completed {
				t.Fatal("k2: budget exhaustion must be terminal")
			}
			sawBudget = true
		}
	}
	if !sawBudget {
		t.Fatal("the 20-decision budget never fired on fib_bench_safe_2@k2")
	}

	doc, err := LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	resumed := incConfig()
	resumed.Bounds = []int{1, 2, 3}
	resumed.Resume = doc
	resumed.Metrics = telemetry.NewRegistry()
	second := Run(resumed)
	for _, r := range second.Runs {
		if r.Task.Bench.Name != "fib_bench_safe_2" {
			continue
		}
		switch r.Task.Bound {
		case 1, 2:
			if !r.Resumed {
				t.Fatalf("k%d: re-executed despite checkpoint", r.Task.Bound)
			}
		case 3:
			if r.Resumed {
				t.Fatal("k3: restored from a checkpoint that never ran it")
			}
			if r.Err != nil || r.Status != sat.Unsat {
				t.Fatalf("k3: status=%v err=%v, want unsat after live solve", r.Status, r.Err)
			}
		}
	}
	if got := resumed.Metrics.Counter("runs_resumed").Value(); got == 0 {
		t.Fatal("no run restored from the checkpoint")
	}
}

// TestIncrementalInjectedPanicIsolatedToBound: a panic injected into bound
// 2's search fails exactly that bound; bound 1 solved before it and bound 3
// solves after it on a replayed sweep, with the verdict intact.
func TestIncrementalInjectedPanicIsolatedToBound(t *testing.T) {
	cfg := incConfig()
	set := faultinject.New(faultinject.Fault{
		Kind:  faultinject.KindPanic,
		Match: "fib_bench_safe_2@sc/k2",
	})
	cfg.Faults = set
	cfg.Metrics = telemetry.NewRegistry()

	res := Run(cfg)
	for _, r := range res.Runs {
		if r.Task.Bench.Name != "fib_bench_safe_2" {
			if r.Err != nil || !r.Solved() {
				t.Fatalf("%s: disturbed by another sweep's fault: status=%v err=%v",
					r.Task.ID(), r.Status, r.Err)
			}
			continue
		}
		switch r.Task.Bound {
		case 2:
			if r.Failure() != sat.FailPanic {
				t.Fatalf("k2: failure=%v err=%v, want contained panic", r.Failure(), r.Err)
			}
			if !r.Completed {
				t.Fatal("k2: panicked bound must be terminal")
			}
		default:
			if r.Err != nil || r.Status != sat.Unsat {
				t.Fatalf("k%d: status=%v err=%v, want unsat despite k2 panic",
					r.Task.Bound, r.Status, r.Err)
			}
		}
	}
	if set.TotalFired() == 0 {
		t.Fatal("panic fault never fired")
	}
	if got := cfg.Metrics.Counter("tasks_panicked").Value(); got != 1 {
		t.Fatalf("tasks_panicked = %d, want 1", got)
	}
}

// TestIncrementalFeedsSolverMetrics: a sweep's bounds feed the live solver
// counters exactly as fresh runs do, so the registry's conflict and
// decision totals equal the sum of the per-bound Stats. Two workers share
// the registry, which makes this a race test under -race.
func TestIncrementalFeedsSolverMetrics(t *testing.T) {
	cfg := Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.ZPRE},
		Bounds:        []int{1, 2, 3},
		Timeout:       time.Minute,
		Width:         8,
		Seed:          1,
		Subcategories: []string{"wmm"},
		Incremental:   true,
		Parallel:      2,
		Metrics:       telemetry.NewRegistry(),
	}
	res := Run(cfg)
	var conflicts, decisions uint64
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s: %v", RunID(r.Task, r.Strategy), r.Err)
		}
		conflicts += r.Stats.Conflicts
		decisions += r.Stats.Decisions
	}
	if conflicts == 0 {
		t.Fatal("the sweep made no conflicts; the check would be vacuous")
	}
	if got := cfg.Metrics.Counter("solver_conflicts").Value(); got != conflicts {
		t.Errorf("registry solver_conflicts = %d, per-bound stats sum to %d", got, conflicts)
	}
	if got := cfg.Metrics.Counter("solver_decisions").Value(); got != decisions {
		t.Errorf("registry solver_decisions = %d, per-bound stats sum to %d", got, decisions)
	}
}
