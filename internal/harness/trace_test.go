package harness

import (
	"path/filepath"
	"testing"
	"time"

	"zpre/internal/core"
	"zpre/internal/memmodel"
	"zpre/internal/telemetry"
)

// TestParallelTracing runs the lit corpus under four workers with tracing
// on and validates every run's private trace: events parse, seq numbers
// are strictly increasing (no interleaving or loss), and the summary
// cross-checks against the solver stats reported for that run. With
// -race this doubles as the concurrency test for the shared metrics
// registry feeding off per-worker tracers.
func TestParallelTracing(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.NewRegistry()
	cfg := Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.Baseline, core.ZPRE},
		Bounds:        []int{1},
		Timeout:       5 * time.Second,
		Width:         8,
		Subcategories: []string{"lit"},
		Parallel:      4,
		TraceDir:      dir,
		Metrics:       reg,
	}
	res := Run(cfg)
	if len(res.Runs) == 0 {
		t.Fatal("no runs")
	}

	var totalConflicts uint64
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s/%v: %v", r.Task.ID(), r.Strategy, r.Err)
		}
		path := filepath.Join(dir, TraceFileName(r.Task, r.Strategy))
		events, err := telemetry.ReadTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rep, err := telemetry.AnalyzeTrace(events, 10)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := rep.CrossCheck(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if rep.Meta == nil || rep.Meta.Task != r.Task.ID() {
			t.Fatalf("%s: meta task %q, want %q", path, rep.Meta.Task, r.Task.ID())
		}
		// The trace must describe THIS run, not a sibling worker's: the
		// summary stats are the run's solver stats delta.
		if rep.Summary.Stats.Decisions != r.Stats.Decisions ||
			rep.Summary.Stats.Conflicts != r.Stats.Conflicts {
			t.Fatalf("%s: trace stats %+v do not match run stats %+v",
				path, rep.Summary.Stats, r.Stats)
		}
		totalConflicts += r.Stats.Conflicts
	}

	// The shared registry aggregated every worker's conflicts.
	if got := reg.Counter("solver_conflicts").Value(); got != totalConflicts {
		t.Fatalf("registry conflicts = %d, runs sum to %d", got, totalConflicts)
	}
	if got := reg.Counter("runs_done").Value(); got != uint64(len(res.Runs)) {
		t.Fatalf("runs_done = %d, want %d", got, len(res.Runs))
	}
	if got := reg.Gauge("solves_running").Value(); got != 0 {
		t.Fatalf("solves_running = %d after completion, want 0", got)
	}
}

// TestTraceSampledRuns exercises the TraceEvery path end to end: sampled
// traces still cross-check (exact summary counts) while carrying fewer
// raw events.
func TestTraceSampledRuns(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.Baseline},
		Bounds:        []int{1},
		Timeout:       5 * time.Second,
		Width:         8,
		Subcategories: []string{"lit"},
		TraceDir:      dir,
		TraceEvery:    50,
	}
	res := Run(cfg)
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s/%v: %v", r.Task.ID(), r.Strategy, r.Err)
		}
		path := filepath.Join(dir, TraceFileName(r.Task, r.Strategy))
		events, err := telemetry.ReadTraceFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rep, err := telemetry.AnalyzeTrace(events, 10)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if !rep.Sampled {
			t.Fatalf("%s: sampled run not flagged", path)
		}
		if err := rep.CrossCheck(); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
}

// TestTraceClassifiesOrderAtoms checks that a decision trace counts
// decisions on ordering atoms as ord: the atoms are not named variables,
// so the decision order never includes them, but the trace's class map
// covers them. Baseline Peterson at bound 1 decides ten of them.
func TestTraceClassifiesOrderAtoms(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.Baseline},
		Bounds:        []int{1},
		Timeout:       5 * time.Second,
		Width:         8,
		Subcategories: []string{"lit"},
		TraceDir:      dir,
	}
	for _, task := range Tasks(cfg) {
		if task.ID() != "lit/peterson@sc/k1" {
			continue
		}
		r := RunOne(task, core.Baseline, cfg)
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		events, err := telemetry.ReadTraceFile(filepath.Join(dir, TraceFileName(task, core.Baseline)))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := telemetry.AnalyzeTrace(events, 10)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.CrossCheck(); err != nil {
			t.Fatal(err)
		}
		if n := rep.Summary.Counts.ByClass[core.ClassOrd.String()]; n == 0 {
			t.Fatalf("no ord decisions in the trace: %v", rep.Summary.Counts.ByClass)
		}
		return
	}
	t.Fatal("lit/peterson@sc/k1 missing from the task list")
}
