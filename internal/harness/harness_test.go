package harness

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"zpre/internal/core"
	"zpre/internal/memmodel"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
)

func smallConfig() Config {
	return Config{
		Models:        []memmodel.Model{memmodel.SC, memmodel.TSO},
		Strategies:    []core.Strategy{core.Baseline, core.ZPREMinus, core.ZPRE},
		Bounds:        []int{1, 2},
		Timeout:       5 * time.Second,
		Width:         8,
		Subcategories: []string{"lit"},
	}
}

func TestTaskExpansionDedup(t *testing.T) {
	cfg := smallConfig()
	tasks := Tasks(cfg)
	if len(tasks) == 0 {
		t.Fatal("no tasks")
	}
	seen := map[string]bool{}
	loopless, looped := 0, 0
	for _, task := range tasks {
		id := task.ID()
		if seen[id] {
			t.Fatalf("duplicate task %s", id)
		}
		seen[id] = true
		if task.Bench.Program.HasLoops() {
			looped++
		} else {
			loopless++
			if task.Bound != cfg.Bounds[0] {
				t.Fatalf("loop-free program at bound %d (dedup broken)", task.Bound)
			}
		}
	}
	// lit contains only loop-free programs: 5 programs × 2 models.
	if loopless != 10 || looped != 0 {
		t.Fatalf("loopless=%d looped=%d", loopless, looped)
	}
}

func TestRunAndTables(t *testing.T) {
	cfg := smallConfig()
	res := Run(cfg)
	wantRuns := len(Tasks(cfg)) * len(cfg.Strategies)
	if len(res.Runs) != wantRuns {
		t.Fatalf("runs = %d, want %d", len(res.Runs), wantRuns)
	}
	for _, r := range res.Runs {
		if r.Err != nil {
			t.Fatalf("%s/%v: %v", r.Task.ID(), r.Strategy, r.Err)
		}
		if !r.Solved() {
			t.Fatalf("%s/%v: unsolved in 5s", r.Task.ID(), r.Strategy)
		}
	}

	// Verdicts are strategy-invariant.
	byTask := map[string]sat.Status{}
	for _, r := range res.Runs {
		id := r.Task.ID()
		if prev, ok := byTask[id]; ok && prev != r.Status {
			t.Fatalf("%s: inconsistent verdicts across strategies", id)
		}
		byTask[id] = r.Status
	}

	t1 := res.Table1()
	if len(t1) != 2 {
		t.Fatalf("table1 rows: %d", len(t1))
	}
	totalTasks := len(Tasks(cfg))
	both := 0
	for _, row := range t1 {
		both += row.BothSolved
	}
	if both != totalTasks {
		t.Fatalf("both-solved %d != tasks %d", both, totalTasks)
	}
	out := FormatTable1(t1)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "sc") {
		t.Fatalf("table1 format:\n%s", out)
	}

	t2 := res.Table2()
	for _, row := range t2 {
		if row.DecisionsBase == 0 && row.DecisionsZpre == 0 && row.ConflictsBase == 0 {
			t.Logf("warning: no search at all for %v (tiny instances)", row.Model)
		}
	}
	if s := FormatTable2(t2); !strings.Contains(s, "Decisions") {
		t.Fatalf("table2 format:\n%s", s)
	}

	t3 := res.Table3()
	for _, row := range t3 {
		if row.SMTFiles != totalTasks/2 { // per model
			t.Fatalf("%v: SMTFiles=%d, want %d", row.Model, row.SMTFiles, totalTasks/2)
		}
		if row.AllSolved != row.SMTFiles {
			t.Fatalf("%v: AllSolved=%d", row.Model, row.AllSolved)
		}
		if row.True+row.False != row.AllSolved {
			t.Fatalf("%v: true+false != solved", row.Model)
		}
		if len(row.Per) != 3 {
			t.Fatalf("%v: per-strategy entries %d", row.Model, len(row.Per))
		}
		if row.Per[0].Speedup != 1.0 {
			t.Fatalf("baseline speedup must be 1.0, got %f", row.Per[0].Speedup)
		}
	}
	if s := FormatTable3(t3); !strings.Contains(s, "zpre-") {
		t.Fatalf("table3 format:\n%s", s)
	}

	// Figures.
	pts := res.Scatter(memmodel.SC)
	if len(pts) != totalTasks/2 {
		t.Fatalf("scatter points: %d", len(pts))
	}
	csv := ScatterCSV(pts)
	if !strings.HasPrefix(csv, "task,subcategory,") || strings.Count(csv, "\n") != len(pts)+1 {
		t.Fatalf("csv malformed:\n%s", csv)
	}
	if plot := AsciiScatter(pts, "fig"); !strings.Contains(plot, "*") {
		t.Fatalf("ascii scatter:\n%s", plot)
	}
	subs := res.SubcategoryTimes(memmodel.SC)
	if len(subs) != 1 || subs[0].Subcategory != "lit" {
		t.Fatalf("subcat rows: %+v", subs)
	}
	if subs[0].Tasks != totalTasks/2 {
		t.Fatalf("subcat task count: %d", subs[0].Tasks)
	}
	if s := FormatSubcategories(subs, "Figure 9"); !strings.Contains(s, "lit") {
		t.Fatalf("subcat format:\n%s", s)
	}
}

func TestRunOneTimeout(t *testing.T) {
	// An absurd budget of 0 conflicts must yield Unknown, counted as not
	// solved.
	cfg := Config{
		Models:        []memmodel.Model{memmodel.SC},
		Strategies:    []core.Strategy{core.Baseline},
		Bounds:        []int{2},
		Width:         8,
		MaxConflicts:  1,
		Timeout:       time.Minute,
		Subcategories: []string{"pthread"},
	}
	tasks := Tasks(cfg)
	var hard *Task
	for i := range tasks {
		if tasks[i].Bench.Name == "fib_bench_safe_2" {
			hard = &tasks[i]
		}
	}
	if hard == nil {
		t.Fatal("missing fib_bench_safe_2")
	}
	r := RunOne(*hard, core.Baseline, cfg)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Solved() {
		t.Fatalf("1-conflict budget should not solve fib_bench_safe_2 at bound 2; got %v", r.Status)
	}
}

func TestAsciiScatterEmpty(t *testing.T) {
	if out := AsciiScatter(nil, "empty"); !strings.Contains(out, "no data") {
		t.Fatalf("empty scatter: %q", out)
	}
}

// TestRunParallelMatchesSequential: the parallel runner must produce the
// same verdicts and layout as the sequential one.
func TestRunParallelMatchesSequential(t *testing.T) {
	cfg := smallConfig()
	seq := Run(cfg)
	cfg.Parallel = 4
	par := Run(cfg)
	if len(seq.Runs) != len(par.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(seq.Runs), len(par.Runs))
	}
	for i := range seq.Runs {
		a, b := seq.Runs[i], par.Runs[i]
		if a.Task.ID() != b.Task.ID() || a.Strategy != b.Strategy {
			t.Fatalf("ordering differs at %d: %s/%v vs %s/%v",
				i, a.Task.ID(), a.Strategy, b.Task.ID(), b.Strategy)
		}
		if a.Status != b.Status {
			t.Fatalf("%s/%v: status differs: %v vs %v", a.Task.ID(), a.Strategy, a.Status, b.Status)
		}
		// The search itself is deterministic: identical counters.
		if a.Stats.Decisions != b.Stats.Decisions || a.Stats.Conflicts != b.Stats.Conflicts {
			t.Fatalf("%s/%v: search diverged between sequential and parallel runs",
				a.Task.ID(), a.Strategy)
		}
	}
}

func TestTimeoutAsymmetries(t *testing.T) {
	// Deterministic budget: 1 conflict starves the baseline on a hard task
	// that ZPRE solves via its interference order... both will starve at 1
	// conflict; instead craft asymmetry from recorded results directly.
	cfg := smallConfig()
	res := Run(cfg)
	// All solved: no asymmetries.
	for _, mm := range cfg.Models {
		if rows := res.TimeoutAsymmetries(mm); len(rows) != 0 {
			t.Fatalf("%v: unexpected asymmetries %v", mm, rows)
		}
		if out := FormatAsymmetries(nil, mm); !strings.Contains(out, "none") {
			t.Fatalf("empty asymmetry format: %q", out)
		}
	}
	// Fabricate one: mark a baseline run unknown.
	for i := range res.Runs {
		if res.Runs[i].Strategy == core.Baseline {
			res.Runs[i].Status = sat.Unknown
			rows := res.TimeoutAsymmetries(res.Runs[i].Task.Model)
			found := false
			for _, r := range rows {
				if r.TaskID == res.Runs[i].Task.ID() && r.SolvedBy == core.ZPRE {
					found = true
				}
			}
			if !found {
				t.Fatalf("asymmetry not detected: %v", rows)
			}
			out := FormatAsymmetries(rows, res.Runs[i].Task.Model)
			if !strings.Contains(out, "solved by zpre") {
				t.Fatalf("format: %s", out)
			}
			break
		}
	}
}

// TestStaticPruneHarness: a pruned sweep keeps every verdict, drops a
// nonzero number of candidates somewhere in the corpus slice, and the
// before/after accounting in the report matches the unpruned encoding.
func TestStaticPruneHarness(t *testing.T) {
	cfg := Config{
		Models:        []memmodel.Model{memmodel.SC, memmodel.PSO},
		Strategies:    []core.Strategy{core.ZPRE, core.ZPREStatic},
		Bounds:        []int{1},
		Timeout:       10 * time.Second,
		Width:         8,
		Subcategories: []string{"lit"},
	}
	base := Run(cfg)
	cfg.StaticPrune = true
	pruned := Run(cfg)
	if len(base.Runs) != len(pruned.Runs) {
		t.Fatalf("run counts differ: %d vs %d", len(base.Runs), len(pruned.Runs))
	}
	totalDropped := 0
	for i := range base.Runs {
		b, p := base.Runs[i], pruned.Runs[i]
		if b.Err != nil || p.Err != nil {
			t.Fatalf("%s: errs %v / %v", b.Task.ID(), b.Err, p.Err)
		}
		if b.Status != p.Status {
			t.Fatalf("%s/%v: verdict changed by pruning: %v vs %v",
				b.Task.ID(), b.Strategy, b.Status, p.Status)
		}
		if b.VC.RFPruned != 0 || b.VC.WSPruned != 0 {
			t.Fatalf("%s: pruned counters nonzero without StaticPrune: %+v", b.Task.ID(), b.VC)
		}
		// The unpruned candidate set is exactly kept + dropped.
		if b.VC.RFVars != p.VC.RFVars+p.VC.RFPruned {
			t.Fatalf("%s: rf accounting: base %d != %d kept + %d dropped",
				b.Task.ID(), b.VC.RFVars, p.VC.RFVars, p.VC.RFPruned)
		}
		if b.VC.WSVars != p.VC.WSVars+p.VC.WSPruned {
			t.Fatalf("%s: ws accounting: base %d != %d kept + %d dropped",
				b.Task.ID(), b.VC.WSVars, p.VC.WSVars, p.VC.WSPruned)
		}
		totalDropped += p.VC.RFPruned + p.VC.WSPruned
	}
	if totalDropped == 0 {
		t.Fatal("static pruning dropped nothing across the lit corpus")
	}

	rows := pruned.PruneReport()
	if len(rows) == 0 {
		t.Fatal("empty prune report")
	}
	rf, ws := 0, 0
	for _, r := range rows {
		if r.RFAfter > r.RFBefore || r.WSAfter > r.WSBefore {
			t.Fatalf("row %s/%s: after exceeds before: %+v", r.Subcategory, r.Benchmark, r)
		}
		rf += r.RFPruned()
		ws += r.WSPruned()
	}
	// Each task contributes once to the report even though two strategies
	// ran it, so the report total is half the per-run total.
	if 2*(rf+ws) != totalDropped {
		t.Fatalf("report drops %d (×2 strategies = %d) != run total %d", rf+ws, 2*(rf+ws), totalDropped)
	}
	out := FormatPruneReport(rows)
	if !strings.Contains(out, "total") || !strings.Contains(out, "rf before") {
		t.Fatalf("prune report format:\n%s", out)
	}

	var buf strings.Builder
	if err := pruned.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc JSONResults
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if !doc.StaticPrune {
		t.Fatal("static_prune flag missing from JSON header")
	}
	jsonDropped := 0
	for _, r := range doc.Runs {
		jsonDropped += r.RFPruned + r.WSPruned
	}
	if jsonDropped != totalDropped {
		t.Fatalf("json pruned total %d != run total %d", jsonDropped, totalDropped)
	}
}

func TestWriteJSON(t *testing.T) {
	cfg := smallConfig()
	cfg.CheckVerdicts = true
	res := Run(cfg)
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc JSONResults
	if err := json.Unmarshal([]byte(buf.String()), &doc); err != nil {
		t.Fatalf("invalid json: %v", err)
	}
	if len(doc.Runs) != len(res.Runs) {
		t.Fatalf("runs %d != %d", len(doc.Runs), len(res.Runs))
	}
	if doc.Width != cfg.Width || len(doc.Models) != len(cfg.Models) {
		t.Fatalf("header wrong: %+v", doc)
	}
	for _, r := range doc.Runs {
		if r.Status != "sat" && r.Status != "unsat" {
			t.Fatalf("run %s: status %q", r.Task, r.Status)
		}
		if !r.Checked {
			t.Fatalf("run %s not checked despite CheckVerdicts", r.Task)
		}
		if r.Error != "" {
			t.Fatalf("run %s: %s", r.Task, r.Error)
		}
	}
}

// TestMPLoopBaselineWidth32 is the regression test for a solver panic that
// failed this run: chronological backtracking on a unit learnt clause left
// the unit at a positive level without a reason, and conflict analysis
// later indexed the clause arena with the null reference. The run must now
// decide the program's ground-truth verdict.
func TestMPLoopBaselineWidth32(t *testing.T) {
	var task *Task
	for _, b := range svcomp.All() {
		if b.Subcategory == "wmm" && b.Name == "mp_loop_2" {
			task = &Task{Bench: b, Model: memmodel.SC, Bound: 4}
		}
	}
	if task == nil {
		t.Fatal("missing wmm/mp_loop_2")
	}
	if task.Bench.Expected[memmodel.SC] != svcomp.ExpectSafe {
		t.Fatal("wmm/mp_loop_2 is expected safe under SC")
	}
	r := RunOne(*task, core.Baseline, Config{Width: 32, Timeout: time.Minute, Seed: 1})
	if r.Err != nil {
		t.Fatalf("run failed: %v", r.Err)
	}
	if r.Status != sat.Unsat {
		t.Fatalf("status %v, want unsat (safe)", r.Status)
	}
}
