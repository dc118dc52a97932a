package main

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"zpre/internal/dimacs"
	"zpre/internal/sat"
)

// corpusDir holds ~30 small mixed sat/unsat CNF instances; the expected
// verdict is encoded in the file name (sat_*.cnf / unsat_*.cnf).
const corpusDir = "../../internal/dimacs/testdata"

// solverConfigs are the flag-gated solver variants the differential test
// compares: the default pipeline against the optional modes, on every
// corpus instance.
var solverConfigs = []struct {
	name string
	conf func(*sat.Solver)
}{
	{"tiered", func(s *sat.Solver) {}},
	{"legacy", func(s *sat.Solver) {
		// The pre-overhaul search: no inprocessing and no chronological
		// backtracking.
		s.Inprocessing = sat.InprocessOff
		s.ChronoThreshold = -1
	}},
	{"bve", func(s *sat.Solver) { s.Inprocessing = sat.InprocessBVE }},
	{"no-chrono", func(s *sat.Solver) { s.ChronoThreshold = -1 }},
}

func loadCorpus(t *testing.T) map[string]*dimacs.Formula {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.cnf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus at %s: %v", corpusDir, err)
	}
	sort.Strings(paths)
	corpus := make(map[string]*dimacs.Formula, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		formula, err := dimacs.Parse(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		corpus[filepath.Base(p)] = formula
	}
	return corpus
}

func newSolver(conf func(*sat.Solver), f *dimacs.Formula) *sat.Solver {
	s := sat.New()
	conf(s)
	dimacs.LoadInto(s, f)
	return s
}

// modelSatisfies checks a Sat solver's assignment against every clause of
// the original formula.
func modelSatisfies(s *sat.Solver, f *dimacs.Formula) bool {
	for _, c := range f.Clauses {
		ok := false
		for _, l := range c {
			if s.ValueLit(l) == sat.LTrue {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// TestDifferentialCorpus solves every corpus instance under every solver
// configuration: the verdict must match the one encoded in the file name,
// and Sat models must satisfy the original formula. Any divergence between
// two configurations is an inprocessing or backtracking soundness bug.
func TestDifferentialCorpus(t *testing.T) {
	corpus := loadCorpus(t)
	if len(corpus) < 25 {
		t.Fatalf("corpus has %d instances, want >= 25", len(corpus))
	}
	for name, f := range corpus {
		want := sat.Unsat
		if strings.HasPrefix(name, "sat_") {
			want = sat.Sat
		}
		for _, cfg := range solverConfigs {
			t.Run(name+"/"+cfg.name, func(t *testing.T) {
				s := newSolver(cfg.conf, f)
				if got := s.Solve(); got != want {
					t.Fatalf("verdict %v, want %v", got, want)
				}
				if want == sat.Sat && !modelSatisfies(s, f) {
					t.Fatalf("model does not satisfy the formula")
				}
			})
		}
	}
}

// TestDifferentialAssumptionCores probes every instance under a small
// assumption set on every configuration. All configurations must agree on
// the verdict; every returned conflict core must be a subset of the
// assumptions and must itself be unsatisfiable with the formula when
// re-solved on a fresh default solver (the verified labeled core).
func TestDifferentialAssumptionCores(t *testing.T) {
	corpus := loadCorpus(t)
	for name, f := range corpus {
		assumps := make([]sat.Lit, 0, 3)
		for v := 0; v < f.NumVars && v < 3; v++ {
			assumps = append(assumps, sat.PosLit(sat.Var(v)))
		}
		t.Run(name, func(t *testing.T) {
			var first sat.Status
			for i, cfg := range solverConfigs {
				s := newSolver(cfg.conf, f)
				got := s.SolveWithAssumptions(assumps...)
				if got == sat.Unknown {
					t.Fatalf("%s: budget-free solve returned Unknown", cfg.name)
				}
				if i == 0 {
					first = got
				} else if got != first {
					t.Fatalf("%s: verdict %v, but %s said %v", cfg.name, got, solverConfigs[0].name, first)
				}
				if got == sat.Sat {
					if !modelSatisfies(s, f) {
						t.Fatalf("%s: model does not satisfy the formula", cfg.name)
					}
					for _, a := range assumps {
						if s.ValueLit(a) != sat.LTrue {
							t.Fatalf("%s: assumption %v not true in model", cfg.name, a)
						}
					}
					continue
				}
				core := s.ConflictCore()
				inAssumps := map[sat.Lit]bool{}
				for _, a := range assumps {
					inAssumps[a] = true
				}
				for _, l := range core {
					if !inAssumps[l] {
						t.Fatalf("%s: core literal %v is not an assumption", cfg.name, l)
					}
				}
				// Verify the core on an independent default solver.
				chk := newSolver(solverConfigs[0].conf, f)
				if chk.SolveWithAssumptions(core...) != sat.Unsat {
					t.Fatalf("%s: core %v is satisfiable with the formula", cfg.name, core)
				}
			}
		})
	}
}
