package sat

import (
	"math/rand"
	"testing"
)

// pigeonhole builds the PHP(n+1, n) principle: n+1 pigeons into n holes,
// unsatisfiable, and famously conflict-heavy — ideal for forcing long
// backjumps. Variable i*n+h means pigeon i sits in hole h.
func phpClauses(n int) (nvars int, clauses [][]Lit) {
	for i := 0; i <= n; i++ {
		c := make([]Lit, n)
		for h := 0; h < n; h++ {
			c[h] = PosLit(Var(i*n + h))
		}
		clauses = append(clauses, c)
	}
	for h := 0; h < n; h++ {
		for i := 0; i <= n; i++ {
			for j := i + 1; j <= n; j++ {
				clauses = append(clauses, []Lit{
					NegLit(Var(i*n + h)), NegLit(Var(j*n + h)),
				})
			}
		}
	}
	return (n + 1) * n, clauses
}

func solveClauses(conf func(*Solver), nvars int, clauses [][]Lit) (Status, *Solver) {
	s := New()
	conf(s)
	for i := 0; i < nvars; i++ {
		s.NewVar()
	}
	for _, c := range clauses {
		s.AddClause(c...)
	}
	return s.Solve(), s
}

// TestChronoBacktrackingUnsat checks that restricted chronological
// backtracking fires on a conflict-heavy instance (threshold 0 turns every
// multi-level backjump into a single-level step) and preserves the Unsat
// verdict, and that the ChronoBTs counter stays zero when the feature is
// disabled.
func TestChronoBacktrackingUnsat(t *testing.T) {
	nvars, clauses := phpClauses(4)

	got, chrono := solveClauses(func(s *Solver) { s.ChronoThreshold = 0 }, nvars, clauses)
	if got != Unsat {
		t.Fatalf("chrono solver: %v, want Unsat", got)
	}
	if chrono.Stats().ChronoBTs == 0 {
		t.Fatal("threshold 0 on PHP(5,4) never backtracked chronologically")
	}
	if chrono.Stats().ChronoBTs > chrono.Stats().Conflicts {
		t.Fatalf("ChronoBTs %d exceeds Conflicts %d",
			chrono.Stats().ChronoBTs, chrono.Stats().Conflicts)
	}

	got, plain := solveClauses(func(s *Solver) { s.ChronoThreshold = -1 }, nvars, clauses)
	if got != Unsat {
		t.Fatalf("non-chrono solver: %v, want Unsat", got)
	}
	if plain.Stats().ChronoBTs != 0 {
		t.Fatalf("disabled chrono still counted %d ChronoBTs", plain.Stats().ChronoBTs)
	}
}

// BenchmarkPropagationThroughput measures raw BCP speed (propagations per
// second) on PHP(7,6), a dense instance dominated by unit propagation. The
// blocker-literal and arena work in this PR targets exactly this number;
// the benchmark reports props/sec as a custom metric so benchstat can
// track it across commits.
func BenchmarkPropagationThroughput(b *testing.B) {
	nvars, clauses := phpClauses(6)
	var props uint64
	var elapsed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, s := solveClauses(func(s *Solver) {}, nvars, clauses)
		if st != Unsat {
			b.Fatalf("PHP(7,6): %v, want Unsat", st)
		}
		props += s.Stats().Propagations
	}
	elapsed = b.Elapsed().Nanoseconds()
	if elapsed > 0 {
		b.ReportMetric(float64(props)/(float64(elapsed)/1e9), "props/sec")
	}
}

// TestChronoBacktrackingRandomEquivalence cross-checks the chronological
// and non-chronological configurations on random 3-CNF instances near the
// sat/unsat threshold: both must agree with the brute-force oracle, and Sat
// models must satisfy the formula.
func TestChronoBacktrackingRandomEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 12
	for trial := 0; trial < 40; trial++ {
		m := 4 * n // clause/var ratio ≈ 4: mixed verdicts
		clauses := make([][]Lit, 0, m)
		for i := 0; i < m; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			clauses = append(clauses, c)
		}
		want := bruteSat(n, clauses, nil)
		for _, cfg := range []struct {
			name      string
			threshold int
		}{{"chrono-0", 0}, {"chrono-default", 100}, {"no-chrono", -1}} {
			got, s := solveClauses(func(s *Solver) { s.ChronoThreshold = cfg.threshold }, n, clauses)
			if (got == Sat) != want {
				t.Fatalf("trial %d %s: %v, oracle says sat=%v", trial, cfg.name, got, want)
			}
			if got != Sat {
				continue
			}
			for _, c := range clauses {
				ok := false
				for _, l := range c {
					if s.ValueLit(l) == LTrue {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("trial %d %s: model falsifies %v", trial, cfg.name, c)
				}
			}
		}
	}
}

// TestChronoUnitLearnt is the regression test for chronological
// backtracking on a unit learnt clause. A unit learnt has no reason clause,
// so it must be asserted at level 0; stepping back a single level instead
// left it at a positive level with a null reason, and a later conflict
// analysis that resolved through it indexed the clause arena out of range.
// Threshold 0 makes every multi-level backjump a chronological candidate,
// and the random instances are sized to learn many units at deep levels.
func TestChronoUnitLearnt(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 16
	chronoBTs := uint64(0)
	for trial := 0; trial < 300; trial++ {
		m := 4*n + rng.Intn(n)
		clauses := make([][]Lit, 0, m)
		for i := 0; i < m; i++ {
			c := make([]Lit, 3)
			for j := range c {
				c[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			clauses = append(clauses, c)
		}
		want := bruteSat(n, clauses, nil)
		got, s := solveClauses(func(s *Solver) { s.ChronoThreshold = 0 }, n, clauses)
		if (got == Sat) != want {
			t.Fatalf("trial %d: %v, oracle says sat=%v", trial, got, want)
		}
		chronoBTs += s.Stats().ChronoBTs
	}
	if chronoBTs == 0 {
		t.Fatal("no chronological backtrack: the instances never exercised the path")
	}
}
