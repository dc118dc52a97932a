// Command satsolve runs the CDCL core (internal/sat) as a standalone DIMACS
// SAT solver — the substrate the whole DPLL(T) stack stands on, usable (and
// testable) on its own.
//
// Usage:
//
//	satsolve [-timeout 60s] [-model] [-stats]
//	         [-no-inprocess] [-bve] [-chrono N] file.cnf
//
// Output follows SAT-competition conventions: "s SATISFIABLE" /
// "s UNSATISFIABLE" / "s UNKNOWN", optionally a "v ..." model line.
// Exit status: 10 sat, 20 unsat, 0 unknown (competition convention).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"zpre/internal/dimacs"
	"zpre/internal/sat"
)

func main() {
	var (
		timeout   = flag.Duration("timeout", 60*time.Second, "solve timeout")
		showModel = flag.Bool("model", false, "print a satisfying assignment")
		stats     = flag.Bool("stats", false, "print search statistics")
		noInproc  = flag.Bool("no-inprocess", false, "disable inprocessing (subsumption/strengthening between restarts)")
		bve       = flag.Bool("bve", false, "enable bounded variable elimination during inprocessing")
		chrono    = flag.Int("chrono", 100, "chronological-backtracking threshold in levels (negative = disabled)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: satsolve [flags] file.cnf")
		os.Exit(1)
	}
	file, err := os.Open(flag.Arg(0))
	if err != nil {
		fatalf("%v", err)
	}
	defer file.Close()
	f, err := dimacs.Parse(file)
	if err != nil {
		fatalf("%v", err)
	}

	s := sat.New()
	if *noInproc {
		s.Inprocessing = sat.InprocessOff
	}
	if *bve {
		s.Inprocessing = sat.InprocessBVE
	}
	s.ChronoThreshold = *chrono
	s.Deadline = time.Now().Add(*timeout)
	start := time.Now()
	dimacs.LoadInto(s, f)
	status := s.Solve()
	elapsed := time.Since(start)

	if *stats {
		st := s.Stats()
		fmt.Printf("c %d vars, %d clauses; %d decisions, %d propagations, %d conflicts, %d restarts in %v\n",
			f.NumVars, len(f.Clauses), st.Decisions, st.Propagations, st.Conflicts, st.Restarts,
			elapsed.Round(time.Microsecond))
	}
	switch status {
	case sat.Sat:
		fmt.Println("s SATISFIABLE")
		if *showModel {
			fmt.Println(dimacs.Model(s, f.NumVars))
		}
		os.Exit(10)
	case sat.Unsat:
		fmt.Println("s UNSATISFIABLE")
		os.Exit(20)
	default:
		fmt.Println("s UNKNOWN")
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "satsolve: "+format+"\n", args...)
	os.Exit(1)
}
