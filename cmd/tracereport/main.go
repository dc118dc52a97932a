// Command tracereport analyses JSONL solver traces written by the -trace
// flags of zpre and evaluate. For each trace it renders the search
// introspection the paper discusses around Figures 6-8 — interference
// decision fraction over decision index, conflict-rate timeline, per-class
// decision histogram, learnt-clause LBD distribution, phase timings — and
// cross-checks the event stream against the solver's own statistics.
//
// Usage:
//
//	tracereport [-buckets 20] [-check-only] [-spans] trace.jsonl [more.jsonl ...]
//
// -spans is the span-summary mode: it prints only the run's span tree
// (span records carry sid/par/start_ns), as zpre -trace and evaluate
// -trace-dir record it. A trace without the version field still parses and
// cross-checks; its flat span records are not rendered.
//
// Exit status: 0 = all traces consistent, 1 = a cross-check mismatch or an
// unreadable/corrupt trace, 2 = usage error.
package main

import (
	"flag"
	"fmt"
	"os"

	"zpre/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("tracereport", flag.ContinueOnError)
	buckets := fs.Int("buckets", 20, "resolution of the fraction/timeline series")
	checkOnly := fs.Bool("check-only", false, "only run the stats cross-check, no report")
	spansOnly := fs.Bool("spans", false, "span-summary mode: print only the run's span tree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tracereport [-buckets n] [-check-only] [-spans] trace.jsonl ...")
		fs.Usage()
		return 2
	}

	failed := 0
	for i, path := range fs.Args() {
		if i > 0 && !*checkOnly {
			fmt.Println()
		}
		if err := report(path, *buckets, *checkOnly, *spansOnly); err != nil {
			fmt.Fprintf(os.Stderr, "tracereport: %s: %v\n", path, err)
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "tracereport: %d of %d trace(s) failed\n", failed, fs.NArg())
		return 1
	}
	return 0
}

func report(path string, buckets int, checkOnly, spansOnly bool) error {
	events, err := telemetry.ReadTraceFile(path)
	if err != nil {
		return err
	}
	rep, err := telemetry.AnalyzeTrace(events, buckets)
	if err != nil {
		return err
	}
	if spansOnly {
		fmt.Printf("== %s (%d events)\n", path, len(events))
		fmt.Print(rep.FormatHeader())
		fmt.Print(rep.FormatSpans())
		return nil
	}
	checkErr := rep.CrossCheck()
	if !checkOnly {
		fmt.Printf("== %s (%d events)\n", path, len(events))
		fmt.Print(rep.Format())
	}
	if checkErr != nil {
		return fmt.Errorf("cross-check: %w", checkErr)
	}
	if checkOnly {
		fmt.Printf("%s: OK (%d events)\n", path, len(events))
	} else {
		fmt.Println("\ncross-check: trace counts match solver statistics exactly")
	}
	return nil
}
