// Command perfbench is the repository benchmark: time to verdict on four
// workloads, each run as a closed loop with one client (one verification in
// flight at a time, in this process).
//
//	bash perfbench/run.sh --workload corpus-light --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it runs the workload's seeded ops through the entry points
// users run (harness.RunOne, incremental.(*Sweep).Next) in the number of
// whole passes that takes --seconds seconds on a quiet machine, and reports
// the end-to-end metrics. Op times
// are the CPU time the whole process spends on the op, GC included: on a
// shared VM the host steals a varying share of wall-clock time, which CPU
// time excludes. The reported times are calibrated against a reference
// kernel run between ops (see calib.go), which takes out the host's speed
// drift between runs; raw CPU and wall-clock figures are printed alongside.
//
// With --trace 1 it makes one pass in which every op runs untraced and then
// again through the layers' public functions, called in the entry point's
// order with a span around each call; it checks that both runs of each op
// agree and reports the per-layer metrics and a "where the time goes"
// table.
//
// Every decided verdict is checked against the corpus ground truth and
// across strategies and passes. The last line of standard output is one
// JSON object with the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"zpre/internal/core"
	"zpre/internal/sat"
	"zpre/internal/svcomp"
)

// setupRounds is how many times set-up (corpus build, draw, warm-up) runs;
// setup_s is the median.
const setupRounds = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "draw and polarity seed")
	seconds := flag.Int("seconds", 20, "run length in seconds on a quiet machine, in whole passes (--trace 0)")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	flag.Parse()
	w, ok := lookup(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1\nworkloads:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, " %s", w.name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}
	var res result
	if *trace == 1 {
		res = traced(w, *seed, os.Stdout)
	} else {
		res = timed(w, *seed, time.Duration(*seconds)*time.Second, os.Stdout)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setup builds the corpus, draws the ops and warms up, setupRounds times,
// and returns the last round's ops with the median round's CPU time. The
// warm-up ops are the same for every seed: the first ops of the seed-0
// draw, which sample the whole population evenly. The calibrator, if any,
// runs its kernel between rounds.
func setup(w workload, seed int64, cal *calibrator) ([]op, float64) {
	var ops []op
	times := make([]float64, setupRounds)
	for k := range times {
		cal.tick()
		start := cpuTime()
		corpus := svcomp.All()
		warm := w.draw(corpus, 0)
		warm = warm[:min(w.warm, len(warm))]
		wr := w.newRunner(warm, seed)
		for i := range warm {
			wr.run(i)
		}
		ops = w.draw(corpus, seed)
		times[k] = (cpuTime() - start).Seconds()
	}
	runtime.GC()
	return ops, median(times)
}

// tally accumulates the runs of a workload's ops, by op index: a run
// repeats each op once per pass, and some workloads repeat cheap ops within
// a pass.
type tally struct {
	wall   []float64 // ms, summed over the op's runs
	cpu    []float64 // ms, summed over the op's runs
	runs   []int
	outs   []outcome         // the op's last outcome
	failed map[string]string // op id -> failure
	n      int               // runs of all ops
	nFail  int
	proved int
}

func newTally(ops int) *tally {
	return &tally{
		wall: make([]float64, ops), cpu: make([]float64, ops),
		runs: make([]int, ops), outs: make([]outcome, ops),
	}
}

func (t *tally) add(i int, p op, out outcome) {
	t.wall[i] += ms(out.wall)
	t.cpu[i] += ms(out.cpu)
	t.runs[i]++
	t.outs[i] = out
	t.n++
	if out.proved {
		t.proved++
	}
	if out.fail != sat.FailNone {
		t.nFail++
		if t.failed == nil {
			t.failed = map[string]string{}
		}
		t.failed[p.id()] = out.fail.String()
		if out.err != "" {
			t.failed[p.id()] = out.err
		}
	}
}

// latencies returns each op's latency, its mean time over its runs: a
// collection cycle started by one op's allocations is paid by whichever run
// is on the CPU, and averaging spreads it over the runs that caused it.
func (t *tally) latencies(sums []float64) []float64 {
	out := make([]float64, len(sums))
	for i, s := range sums {
		out[i] = s / float64(max(1, t.runs[i]))
	}
	return out
}

// timed runs the closed loop for about d and reports the end-to-end metrics.
func timed(w workload, seed int64, d time.Duration, out io.Writer) result {
	cal := newCalibrator()
	ops, setupS := setup(w, seed, cal)
	orc := newOracle()
	var tie *baselineTie
	if w.baseline {
		tie = newBaselineTie()
	}
	t := newTally(len(ops))
	// A run is a fixed number of whole passes, so every run of a workload
	// does the same work whatever the machine's load. Pass k uses polarity
	// seed seed+k, so a run averages over as many polarity draws as it
	// makes passes.
	passes := max(1, int(math.Round(d.Seconds()/w.passSeconds)))
	start, cpu0, spent0 := time.Now(), cpuTime(), cal.spent
	for k := 0; k < passes; k++ {
		pol := seed + int64(k)
		r := w.newRunner(ops, pol)
		for i, p := range ops {
			cal.tick()
			var spent float64
			for rep := 0; rep == 0 || (spent < w.minOpMS && rep < maxRepeats); rep++ {
				o := measure(r, i)
				orc.check(p, o)
				tie.check(p, o, pol)
				t.add(i, p, o)
				spent += ms(o.cpu)
			}
		}
	}
	cal.tick()
	// The kernel runs are not the program's: take them out of the phase.
	kernel := cal.spent - spent0
	elapsed := (time.Since(start) - kernel).Seconds()
	cpuS := (cpuTime() - cpu0 - kernel).Seconds()
	n := t.n
	cpuLat, wallLat := t.latencies(t.cpu), t.latencies(t.wall)
	p50, pct, tv := percentiles(cpuLat)
	// Throughput is one op each at its latency, so repeating cheap ops does
	// not weigh them more.
	perCPUS := float64(len(ops)) / (sum(cpuLat) / 1000)
	f := cal.factor()
	m := map[string]metric{
		"verify_cal_p50_ms":       {p50 * f, "ms"},
		"verify_cal_tail_ms":      {tv * f, "ms"},
		"verifications_per_cal_s": {perCPUS / f, "1/s"},
		"completed_frac":          {1 - float64(t.nFail)/float64(n), "fraction"},
		"setup_s":                 {setupS * f, "s"},
	}
	fmt.Fprintf(out, "workload %s seed %d: %d passes of %d ops in %.2f s wall, %.2f s process CPU; closed loop, 1 client\n",
		w.name, seed, passes, len(ops), elapsed, cpuS)
	fmt.Fprintf(out, "  calibration: %d kernel runs, median %.4f ms (reference %.4f ms), factor %.4f\n",
		len(cal.times), median(cal.times), refKernelMS, f)
	printMetrics(out, m)
	fmt.Fprintf(out, "  an op's latency is its mean over its runs, %.1f on average; verify_cal_tail_ms is p%g of %d ops (at least %d beyond it)\n",
		float64(n)/float64(len(ops)), pct, len(ops), tailBeyond)
	fmt.Fprintf(out, "  process CPU, uncalibrated: verify_cpu_p50_ms %.4f, verify_cpu_tail_ms %.4f, verifications_per_cpu_s %.2f, setup_cpu_s %.4f\n",
		p50, tv, perCPUS, setupS)
	wp50, wpct, wtv := percentiles(wallLat)
	fmt.Fprintf(out, "  wall clock: verify_p50_ms %.4f, verify_tail_ms %.4f (p%g), verifications_per_s %.2f\n",
		wp50, wtv, wpct, float64(len(ops))/(sum(wallLat)/1000))
	fmt.Fprintf(out, "  failed_frac %.6f (%d of %d runs)\n", float64(t.nFail)/float64(n), t.nFail, n)
	fmt.Fprintf(out, "  wrong_verdicts %d\n", orc.count)
	fmt.Fprintf(out, "  unbounded_proofs %d of %d runs\n", t.proved, n)
	fmt.Fprintf(out, "  peak_rss_mb %.1f\n", peakRSSMB())
	reportChecks(out, orc, tie, t.failed)
	return result{Correct: orc.count == 0, Attempted: n, Failed: t.nFail, Metrics: m}
}

// traced runs every op of one pass untraced and then traced, and reports
// the per-layer metrics.
func traced(w workload, seed int64, out io.Writer) result {
	ops, _ := setup(w, seed, nil)
	r := w.newRunner(ops, seed)
	g := newGoCounters()
	orc := newOracle()
	var tie *baselineTie
	if w.baseline {
		tie = newBaselineTie()
	}

	// Each op runs untraced, then traced, so both sides see the same heap
	// and cache state; the untraced side's allocation and GC counters are
	// read around its own calls only.
	plain, tracedT := newTally(len(ops)), newTally(len(ops))
	var plainWall, tracedWall time.Duration
	var allocs, gcs uint64
	tr := newTracer()
	for i, p := range ops {
		a0, c0 := g.read()
		o := measure(r, i)
		plainWall += o.wall
		a1, c1 := g.read()
		allocs += a1 - a0
		gcs += c1 - c0
		orc.check(p, o)
		tie.check(p, o, seed)
		plain.add(i, p, o)

		start := time.Now()
		o = r.traced(i, tr)
		o.wall = time.Since(start)
		tracedWall += o.wall
		orc.check(p, o)
		tracedT.add(i, p, o)
	}

	// Fidelity: the traced pass must reproduce every verdict and every
	// op's search work.
	var diverged []string
	for i, p := range ops {
		a, b := plain.outs[i], tracedT.outs[i]
		if a.status != b.status || a.proved != b.proved || a.work != b.work || a.fail != b.fail {
			diverged = append(diverged, fmt.Sprintf("%s: untraced %s work %d, traced %s work %d",
				p.id(), verdictName(a), a.work, verdictName(b), b.work))
		}
	}

	var plainOps, encodeT, solveT time.Duration
	for _, o := range plain.outs {
		plainOps += o.wall
		encodeT += o.encode
		solveT += o.solve
	}
	// Harness self time: untraced op time outside the phases the entry
	// point times itself (encode, solve) and outside the traced spans of
	// the layers it does not time (rely-guarantee proof, unrolling,
	// decision-order construction).
	harnessSelf := plainOps - encodeT - solveT - tr.wall[layerRG] - tr.wall[layerUnroll] - tr.wall[layerClassify]
	var incEncode, incSolve time.Duration
	if _, ok := r.(*sweepRunner); ok {
		incEncode, incSolve = encodeT, solveT
	}
	solveSecs := tr.wall[layerSolve].Seconds()
	propsPerS := 0.0
	if solveSecs > 0 {
		propsPerS = float64(tr.stats.Propagations) / solveSecs
	}
	shared, mismatched := 0, 0
	if tie != nil {
		shared, mismatched = len(tie.checked), len(tie.mismatch)
	}
	m := map[string]metric{
		"cprog.unroll_ms":           {ms(tr.wall[layerUnroll]), "ms"},
		"rg.prove_ms":               {ms(tr.wall[layerRG]), "ms"},
		"rg.prove_tail_ms":          {tr.proveTail(), "ms"},
		"rg.proved":                 {float64(tr.rgProved), "count"},
		"rg.prefilter_skipped":      {float64(tr.rgSkipped), "count"},
		"rg.alloc_mb":               {mb(tr.alloc[layerRG]), "MB"},
		"encode.ms":                 {ms(tr.wall[layerEncode]), "ms"},
		"encode.alloc_mb":           {mb(tr.alloc[layerEncode]), "MB"},
		"encode.vars":               {float64(tr.vars), "count"},
		"encode.clauses":            {float64(tr.clauses), "count"},
		"encode.interference_vars":  {float64(tr.interference), "count"},
		"encode.mhb_elided":         {float64(tr.mhbElided), "count"},
		"core.classify_ms":          {ms(tr.wall[layerClassify]), "ms"},
		"core.zpre_work_ratio":      {zpreWorkRatio(ops, plain.outs), "ratio"},
		"solve.ms":                  {ms(tr.wall[layerSolve]), "ms"},
		"solve.alloc_mb":            {mb(tr.alloc[layerSolve]), "MB"},
		"solve.bcp_ms":              {ms(tr.timings.BCP), "ms"},
		"solve.theory_ms":           {ms(tr.timings.Theory), "ms"},
		"solve.analyze_ms":          {ms(tr.timings.Analyze), "ms"},
		"solve.reduce_ms":           {ms(tr.timings.Reduce), "ms"},
		"solve.inprocess_ms":        {ms(tr.timings.Inprocess), "ms"},
		"sat.search_work":           {float64(tr.stats.Decisions + tr.stats.Conflicts), "count"},
		"sat.propagations":          {float64(tr.stats.Propagations), "count"},
		"sat.props_per_s":           {propsPerS, "1/s"},
		"sat.learnt_clauses":        {float64(tr.stats.LearntClauses), "count"},
		"order.conflicts":           {float64(tr.orderConfl), "count"},
		"incremental.extend_ms":     {ms(incEncode), "ms"},
		"incremental.solve_ms":      {ms(incSolve), "ms"},
		"harness.self_ms":           {ms(harnessSelf), "ms"},
		"go.alloc_mb":               {mb(allocs), "MB"},
		"go.gc_cycles":              {float64(gcs), "count"},
		"go.peak_rss_mb":            {peakRSSMB(), "MB"},
		"trace.overhead_ms":         {ms(tracedWall - plainWall), "ms"},
		"baseline.shared_ops":       {float64(shared), "count"},
		"baseline.work_mismatches":  {float64(mismatched), "count"},
		"trace.fidelity_mismatches": {float64(len(diverged)), "count"},
	}

	p50, pct, tv := percentiles(plain.wall)
	cp50, cpct, ctv := percentiles(plain.cpu)
	n := len(ops)
	fmt.Fprintf(out, "workload %s seed %d: one pass of %d ops, each run untraced (%.2f s in all) then traced (%.2f s)\n",
		w.name, seed, n, plainWall.Seconds(), tracedWall.Seconds())
	fmt.Fprintf(out, "  end to end (untraced pass): verify_cpu_p50_ms %.4f, verify_cpu_tail_ms %.4f (p%g of %d ops); wall clock verify_p50_ms %.4f, verify_tail_ms %.4f (p%g), verifications_per_s %.2f; failed_frac %.6f, wrong_verdicts %d, unbounded_proofs %d\n",
		cp50, ctv, cpct, n, p50, tv, pct, float64(n)/plainWall.Seconds(), float64(plain.nFail)/float64(n), orc.count, plain.proved)
	printWhereTimeGoes(out, tr, plainOps, harnessSelf)
	fmt.Fprintf(out, "  tracing overhead: %.1f ms (traced %.1f ms - untraced %.1f ms)\n",
		ms(tracedWall-plainWall), ms(tracedWall), ms(plainWall))
	fmt.Fprintf(out, "  the entry point's own split of the untraced pass: encode %.1f ms, solve %.1f ms\n", ms(encodeT), ms(solveT))
	printMetrics(out, m)
	for _, d := range diverged {
		fmt.Fprintf(out, "  traced pass diverged: %s\n", d)
	}
	reportChecks(out, orc, tie, plain.failed)
	return result{
		Correct:   orc.count == 0 && len(diverged) == 0,
		Attempted: 2 * n,
		Failed:    plain.nFail + tracedT.nFail,
		Metrics:   m,
	}
}

// zpreWorkRatio is zpre's search work over baseline's on the tasks both
// decided (the paper's Table 2 effect); 0 when the workload runs no
// baseline.
func zpreWorkRatio(ops []op, outs []outcome) float64 {
	type pair struct {
		base, zpre       uint64
		hasBase, hasZPRE bool
	}
	byTask := map[string]*pair{}
	for i, p := range ops {
		if outs[i].status == sat.Unknown {
			continue
		}
		pr := byTask[p.task.ID()]
		if pr == nil {
			pr = &pair{}
			byTask[p.task.ID()] = pr
		}
		switch p.strat {
		case core.Baseline:
			pr.base, pr.hasBase = outs[i].work, true
		case core.ZPRE:
			pr.zpre, pr.hasZPRE = outs[i].work, true
		}
	}
	var base, zp uint64
	for _, pr := range byTask {
		if pr.hasBase && pr.hasZPRE {
			base += pr.base
			zp += pr.zpre
		}
	}
	if base == 0 {
		return 0
	}
	return float64(zp) / float64(base)
}

// printWhereTimeGoes prints each layer's traced self time, its share of the
// untraced op time and its allocation.
func printWhereTimeGoes(out io.Writer, tr *tracer, plainOps, harnessSelf time.Duration) {
	total := ms(plainOps)
	row := func(name string, self float64, alloc string) {
		share := 0.0
		if total > 0 {
			share = 100 * self / total
		}
		fmt.Fprintf(out, "  %-16s %12.2f %7.1f%% %10s\n", name, self, share, alloc)
	}
	fmt.Fprintf(out, "  where the time goes (self time over the untraced pass, %.1f ms):\n", total)
	fmt.Fprintf(out, "  %-16s %12s %8s %10s\n", "layer", "self ms", "share", "alloc MB")
	var children time.Duration
	for _, c := range tr.solvePhases() {
		children += c.d
	}
	for l := layer(0); l < nLayers; l++ {
		self := tr.wall[l]
		if l == layerSolve {
			self -= children
		}
		row(layerNames[l], ms(self), fmt.Sprintf("%.2f", mb(tr.alloc[l])))
		if l == layerSolve {
			for _, c := range tr.solvePhases() {
				row(c.name, ms(c.d), "-")
			}
		}
	}
	row("harness", ms(harnessSelf), "-")
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-26s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
}

// reportChecks lists wrong verdicts, baseline mismatches and failed ops.
func reportChecks(out io.Writer, orc *oracle, tie *baselineTie, failed map[string]string) {
	for _, id := range sortedKeys(orc.wrong) {
		fmt.Fprintf(out, "  WRONG VERDICT %s: %s\n", id, orc.wrong[id])
	}
	if tie != nil {
		fmt.Fprintf(out, "  BENCH_pr10.json tie: %d shared ops checked, %d mismatches\n", len(tie.checked), len(tie.mismatch))
		for _, id := range sortedKeys(tie.mismatch) {
			fmt.Fprintf(out, "  baseline mismatch %s: %s\n", id, tie.mismatch[id])
		}
	}
	for _, id := range sortedKeys(failed) {
		fmt.Fprintf(out, "  failed op %s: %s\n", id, failed[id])
	}
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
