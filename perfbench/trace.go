package main

import (
	"time"

	"zpre/internal/encode"
	"zpre/internal/rg"
	"zpre/internal/sat"
)

// layer names a span the traced pass records around one layer call.
type layer int

const (
	layerRG layer = iota
	layerUnroll
	layerEncode
	layerClassify
	layerSolve
	nLayers
)

var layerNames = [nLayers]string{"rg.prove", "cprog.unroll", "encode", "core.classify", "solve"}

// span is an open span: its start time and the heap-allocation counter.
type span struct {
	at    time.Time
	alloc uint64
}

// tracer keeps the traced pass's spans and layer counters in memory.
type tracer struct {
	g     *goCounters
	wall  [nLayers]time.Duration
	alloc [nLayers]uint64

	rgProve   []float64 // ms per proof attempt
	rgProved  int
	rgSkipped int

	vars, clauses, interference, mhbElided uint64

	timings    sat.SearchTimings
	stats      sat.Stats
	orderConfl uint64
}

func newTracer() *tracer { return &tracer{g: newGoCounters()} }

// begin opens a span. The counter is read before the clock so the read
// stays outside the span.
func (t *tracer) begin() span {
	a, _ := t.g.read()
	return span{at: time.Now(), alloc: a}
}

// end closes a span on layer l and returns its duration.
func (t *tracer) end(l layer, s span) time.Duration {
	d := time.Since(s.at)
	a, _ := t.g.read()
	t.wall[l] += d
	t.alloc[l] += a - s.alloc
	return d
}

func (t *tracer) proof(r *rg.Result, d time.Duration) {
	t.rgProve = append(t.rgProve, ms(d))
	if r.Proved {
		t.rgProved++
	}
	if r.SkippedPrefilter {
		t.rgSkipped++
	}
}

// formula records the size of the formula an op solves. Elided counts the
// interference candidates dropped before solving; with MHB the only pass
// enabled, every prune counter is the closure engine's.
func (t *tracer) formula(s encode.Stats) {
	t.vars += uint64(s.Variables)
	t.clauses += uint64(s.Clauses)
	t.interference += uint64(s.RFVars + s.WSVars)
	t.mhbElided += uint64(s.RFPruned + s.WSPruned + s.ValuePruned + s.RelPruned + s.MHBPruned)
}

// search records one solve call's counters and in-solve phase split.
func (t *tracer) search(s sat.Stats, tm sat.SearchTimings, orderConfl uint64) {
	t.stats.Add(s)
	t.timings.Add(tm)
	t.orderConfl += orderConfl
}

// phase is one part of the in-solve time split.
type phase struct {
	name string
	d    time.Duration
}

// solvePhases is the in-solve time split the solver reports, in table
// order.
func (t *tracer) solvePhases() []phase {
	return []phase{
		{"solve.bcp", t.timings.BCP},
		{"solve.theory", t.timings.Theory},
		{"solve.analyze", t.timings.Analyze},
		{"solve.reduce", t.timings.Reduce},
		{"solve.inprocess", t.timings.Inprocess},
	}
}

func (t *tracer) proveTail() float64 {
	_, _, v := percentiles(t.rgProve)
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }
