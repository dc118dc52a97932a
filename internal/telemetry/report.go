package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// interferenceClass reports whether a decision class string is an
// interference (rf/ws) class.
func interferenceClass(c string) bool {
	return c == "rf-external" || c == "rf-internal" || c == "ws"
}

// FracBucket is one bucket of the interference-decision-fraction series:
// of the decisions with ordinal in [Lo, Hi], Interference were rf/ws.
type FracBucket struct {
	Lo, Hi       uint64
	Decisions    uint64
	Interference uint64
}

// Fraction returns the interference share of the bucket (0 when empty).
func (b FracBucket) Fraction() float64 {
	if b.Decisions == 0 {
		return 0
	}
	return float64(b.Interference) / float64(b.Decisions)
}

// RateBucket is one bucket of the conflict timeline: Conflicts conflicts
// occurred in the [Start, End) slice of solve time.
type RateBucket struct {
	Start, End time.Duration
	Conflicts  uint64
}

// Rate returns conflicts per second in the bucket.
func (b RateBucket) Rate() float64 {
	w := (b.End - b.Start).Seconds()
	if w <= 0 {
		return 0
	}
	return float64(b.Conflicts) / w
}

// Report is the analysis of one solver trace: the paper-style search
// introspection (interference-decision fraction over decision index —
// the Figure 6–8 story — conflict-rate timeline, per-class decision
// histogram) plus the exactness cross-check against the solver's Stats.
type Report struct {
	// Meta is the opening event (nil if the trace lacks one).
	Meta *Event
	// Summary is the closing event with exact counts and solver stats.
	Summary *Event
	// Sampled is true when only every Nth event was recorded (Meta.Every
	// > 1): the bucket series are then estimates, while Summary counts
	// stay exact.
	Sampled bool

	// Replayed are the counts reconstructed purely from the event stream.
	// With sampling off they must equal both Summary.Counts and
	// Summary.Stats exactly.
	Replayed Counts

	// DecisionFraction buckets decisions by ordinal and reports the rf/ws
	// share per bucket.
	DecisionFraction []FracBucket
	// ConflictTimeline buckets conflicts over solve time.
	ConflictTimeline []RateBucket
	// LBDHist counts learnt clauses by LBD (from sampled conflict events).
	LBDHist map[int32]uint64
	// Spans are the phase timings recorded in the trace, in order.
	Spans []Event
}

// AnalyzeTrace builds a Report from a parsed event stream. buckets bounds
// the resolution of the two series (≥1; 20 is a good default).
func AnalyzeTrace(events []Event, buckets int) (*Report, error) {
	if buckets < 1 {
		buckets = 1
	}
	rep := &Report{LBDHist: map[int32]uint64{}}
	var decisions, conflicts []Event
	var lastSeq uint64
	for i := range events {
		ev := &events[i]
		if ev.Seq != 0 {
			if ev.Seq <= lastSeq {
				return nil, fmt.Errorf("telemetry: event seq %d after %d: trace interleaved or truncated", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
		}
		switch ev.Kind {
		case KindMeta:
			rep.Meta = ev
			rep.Sampled = ev.Every > 1
		case KindSummary:
			rep.Summary = ev
		case KindDecision:
			rep.Replayed.Decisions++
			decisions = append(decisions, *ev)
		case KindProp:
			rep.Replayed.Propagations += ev.N
		case KindTheoryProp:
			rep.Replayed.TheoryProps += ev.N
		case KindConflict:
			rep.Replayed.Conflicts++
			conflicts = append(conflicts, *ev)
			if ev.Size > 0 {
				rep.LBDHist[ev.LBD]++
			}
		case KindTheoryConflict:
			rep.Replayed.TheoryConfl++
		case KindRestart:
			rep.Replayed.Restarts++
		case KindReduce:
			rep.Replayed.Reductions++
		case KindInprocess:
			rep.Replayed.Inprocessings++
			rep.Replayed.Subsumed += uint64(ev.Subsumed)
			rep.Replayed.Strengthened += uint64(ev.Strengthened)
		case KindSpan:
			rep.Spans = append(rep.Spans, *ev)
		}
	}
	rep.Replayed.ByClass = map[string]uint64{}
	rep.Replayed.BySource = map[string]uint64{}
	for _, d := range decisions {
		rep.Replayed.ByClass[d.Class]++
		rep.Replayed.BySource[d.Source]++
	}

	// Interference fraction over decision index. Bucket by the exact
	// decision ordinal (Idx), which sampling preserves.
	if n := len(decisions); n > 0 {
		maxIdx := decisions[n-1].Idx
		if maxIdx == 0 {
			maxIdx = uint64(n)
		}
		per := (maxIdx + uint64(buckets) - 1) / uint64(buckets)
		if per == 0 {
			per = 1
		}
		nb := int((maxIdx + per - 1) / per)
		fb := make([]FracBucket, nb)
		for i := range fb {
			fb[i].Lo = uint64(i)*per + 1
			fb[i].Hi = uint64(i+1) * per
		}
		for _, d := range decisions {
			idx := d.Idx
			if idx == 0 {
				continue
			}
			b := int((idx - 1) / per)
			fb[b].Decisions++
			if interferenceClass(d.Class) {
				fb[b].Interference++
			}
		}
		rep.DecisionFraction = fb
	}

	// Conflict-rate timeline over elapsed solve time.
	if n := len(conflicts); n > 0 {
		maxT := conflicts[n-1].TNS
		if maxT <= 0 {
			maxT = 1
		}
		per := (maxT + int64(buckets) - 1) / int64(buckets)
		if per == 0 {
			per = 1
		}
		nb := int((maxT + per - 1) / per)
		rb := make([]RateBucket, nb)
		for i := range rb {
			rb[i].Start = time.Duration(int64(i) * per)
			rb[i].End = time.Duration(int64(i+1) * per)
		}
		for _, c := range conflicts {
			b := int(c.TNS / per)
			if b >= nb {
				b = nb - 1
			}
			rb[b].Conflicts++
		}
		rep.ConflictTimeline = rb
	}
	return rep, nil
}

// CrossCheck verifies that the trace is exact: the summary's counts must
// equal the solver's Stats for the traced solve, and — when sampling was
// off — the counts replayed from the raw event stream must match too. A
// non-nil error means events were lost, duplicated or mis-batched: a
// solver/tracer bug.
func (r *Report) CrossCheck() error {
	if r.Summary == nil || r.Summary.Counts == nil || r.Summary.Stats == nil {
		return fmt.Errorf("telemetry: trace has no summary record (truncated trace?)")
	}
	c, st := r.Summary.Counts, r.Summary.Stats
	mismatch := func(what string, ev, solver uint64) error {
		return fmt.Errorf("telemetry: %s mismatch: trace says %d, solver says %d", what, ev, solver)
	}
	switch {
	case c.Decisions != st.Decisions:
		return mismatch("decisions", c.Decisions, st.Decisions)
	case c.Propagations != st.Propagations:
		return mismatch("propagations", c.Propagations, st.Propagations)
	case c.TheoryProps != st.TheoryProps:
		return mismatch("theory propagations", c.TheoryProps, st.TheoryProps)
	case c.Conflicts != st.Conflicts:
		return mismatch("conflicts", c.Conflicts, st.Conflicts)
	case c.TheoryConfl != st.TheoryConfl:
		return mismatch("theory conflicts", c.TheoryConfl, st.TheoryConfl)
	case c.Restarts != st.Restarts:
		return mismatch("restarts", c.Restarts, st.Restarts)
	case c.Inprocessings != st.Inprocessings:
		return mismatch("inprocessings", c.Inprocessings, st.Inprocessings)
	case c.Subsumed != st.SubsumedCls:
		return mismatch("subsumed clauses", c.Subsumed, st.SubsumedCls)
	case c.Strengthened != st.StrengthenedCls:
		return mismatch("strengthened clauses", c.Strengthened, st.StrengthenedCls)
	}
	if !r.Sampled {
		rp := r.Replayed
		switch {
		case rp.Decisions != c.Decisions:
			return mismatch("replayed decisions", rp.Decisions, c.Decisions)
		case rp.Propagations != c.Propagations:
			return mismatch("replayed propagations", rp.Propagations, c.Propagations)
		case rp.TheoryProps != c.TheoryProps:
			return mismatch("replayed theory propagations", rp.TheoryProps, c.TheoryProps)
		case rp.Conflicts != c.Conflicts:
			return mismatch("replayed conflicts", rp.Conflicts, c.Conflicts)
		case rp.TheoryConfl != c.TheoryConfl:
			return mismatch("replayed theory conflicts", rp.TheoryConfl, c.TheoryConfl)
		case rp.Restarts != c.Restarts:
			return mismatch("replayed restarts", rp.Restarts, c.Restarts)
		case rp.Inprocessings != c.Inprocessings:
			return mismatch("replayed inprocessings", rp.Inprocessings, c.Inprocessings)
		case rp.Subsumed != c.Subsumed:
			return mismatch("replayed subsumed clauses", rp.Subsumed, c.Subsumed)
		case rp.Strengthened != c.Strengthened:
			return mismatch("replayed strengthened clauses", rp.Strengthened, c.Strengthened)
		}
	}
	return nil
}

// FormatHeader renders the trace identification line from the meta event:
// task, strategy, model and sampling rate, plus — on version-2 traces — the
// schema version and the stable run id that joins the trace to metric
// labels, slog lines and the /runs surface. Empty when the trace has no
// meta record.
func (r *Report) FormatHeader() string {
	if r.Meta == nil {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: task=%s strategy=%s model=%s sample=1/%d",
		r.Meta.Task, r.Meta.Strategy, r.Meta.Model, max64(1, int64(r.Meta.Every)))
	if r.Meta.Version > 0 {
		fmt.Fprintf(&b, " ver=%d", r.Meta.Version)
	}
	if r.Meta.Run != "" {
		fmt.Fprintf(&b, " run=%s", r.Meta.Run)
	}
	b.WriteString("\n")
	return b.String()
}

// FormatSpans renders the trace's span tree (sid, par, start_ns) as an
// indented tree with each span's start offset from the run origin. Span
// events without a tree position (an older trace's flat spans) are not
// rendered.
func (r *Report) FormatSpans() string {
	children := map[int][]Event{}
	known := map[int]bool{}
	for _, sp := range r.Spans {
		if sp.SpanID > 0 {
			known[sp.SpanID] = true
		}
	}
	if len(known) == 0 {
		return ""
	}
	for _, sp := range r.Spans {
		if sp.SpanID <= 0 {
			continue
		}
		par := sp.ParID
		// A dangling parent id (truncated trace, or a span whose parent was
		// sampled away) promotes the span to a root rather than dropping it.
		if !known[par] || par == sp.SpanID {
			par = 0
		}
		children[par] = append(children[par], sp)
	}
	for _, kids := range children { //mapiter:ok order restored by per-slice sort below
		sort.Slice(kids, func(i, j int) bool {
			if kids[i].StartNS != kids[j].StartNS {
				return kids[i].StartNS < kids[j].StartNS
			}
			return kids[i].SpanID < kids[j].SpanID
		})
	}
	var b strings.Builder
	b.WriteString("span tree (start offset, duration):\n")
	// visited guards against parent-id cycles in corrupt traces.
	visited := map[int]bool{}
	var render func(id, depth int)
	render = func(id, depth int) {
		for _, sp := range children[id] {
			if visited[sp.SpanID] {
				continue
			}
			visited[sp.SpanID] = true
			fmt.Fprintf(&b, "  %-30s %10v %12v\n",
				strings.Repeat("  ", depth)+sp.Name,
				time.Duration(sp.StartNS).Round(time.Microsecond),
				time.Duration(sp.DurNS).Round(time.Microsecond))
			render(sp.SpanID, depth+1)
		}
	}
	render(0, 0)
	return b.String()
}

// bar renders a proportional ASCII bar of width w for value v in [0, max].
func bar(v, max float64, w int) string {
	if max <= 0 {
		return ""
	}
	n := int(v / max * float64(w))
	if n > w {
		n = w
	}
	return strings.Repeat("#", n)
}

// Format renders the report for terminals.
func (r *Report) Format() string {
	var b strings.Builder
	b.WriteString(r.FormatHeader())
	if r.Summary != nil && r.Summary.Counts != nil {
		c := r.Summary.Counts
		fmt.Fprintf(&b, "totals: %d decisions, %d propagations (%d theory), %d conflicts (%d theory), %d restarts, %d reductions\n",
			c.Decisions, c.Propagations, c.TheoryProps, c.Conflicts, c.TheoryConfl, c.Restarts, c.Reductions)
		if c.Inprocessings > 0 {
			fmt.Fprintf(&b, "inprocessing: %d rounds, %d clauses subsumed, %d strengthened\n",
				c.Inprocessings, c.Subsumed, c.Strengthened)
		}
	}
	if spans := r.FormatSpans(); spans != "" {
		b.WriteString("\n")
		b.WriteString(spans)
	}

	if r.Summary != nil && r.Summary.Counts != nil && len(r.Summary.Counts.ByClass) > 0 {
		b.WriteString("\ndecisions by class:\n")
		classes := make([]string, 0, len(r.Summary.Counts.ByClass))
		var maxN uint64
		for cls, n := range r.Summary.Counts.ByClass {
			classes = append(classes, cls)
			if n > maxN {
				maxN = n
			}
		}
		sort.Strings(classes)
		for _, cls := range classes {
			n := r.Summary.Counts.ByClass[cls]
			fmt.Fprintf(&b, "  %-12s %8d %s\n", cls, n, bar(float64(n), float64(maxN), 40))
		}
		b.WriteString("decisions by source:\n")
		srcs := make([]string, 0, len(r.Summary.Counts.BySource))
		for src := range r.Summary.Counts.BySource {
			srcs = append(srcs, src)
		}
		sort.Strings(srcs)
		for _, src := range srcs {
			fmt.Fprintf(&b, "  %-12s %8d\n", src, r.Summary.Counts.BySource[src])
		}
	}

	if len(r.DecisionFraction) > 0 {
		b.WriteString("\ninterference-decision fraction over decision index (the Fig. 6-8 story):\n")
		for _, fb := range r.DecisionFraction {
			fmt.Fprintf(&b, "  [%6d..%6d] %5.1f%% %s\n",
				fb.Lo, fb.Hi, 100*fb.Fraction(), bar(fb.Fraction(), 1, 40))
		}
	}

	if len(r.ConflictTimeline) > 0 {
		b.WriteString("\nconflict rate over solve time:\n")
		var maxRate float64
		for _, rb := range r.ConflictTimeline {
			if rate := rb.Rate(); rate > maxRate {
				maxRate = rate
			}
		}
		for _, rb := range r.ConflictTimeline {
			fmt.Fprintf(&b, "  [%10v..%10v] %8.0f/s %s\n",
				rb.Start.Round(time.Microsecond), rb.End.Round(time.Microsecond),
				rb.Rate(), bar(rb.Rate(), maxRate, 40))
		}
	}

	if len(r.LBDHist) > 0 {
		b.WriteString("\nlearnt-clause LBD histogram:\n")
		lbds := make([]int32, 0, len(r.LBDHist))
		var maxN uint64
		for lbd, n := range r.LBDHist {
			lbds = append(lbds, lbd)
			if n > maxN {
				maxN = n
			}
		}
		sort.Slice(lbds, func(i, j int) bool { return lbds[i] < lbds[j] })
		for _, lbd := range lbds {
			n := r.LBDHist[lbd]
			fmt.Fprintf(&b, "  lbd=%-4d %8d %s\n", lbd, n, bar(float64(n), float64(maxN), 40))
		}
	}
	return b.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
