// Package telemetry is the search observability layer: structured DPLL(T)
// trace events, phase timing spans, and an atomic metrics registry.
//
// A SolverTracer implements sat.Tracer and serialises the search as a JSONL
// event stream through a Sink. Every event kind fires exactly as often as
// the matching sat.Stats counter is incremented, so the stream can be
// replayed into end-of-run counters and cross-checked against the solver
// (cmd/tracereport does exactly that). High-volume kinds (Boolean and
// theory propagations) are run-length coalesced into batch events carrying
// a count, which keeps traces compact without losing exactness. A sampling
// mode (TracerOptions.Every = N) additionally records only every Nth
// decision/conflict event while keeping all counts exact in the final
// summary record.
//
// Tracing is zero-cost when disabled: a nil sat.Solver.Tracer costs one
// predictable branch per event site and no allocation.
package telemetry

import "zpre/internal/sat"

// Event kinds, stored in Event.Kind ("k" in the JSONL form).
const (
	// KindMeta opens a trace: task/strategy/model identification and the
	// sampling rate.
	KindMeta = "meta"
	// KindDecision is one solver decision.
	KindDecision = "dec"
	// KindProp is a run-length batch of Boolean unit propagations.
	KindProp = "prop"
	// KindTheoryProp is a run-length batch of theory propagations.
	KindTheoryProp = "tprop"
	// KindConflict is one conflict, after analysis.
	KindConflict = "confl"
	// KindTheoryConflict is one inconsistency reported by the theory.
	KindTheoryConflict = "tconfl"
	// KindRestart is one restart.
	KindRestart = "restart"
	// KindReduce is one learnt-clause database reduction.
	KindReduce = "reduce"
	// KindInprocess is one inprocessing round (subsumption/strengthening).
	KindInprocess = "inproc"
	// KindSpan is one node of the run's span tree (run, rg.prove, unroll,
	// encode, solve, the in-solve split, check).
	KindSpan = "span"
	// KindSummary closes a trace: exact event counts and the solver's
	// Stats delta for the traced solve.
	KindSummary = "summary"
)

// TraceVersion is the schema version written into the opening meta event.
// Version 2 traces carry a run id in the meta record and hierarchical span
// events (id, parent, start offset), from which the span tree is rebuilt.
// An older trace without the version field still parses and cross-checks;
// its flat span events have no tree position and are not rendered.
const TraceVersion = 2

// Event is one JSONL trace record. Fields are populated per kind; unused
// fields are omitted from the serialised form.
type Event struct {
	Seq  uint64 `json:"seq,omitempty"`
	Kind string `json:"k"`
	// TNS is nanoseconds elapsed since the trace began (decision, conflict
	// and span events only — the clock is not read on batched kinds).
	TNS int64 `json:"t,omitempty"`

	// Meta fields. Version is the trace schema version (TraceVersion); Run
	// is the stable run id
	// (subcategory/benchmark@model/k<bound>/strategy) that joins this trace
	// to metric labels, slog lines and the live /runs surface.
	Task     string `json:"task,omitempty"`
	Strategy string `json:"strategy,omitempty"`
	Model    string `json:"model,omitempty"`
	Every    int    `json:"sample,omitempty"`
	Version  int    `json:"ver,omitempty"`
	Run      string `json:"run,omitempty"`

	// Decision fields. Idx is the 1-based decision ordinal (exact even
	// under sampling), Class the variable class (rf-external, rf-internal,
	// ws, ord, ssa, guard), Source the mechanism that chose the literal
	// (decider, vsids, assumption).
	Idx    uint64 `json:"i,omitempty"`
	Var    int32  `json:"v,omitempty"`
	Neg    bool   `json:"neg,omitempty"`
	Class  string `json:"c,omitempty"`
	Level  int    `json:"lvl,omitempty"`
	Source string `json:"src,omitempty"`

	// Batch count (prop/tprop) or cumulative count (restart).
	N uint64 `json:"n,omitempty"`

	// Conflict fields: learnt clause size and LBD, the level the conflict
	// occurred at (Level above) and the backjump target. Theory marks
	// theory-raised conflicts. Size doubles as the conflict-clause size on
	// tconfl events.
	Size     int   `json:"size,omitempty"`
	LBD      int32 `json:"lbd,omitempty"`
	Backjump int   `json:"bj,omitempty"`
	Theory   bool  `json:"th,omitempty"`

	// Reduce fields.
	Kept    int `json:"kept,omitempty"`
	Deleted int `json:"del,omitempty"`

	// Inprocess fields: clauses subsumed and strengthened in the round.
	Subsumed     int `json:"sub,omitempty"`
	Strengthened int `json:"str,omitempty"`

	// Span fields: the span's name and duration, its per-trace span ID,
	// the parent span's ID (0 = root) and its start offset from the trace
	// origin, so the reader can rebuild the span tree exactly.
	Name    string `json:"name,omitempty"`
	DurNS   int64  `json:"dur_ns,omitempty"`
	SpanID  int    `json:"sid,omitempty"`
	ParID   int    `json:"par,omitempty"`
	StartNS int64  `json:"start_ns,omitempty"`

	// Summary fields.
	Counts *Counts    `json:"counts,omitempty"`
	Stats  *sat.Stats `json:"stats,omitempty"`
}

// Counts are exact per-kind event totals, maintained by the tracer
// independently of sampling.
type Counts struct {
	Decisions     uint64            `json:"decisions"`
	Propagations  uint64            `json:"propagations"`
	TheoryProps   uint64            `json:"theory_propagations"`
	Conflicts     uint64            `json:"conflicts"`
	TheoryConfl   uint64            `json:"theory_conflicts"`
	Restarts      uint64            `json:"restarts"`
	Reductions    uint64            `json:"reductions"`
	Inprocessings uint64            `json:"inprocessings,omitempty"`
	Subsumed      uint64            `json:"subsumed,omitempty"`
	Strengthened  uint64            `json:"strengthened,omitempty"`
	ByClass       map[string]uint64 `json:"decisions_by_class,omitempty"`
	BySource      map[string]uint64 `json:"decisions_by_source,omitempty"`
}
