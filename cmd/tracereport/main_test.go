package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"zpre/internal/sat"
	"zpre/internal/telemetry"
)

// writeV2Trace writes a version-2 trace through the real tracer: meta with
// ver/run, a hierarchical span tree, and a consistent summary record.
func writeV2Trace(t *testing.T, path string) {
	t.Helper()
	sink, err := telemetry.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewSolverTracer(sink, telemetry.TracerOptions{
		Task:     "lit/dekker@sc/k2",
		Strategy: "guided",
		Model:    "sc",
		RunID:    "lit/dekker@sc/k2/guided",
	})
	tr.Decision(sat.PosLit(1), 1, sat.SourceVSIDS)
	tr.Conflict(sat.ConflictInfo{LearntSize: 2, LBD: 1, Level: 1})
	tr.SpanAt("run", 1, 0, 0, 10*time.Millisecond)
	tr.SpanAt("encode", 2, 1, time.Millisecond, 2*time.Millisecond)
	tr.SpanAt("solve", 3, 1, 3*time.Millisecond, 6*time.Millisecond)
	tr.SpanAt("solve.bcp", 4, 3, 3*time.Millisecond, 4*time.Millisecond)
	if err := tr.Close(sat.Stats{Decisions: 1, Conflicts: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRoundTripBothSchemas runs the CLI over a freshly written version-2
// trace, with and without -spans, and over a hand-authored trace of the
// older schema (no version field, flat span records): that one must still
// parse and cross-check.
func TestRoundTripBothSchemas(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.jsonl")
	writeV2Trace(t, v2)

	// The older schema: no "ver", no "run", span events carry only name and
	// dur_ns.
	legacy := filepath.Join(dir, "legacy.jsonl")
	legacyTrace := `{"seq":1,"k":"meta","task":"lit/dekker@sc/k2","strategy":"guided","model":"sc","sample":1}
{"seq":2,"k":"dec","t":100,"i":1,"v":2,"c":"rf-external","lvl":1,"src":"vsids"}
{"seq":3,"k":"confl","t":200,"i":1,"size":2,"lbd":1,"lvl":1}
{"seq":4,"k":"span","t":300,"name":"encode","dur_ns":2000000}
{"seq":5,"k":"span","t":400,"name":"solve","dur_ns":6000000}
{"seq":6,"k":"summary","counts":{"decisions":1,"propagations":0,"theory_propagations":0,"conflicts":1,"theory_conflicts":0,"restarts":0,"reductions":0},"stats":{"Decisions":1,"Conflicts":1}}
`
	if err := os.WriteFile(legacy, []byte(legacyTrace), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, args := range [][]string{
		{v2}, {legacy},
		{"-spans", v2},
		{"-check-only", v2}, {"-check-only", legacy},
		{v2, legacy},
	} {
		if code := run(args); code != 0 {
			t.Errorf("run(%v) = %d, want 0", args, code)
		}
	}
	if code := run(nil); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{filepath.Join(dir, "nope.jsonl")}); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
}

// TestSpanRendering checks the span rendering directly: the tree is
// indented under its parents with start offsets.
func TestSpanRendering(t *testing.T) {
	dir := t.TempDir()
	v2 := filepath.Join(dir, "v2.jsonl")
	writeV2Trace(t, v2)
	events, err := telemetry.ReadTraceFile(v2)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := telemetry.AnalyzeTrace(events, 4)
	if err != nil {
		t.Fatal(err)
	}
	head := rep.FormatHeader()
	if !strings.Contains(head, "ver=2") || !strings.Contains(head, "run=lit/dekker@sc/k2/guided") {
		t.Errorf("v2 header missing ver/run: %q", head)
	}
	spans := rep.FormatSpans()
	if !strings.Contains(spans, "span tree") {
		t.Errorf("v2 spans not rendered as tree:\n%s", spans)
	}
	// solve.bcp is a grandchild: two indent levels under run.
	if !strings.Contains(spans, "    solve.bcp") {
		t.Errorf("solve.bcp not indented under solve:\n%s", spans)
	}
	if !strings.Contains(spans, "3ms") || !strings.Contains(spans, "6ms") {
		t.Errorf("solve start/duration missing:\n%s", spans)
	}
}
