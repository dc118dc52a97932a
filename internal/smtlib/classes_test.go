package smtlib_test

import (
	"testing"

	"zpre/internal/core"
	"zpre/internal/cprog"
	"zpre/internal/encode"
	"zpre/internal/memmodel"
	"zpre/internal/smtlib"
	"zpre/internal/svcomp"
)

// TestRoundTripClasses checks the by-name path against the encoder's typed
// one: a VC written to SMT-LIB, parsed back and classified from its names
// (core.Classify) has exactly the interference variables that
// core.ClassifyBuilder reads from the original's labels, with the same
// classes, event coordinates and #write. It covers every corpus program
// under every model at bound 1, plain and with the must-happens-before
// closure.
func TestRoundTripClasses(t *testing.T) {
	type class struct {
		class                                      core.Class
		readThread, readIdx, writeThread, writeIdx int
		numWrites                                  int
	}
	key := func(vi core.VarInfo) class {
		return class{vi.Class, vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx, vi.NumWrites}
	}
	for _, b := range svcomp.All() {
		unrolled := cprog.Unroll(b.Program, 1, cprog.UnwindAssume)
		for _, mm := range memmodel.All() {
			for _, mhb := range []bool{false, true} {
				vc, err := encode.Program(unrolled, encode.Options{Model: mm, Width: 8, MHB: mhb})
				if err != nil {
					t.Fatalf("%s@%v: encode: %v", b.Name, mm, err)
				}
				want := map[string]class{}
				for _, vi := range core.ClassifyBuilder(vc.Builder) {
					if vi.Class.Interference() {
						want[vc.Builder.VarName(vi.Var)] = key(vi)
					}
				}
				parsed, err := smtlib.Parse(smtlib.Write(vc))
				if err != nil {
					t.Fatalf("%s@%v mhb=%v: parse: %v", b.Name, mm, mhb, err)
				}
				got := 0
				for _, vi := range core.Classify(parsed.NamedVars()) {
					if !vi.Class.Interference() {
						continue
					}
					got++
					if w, ok := want[vi.Name]; !ok || key(vi) != w {
						t.Fatalf("%s@%v mhb=%v: %s parsed as %+v, want %+v (present %v)",
							b.Name, mm, mhb, vi.Name, key(vi), w, ok)
					}
				}
				if got != len(want) {
					t.Fatalf("%s@%v mhb=%v: %d interference variables after the round trip, want %d",
						b.Name, mm, mhb, got, len(want))
				}
			}
		}
	}
}
