package smt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"zpre/internal/sat"
)

// evalUnderModel solves with the given input bits pinned and returns the
// model value of out. The builder must be freshly constructed per call.
func forceAndSolve(t *testing.T, bd *Builder, pins map[Bool]bool, outs ...Bool) []bool {
	t.Helper()
	for b, v := range pins {
		if v {
			bd.Assert(b)
		} else {
			bd.Assert(bd.Not(b))
		}
	}
	res, err := bd.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("pinned circuit must be sat, got %v", res.Status)
	}
	vals := make([]bool, len(outs))
	for i, o := range outs {
		vals[i] = bd.Value(o)
	}
	return vals
}

func TestGateTruthTables(t *testing.T) {
	for a := 0; a < 2; a++ {
		for b := 0; b < 2; b++ {
			for c := 0; c < 2; c++ {
				bd := NewBuilder()
				x, y, z := bd.NewBool(), bd.NewBool(), bd.NewBool()
				and := bd.And(x, y)
				or := bd.Or(x, y)
				xor := bd.Xor(x, y)
				iff := bd.Iff(x, y)
				imp := bd.Implies(x, y)
				ite := bd.IteBool(x, y, z)
				pins := map[Bool]bool{x: a == 1, y: b == 1, z: c == 1}
				got := forceAndSolve(t, bd, pins, and, or, xor, iff, imp, ite)
				av, bv, cv := a == 1, b == 1, c == 1
				want := []bool{av && bv, av || bv, av != bv, av == bv, !av || bv, (av && bv) || (!av && cv)}
				for i, w := range want {
					if got[i] != w {
						t.Fatalf("gate %d wrong for a=%v b=%v c=%v: got %v want %v", i, av, bv, cv, got[i], w)
					}
				}
			}
		}
	}
}

func TestGateConstantFolding(t *testing.T) {
	bd := NewBuilder()
	x := bd.NewBool()
	if bd.And(bd.True(), x) != x {
		t.Error("And(true,x) != x")
	}
	if bd.And(bd.False(), x).Lit() != bd.False().Lit() {
		t.Error("And(false,x) != false")
	}
	if bd.Or(bd.False(), x) != x {
		t.Error("Or(false,x) != x")
	}
	if bd.Xor(bd.False(), x) != x {
		t.Error("Xor(false,x) != x")
	}
	if bd.Xor(bd.True(), x).Lit() != x.Lit().Neg() {
		t.Error("Xor(true,x) != ~x")
	}
	if bd.And(x, x) != x {
		t.Error("And(x,x) != x")
	}
	if bd.And(x, bd.Not(x)).Lit() != bd.False().Lit() {
		t.Error("And(x,~x) != false")
	}
	// Structural hashing: identical gates share one variable.
	y := bd.NewBool()
	g1 := bd.And(x, y)
	g2 := bd.And(y, x)
	if g1 != g2 {
		t.Error("And not canonicalised for commutativity")
	}
	x1 := bd.Xor(x, y)
	x2 := bd.Xor(bd.Not(x), y)
	if x1.Lit() != x2.Lit().Neg() {
		t.Error("Xor sign canonicalisation broken")
	}
}

// TestQuickBVArithmetic: constant-input bit-vector circuits must agree with
// native Go arithmetic for every operation, via constant folding alone (no
// solving needed: constant bits fold to the constant literal).
func TestQuickBVArithmetic(t *testing.T) {
	const w = 8
	mask := uint64(1)<<w - 1
	f := func(a, b uint8) bool {
		bd := NewBuilder()
		av := bd.BVConst(uint64(a), w)
		bv := bd.BVConst(uint64(b), w)
		cases := []struct {
			got  BV
			want uint64
		}{
			{bd.BVAdd(av, bv), (uint64(a) + uint64(b)) & mask},
			{bd.BVSub(av, bv), (uint64(a) - uint64(b)) & mask},
			{bd.BVMul(av, bv), (uint64(a) * uint64(b)) & mask},
			{bd.BVAnd(av, bv), uint64(a & b)},
			{bd.BVOr(av, bv), uint64(a | b)},
			{bd.BVXor(av, bv), uint64(a ^ b)},
			{bd.BVNot(av), uint64(^a)},
			{bd.BVNeg(av), uint64(-a) & mask},
			{bd.BVShlConst(av, 3), uint64(a<<3) & mask},
			{bd.BVLshrConst(av, 3), uint64(a >> 3)},
		}
		for _, c := range cases {
			if constBVValue(bd, c.got) != c.want {
				return false
			}
		}
		boolCases := []struct {
			got  Bool
			want bool
		}{
			{bd.BVEq(av, bv), a == b},
			{bd.BVUlt(av, bv), a < b},
			{bd.BVUle(av, bv), a <= b},
			{bd.BVSlt(av, bv), int8(a) < int8(b)},
			{bd.BVSle(av, bv), int8(a) <= int8(b)},
			{bd.BVIsZero(av), a == 0},
		}
		trueLit := bd.True().Lit()
		for _, c := range boolCases {
			if (c.got.Lit() == trueLit) != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// constBVValue reads a fully-constant BV (every bit the true/false literal).
func constBVValue(bd *Builder, v BV) uint64 {
	trueLit := bd.True().Lit()
	falseLit := bd.False().Lit()
	var out uint64
	for i := 0; i < v.Width(); i++ {
		switch v.Bit(i).Lit() {
		case trueLit:
			out |= 1 << uint(i)
		case falseLit:
		default:
			panic("not constant")
		}
	}
	return out
}

// TestBVSolverArithmetic checks the circuits through the solver: assert
// x + y = c for free x, y and verify the model.
func TestBVSolverArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const w = 8
	for i := 0; i < 50; i++ {
		bd := NewBuilder()
		x := bd.NewBV(w)
		y := bd.NewBV(w)
		sum := uint64(rng.Intn(256))
		prod := uint64(rng.Intn(256))
		bd.Assert(bd.BVEq(bd.BVAdd(x, y), bd.BVConst(sum, w)))
		bd.Assert(bd.BVEq(bd.BVMul(x, y), bd.BVConst(prod, w)))
		res, err := bd.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == sat.Sat {
			xv, yv := bd.BVValue(x), bd.BVValue(y)
			if (xv+yv)&0xff != sum {
				t.Fatalf("model %d+%d != %d", xv, yv, sum)
			}
			if (xv*yv)&0xff != prod {
				t.Fatalf("model %d*%d != %d", xv, yv, prod)
			}
		} else {
			// Verify genuinely unsat by brute force.
			ok := false
			for a := uint64(0); a < 256 && !ok; a++ {
				for b := uint64(0); b < 256; b++ {
					if (a+b)&0xff == sum && (a*b)&0xff == prod {
						ok = true
						break
					}
				}
			}
			if ok {
				t.Fatalf("solver said unsat but (%d,%d) solvable", sum, prod)
			}
		}
	}
}

func TestBVIteAndExtend(t *testing.T) {
	bd := NewBuilder()
	c := bd.NewBool()
	a := bd.BVConst(0x0f, 8)
	b := bd.BVConst(0xf0, 8)
	ite := bd.BVIte(c, a, b)
	bd.Assert(c)
	res, _ := bd.Solve(Options{})
	if res.Status != sat.Sat || bd.BVValue(ite) != 0x0f {
		t.Fatalf("ite true branch broken: %v %x", res.Status, bd.BVValue(ite))
	}

	bd2 := NewBuilder()
	v := bd2.BVConst(0x8f, 8)
	if constBVValue(bd2, bd2.BVZeroExt(v, 12)) != 0x08f {
		t.Error("zero extend broken")
	}
	if constBVValue(bd2, bd2.BVSignExt(v, 12)) != 0xf8f {
		t.Error("sign extend broken")
	}
	if constBVValue(bd2, bd2.BVExtract(v, 7, 4)) != 0x8 {
		t.Error("extract broken")
	}
	if constBVValue(bd2, bd2.BoolToBV(bd2.True(), 4)) != 1 {
		t.Error("BoolToBV broken")
	}
}

func TestBeforeInterning(t *testing.T) {
	bd := NewBuilder()
	a := bd.NewEvent("a")
	b := bd.NewEvent("b")
	ab := bd.Before(a, b)
	ba := bd.Before(b, a)
	if ab.Lit() != ba.Lit().Neg() {
		t.Fatal("Before(a,b) must be the negation of Before(b,a)")
	}
	if ab2 := bd.Before(a, b); ab2 != ab {
		t.Fatal("atom not interned")
	}
}

func TestOrderIntegration(t *testing.T) {
	// a<b, b<c asserted; c<a must be unsat.
	bd := NewBuilder()
	a := bd.NewEvent("a")
	b := bd.NewEvent("b")
	c := bd.NewEvent("c")
	bd.Assert(bd.Before(a, b))
	bd.Assert(bd.Before(b, c))
	bd.Assert(bd.Before(c, a))
	res, err := bd.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Unsat {
		t.Fatalf("cyclic orders must be unsat, got %v", res.Status)
	}
}

func TestOrderIntegrationSat(t *testing.T) {
	bd := NewBuilder()
	a := bd.NewEvent("a")
	b := bd.NewEvent("b")
	c := bd.NewEvent("c")
	bd.OrderFixed(a, b)
	x := bd.Before(c, a) // free atom
	_ = x
	res, err := bd.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != sat.Sat {
		t.Fatalf("got %v", res.Status)
	}
	// Model consistency: Before(a,b) fixed implies the atom value for (a,b)
	// reads true.
	if !bd.Value(bd.Before(a, b)) {
		// Before(a,b) may allocate a fresh atom after solving; re-solving is
		// not supported, so only check it didn't panic. (The fixed edge is
		// installed pre-solve; a post-solve atom is unconstrained.)
		t.Skip("atom allocated post-solve is unconstrained by design")
	}
}

func TestFixedCyclicPORejected(t *testing.T) {
	bd := NewBuilder()
	a := bd.NewEvent("a")
	b := bd.NewEvent("b")
	bd.OrderFixed(a, b)
	bd.OrderFixed(b, a)
	_, err := bd.Solve(Options{})
	if err != ErrInconsistentPO {
		t.Fatalf("got %v, want ErrInconsistentPO", err)
	}
}

func TestNamedVars(t *testing.T) {
	bd := NewBuilder()
	rf := bd.NamedBool("rf_1_2_3_4")
	_ = bd.NamedBV("v1_0_x", 4)
	named := bd.NamedVars()
	if named["rf_1_2_3_4"] != rf.Lit().Var() {
		t.Fatal("named bool lost")
	}
	if _, ok := named["v1_0_x.0"]; !ok {
		t.Fatal("named BV bits lost")
	}
	got, ok := bd.BVByName("v1_0_x")
	if !ok || got.Width() != 4 {
		t.Fatal("BVByName broken")
	}
	if _, ok := bd.BoolByName("rf_1_2_3_4"); !ok {
		t.Fatal("BoolByName broken")
	}
	if bd.VarName(rf.Lit().Var()) != "rf_1_2_3_4" {
		t.Fatal("VarName broken")
	}
}

// TestLazyNames checks that typed labels render to the names the rf_/ws_
// scheme spells out, and that the by-name tables, built on first use,
// follow names given afterwards with eager insertion's semantics: a name
// given twice maps to its latest variable, NameVar never renames, and
// ordering atoms have a VarName but no NamedVars entry.
func TestLazyNames(t *testing.T) {
	bd := NewBuilder()
	rf := bd.NamedRF(1, 2, 0, 3)
	ws := bd.NamedWS(1, 0, 2, 1)
	val := bd.NamedBVAt("v", 1, 2, "x", 2)
	e1, e2 := bd.NewThreadEvent(1, 2), bd.NewEvent("join")
	ord := bd.Before(e2, e1)
	for v, want := range map[sat.Var]string{
		rf.Lit().Var():         "rf_1_2_0_3",
		ws.Lit().Var():         "ws_1_0_2_1",
		val.Bit(1).Lit().Var(): "v1_2_x.1",
		ord.Lit().Var():        "ord_t1_2_join",
	} {
		if got := bd.VarName(v); got != want {
			t.Errorf("VarName(%d) = %q, want %q", v, got, want)
		}
	}
	if got := bd.EventName(e1); got != "t1_2" {
		t.Errorf("EventName = %q, want t1_2", got)
	}
	if _, ok := bd.NamedVars()["ord_t1_2_join"]; ok {
		t.Error("ordering atom in NamedVars")
	}

	// Names given after the tables were first built.
	g := bd.And(rf, ws)
	bd.NameGuard(g, 1, 7)
	bd.NameVar(g, "renamed")
	dup := bd.NamedBool("rf_1_2_0_3")
	exit := bd.NamedBVAt("exit_", 1, 0, "x", 2)
	named := bd.NamedVars()
	if named["guard_1_7"] != g.Lit().Var() || bd.VarName(g.Lit().Var()) != "guard_1_7" {
		t.Errorf("guard: NamedVars %d, VarName %q", named["guard_1_7"], bd.VarName(g.Lit().Var()))
	}
	if _, ok := named["renamed"]; ok {
		t.Error("NameVar renamed a named variable")
	}
	if named["rf_1_2_0_3"] != dup.Lit().Var() {
		t.Error("a name given twice does not map to its latest variable")
	}
	if got, ok := bd.BVByName("exit_1_0_x"); !ok || got.Bit(0) != exit.Bit(0) {
		t.Error("BVByName misses a bit-vector named after the first lookup")
	}
	if b, ok := bd.BoolByName("v1_2_x.0"); !ok || b != val.Bit(0) {
		t.Error("BoolByName misses a bit-vector bit")
	}
}

func TestAssertEqPropagation(t *testing.T) {
	bd := NewBuilder()
	x := bd.NewBV(8)
	y := bd.NewBV(8)
	bd.AssertEq(x, y)
	bd.Assert(bd.BVEq(x, bd.BVConst(42, 8)))
	res, _ := bd.Solve(Options{})
	if res.Status != sat.Sat || bd.BVValue(y) != 42 {
		t.Fatalf("AssertEq broken: %v y=%d", res.Status, bd.BVValue(y))
	}
}

func TestMaxConflictsUnknown(t *testing.T) {
	bd := NewBuilder()
	// A moderately hard instance: factorisation-ish constraint.
	x := bd.NewBV(12)
	y := bd.NewBV(12)
	bd.Assert(bd.BVEq(bd.BVMul(x, y), bd.BVConst(3599, 12)))
	bd.Assert(bd.Not(bd.BVEq(x, bd.BVConst(1, 12))))
	bd.Assert(bd.Not(bd.BVEq(y, bd.BVConst(1, 12))))
	res, err := bd.Solve(Options{MaxConflicts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == sat.Unsat {
		t.Fatalf("3599 = 59*61 is satisfiable; got unsat")
	}
}
