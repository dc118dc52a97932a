package smt

import (
	"slices"
	"strconv"

	"zpre/internal/sat"
)

// LabelKind says how a variable's name is built from its Label.
type LabelKind uint8

// Label kinds. The interference kinds carry the event coordinates that the
// rf_/ws_ naming scheme spells out, so the decision strategies read them
// without rendering or parsing a name.
const (
	// LabelNone marks an unnamed variable (gates, constants, fresh terms).
	LabelNone LabelKind = iota
	// LabelText is a free-form name; A indexes the builder's text table.
	LabelText
	// LabelBit is bit B of named bit-vector A ("<bv name>.<B>").
	LabelBit
	// LabelRF is rf_A_B_C_D: read (thread A, index B) reads from write
	// (thread C, index D).
	LabelRF
	// LabelWS is ws_A_B_C_D: write (A, B) is serialised before write (C, D).
	LabelWS
	// LabelGuard is guard_A_B: the B-th branch condition, in thread A.
	LabelGuard
	// LabelOrd is the ordering atom ord_<event A>_<event B>, true iff event
	// A happens before event B.
	LabelOrd
)

// Label is the typed name of a SAT variable: a kind plus up to four
// coordinates. Names are rendered from labels only on request (VarName,
// NamedVars, BoolByName), so building a formula never formats a string.
type Label struct {
	Kind       LabelKind
	A, B, C, D int32
}

// name is a bit-vector or event name held in parts: the prefix alone, or —
// when coords is set — the prefix, then a and b joined by an underscore,
// then "_"+suffix when suffix is non-empty ("v1_0_x", "t1_0", "exit_1_2_x").
type name struct {
	prefix, suffix string
	a, b           int32
	coords         bool
}

func (n name) appendTo(buf []byte) []byte {
	buf = append(buf, n.prefix...)
	if !n.coords {
		return buf
	}
	buf = strconv.AppendInt(buf, int64(n.a), 10)
	buf = append(buf, '_')
	buf = strconv.AppendInt(buf, int64(n.b), 10)
	if n.suffix != "" {
		buf = append(buf, '_')
		buf = append(buf, n.suffix...)
	}
	return buf
}

func (n name) String() string {
	if !n.coords {
		return n.prefix
	}
	return string(n.appendTo(make([]byte, 0, 24)))
}

// namedBV is an entry of the builder's bit-vector table.
type namedBV struct {
	name name
	bits BV
}

// Labels returns the label table, indexed by variable. Variables past its
// end are unnamed. The slice is the builder's own and must not be modified.
func (bd *Builder) Labels() []Label { return bd.labels }

// label records the name of variable v. Every name but an ordering atom's
// also enters the name log, which the by-name tables are built from.
func (bd *Builder) label(v sat.Var, l Label) {
	if n := int(v) + 1; n > len(bd.labels) {
		old := len(bd.labels)
		bd.labels = slices.Grow(bd.labels, n-old)[:n]
		clear(bd.labels[old:])
	}
	bd.labels[v] = l
	if l.Kind != LabelOrd {
		bd.nameLog = append(bd.nameLog, v)
	}
}

// named reports whether v already has a name.
func (bd *Builder) named(v sat.Var) bool {
	return int(v) < len(bd.labels) && bd.labels[v].Kind != LabelNone
}

// VarName returns the name of a named variable ("" if unnamed).
func (bd *Builder) VarName(v sat.Var) string {
	if !bd.named(v) {
		return ""
	}
	l := bd.labels[v]
	if l.Kind == LabelText {
		return bd.texts[l.A]
	}
	return string(bd.appendLabel(make([]byte, 0, 32), l))
}

// appendLabel renders a label that is not free-form text.
func (bd *Builder) appendLabel(buf []byte, l Label) []byte {
	switch l.Kind {
	case LabelBit:
		buf = bd.bvs[l.A].name.appendTo(buf)
		buf = append(buf, '.')
		return strconv.AppendInt(buf, int64(l.B), 10)
	case LabelOrd:
		buf = append(buf, "ord_"...)
		buf = bd.events[l.A].appendTo(buf)
		buf = append(buf, '_')
		return bd.events[l.B].appendTo(buf)
	case LabelGuard:
		buf = append(buf, "guard_"...)
		return appendInts(buf, l.A, l.B)
	case LabelRF:
		buf = append(buf, "rf_"...)
	case LabelWS:
		buf = append(buf, "ws_"...)
	}
	return appendInts(buf, l.A, l.B, l.C, l.D)
}

// appendInts appends the integers joined by underscores.
func appendInts(buf []byte, xs ...int32) []byte {
	for i, x := range xs {
		if i > 0 {
			buf = append(buf, '_')
		}
		buf = strconv.AppendInt(buf, int64(x), 10)
	}
	return buf
}

// indexNames brings the by-name tables up to date: it renders every name
// logged since its last call, in naming order, so a name given twice maps
// to its latest variable exactly as eager insertion would.
func (bd *Builder) indexNames() {
	if bd.byName == nil {
		bd.byName = make(map[string]sat.Var, len(bd.nameLog))
		bd.bvByName = make(map[string]BV, len(bd.bvs))
	}
	var buf []byte
	for _, v := range bd.nameLog[bd.indexedNames:] {
		l := bd.labels[v]
		if l.Kind == LabelText {
			bd.byName[bd.texts[l.A]] = v
			continue
		}
		buf = bd.appendLabel(buf[:0], l)
		bd.byName[string(buf)] = v
	}
	bd.indexedNames = len(bd.nameLog)
	for _, nb := range bd.bvs[bd.indexedBVs:] {
		bd.bvByName[nb.name.String()] = nb.bits
	}
	bd.indexedBVs = len(bd.bvs)
}

// NamedVars returns the name → SAT variable table, rendered from the label
// table. Ordering atoms are not in it. It serves the by-name path that
// classifies SMT-LIB input (core.Classify), as the paper's backend does;
// the encoder's own pipeline reads the labels directly (core.ClassifyBuilder).
func (bd *Builder) NamedVars() map[string]sat.Var {
	bd.indexNames()
	out := make(map[string]sat.Var, len(bd.byName))
	for k, v := range bd.byName {
		out[k] = v
	}
	return out
}

// BVByName returns a named bit-vector variable, if declared.
func (bd *Builder) BVByName(name string) (BV, bool) {
	bd.indexNames()
	v, ok := bd.bvByName[name]
	return v, ok
}

// BoolByName returns a named Boolean variable, if declared.
func (bd *Builder) BoolByName(name string) (Bool, bool) {
	bd.indexNames()
	v, ok := bd.byName[name]
	if !ok {
		return Bool{}, false
	}
	return Bool{sat.PosLit(v)}, true
}

// NamedBool introduces a fresh Boolean variable with a free-form name.
func (bd *Builder) NamedBool(name string) Bool {
	b := bd.NewBool()
	bd.label(b.lit.Var(), Label{Kind: LabelText, A: int32(len(bd.texts))})
	bd.texts = append(bd.texts, name)
	return b
}

// NamedRF introduces the read-from variable rf_<rt>_<ri>_<wt>_<wi>: the
// read at index ri of thread rt reads from the write at index wi of thread
// wt.
func (bd *Builder) NamedRF(rt, ri, wt, wi int) Bool {
	return bd.namedInterference(LabelRF, rt, ri, wt, wi)
}

// NamedWS introduces the write-serialisation variable ws_<t1>_<i1>_<t2>_<i2>:
// the write at (t1, i1) is serialised before the write at (t2, i2).
func (bd *Builder) NamedWS(t1, i1, t2, i2 int) Bool {
	return bd.namedInterference(LabelWS, t1, i1, t2, i2)
}

func (bd *Builder) namedInterference(k LabelKind, a, b, c, d int) Bool {
	v := bd.NewBool()
	bd.label(v.lit.Var(), Label{Kind: k, A: int32(a), B: int32(b), C: int32(c), D: int32(d)})
	return v
}

// NameGuard names an existing term's variable guard_<thread>_<n>, tagging a
// branch condition for the control-flow heuristic. Like NameVar it leaves
// constants and already-named variables untouched.
func (bd *Builder) NameGuard(b Bool, thread, n int) {
	v := b.lit.Var()
	if v == bd.trueLit.Var() || bd.named(v) {
		return
	}
	bd.label(v, Label{Kind: LabelGuard, A: int32(thread), B: int32(n)})
}

// NameVar attaches a free-form name to an existing term's variable.
// Constants and already-named variables are left untouched.
func (bd *Builder) NameVar(b Bool, name string) {
	v := b.lit.Var()
	if v == bd.trueLit.Var() || bd.named(v) {
		return
	}
	bd.label(v, Label{Kind: LabelText, A: int32(len(bd.texts))})
	bd.texts = append(bd.texts, name)
}

// NamedBV introduces a fresh bit-vector variable whose per-bit SAT variables
// carry the name (name.0, name.1, ...) for model extraction and debugging.
func (bd *Builder) NamedBV(n string, width int) BV {
	return bd.namedBV(name{prefix: n}, width)
}

// NamedBVAt is NamedBV for the name <prefix><a>_<b>_<suffix> (no trailing
// "_<suffix>" when suffix is empty), which is stored in parts and rendered
// only on request.
func (bd *Builder) NamedBVAt(prefix string, a, b int, suffix string, width int) BV {
	return bd.namedBV(name{prefix: prefix, suffix: suffix, a: int32(a), b: int32(b), coords: true}, width)
}

func (bd *Builder) namedBV(n name, width int) BV {
	idx := int32(len(bd.bvs))
	bits := make([]Bool, width)
	for i := range bits {
		bits[i] = bd.NewBool()
		bd.label(bits[i].lit.Var(), Label{Kind: LabelBit, A: idx, B: int32(i)})
	}
	v := BV{bits}
	bd.bvs = append(bd.bvs, namedBV{name: n, bits: v})
	return v
}

// NewEvent declares a memory-access event (an EOG node) and returns its id.
func (bd *Builder) NewEvent(n string) EventID {
	bd.events = append(bd.events, name{prefix: n})
	return EventID(len(bd.events) - 1)
}

// NewThreadEvent declares the event t<thread>_<idx>: the idx-th memory
// access of the thread.
func (bd *Builder) NewThreadEvent(thread, idx int) EventID {
	bd.events = append(bd.events, name{prefix: "t", a: int32(thread), b: int32(idx), coords: true})
	return EventID(len(bd.events) - 1)
}

// NumEvents returns the number of declared events.
func (bd *Builder) NumEvents() int { return len(bd.events) }

// EventName returns the name of an event.
func (bd *Builder) EventName(e EventID) string { return bd.events[e].String() }
