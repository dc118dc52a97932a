// Package core implements the paper's contribution: the interference
// relation-guided decision order for DPLL(T) (§4).
//
// The frontend names every interference variable in a fixed scheme —
// rf_<readThread>_<readIdx>_<writeThread>_<writeIdx> for read-from variables
// and ws_<thread1>_<idx1>_<thread2>_<idx2> for write-serialization variables.
// There are two ways to classify them. The by-name path (Classify over
// smt.Builder.NamedVars, via ParseName) reconstructs the decision order
// purely from those names, exactly as the paper's modified Z3 does (§4.1,
// §5.3); it serves formulas read from SMT-LIB. The encoder's own pipeline
// takes the typed path (ClassifyBuilder): the builder records each
// variable's class and event coordinates in a label when it creates the
// variable, so nothing is rendered or parsed. Both give the same result.
//
// The order is:
//
//	HEURISTIC 1:  interference variables before everything else;
//	              RF variables before WS variables;
//	              external RF (read and write in different threads) before
//	              internal RF;
//	              among RF variables, larger #write (number of candidate
//	              writes of the read event) first.
//
// ZPRE⁻ applies HEURISTIC 1 only; ZPRE applies the full order. When every
// interference variable is assigned, the solver falls back to its default
// VSIDS heuristic (§4.2, Figure 5).
package core

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"zpre/internal/sat"
	"zpre/internal/smt"
)

// Class partitions the Boolean variables of the encoded program (§3.2).
type Class int

// Variable classes. RF variables are split by externality as in §4.1.
const (
	// ClassSSA covers program statements, assignments and guards.
	ClassSSA Class = iota
	// ClassOrd covers ordering atoms clk(a) < clk(b).
	ClassOrd
	// ClassRFExternal covers read-from variables whose read and write events
	// belong to different threads.
	ClassRFExternal
	// ClassRFInternal covers read-from variables within a single thread.
	ClassRFInternal
	// ClassWS covers write-serialization variables.
	ClassWS
	// ClassGuard covers branch-condition variables (used by the
	// control-flow heuristic of the paper's "Other Attempts", §5.2).
	ClassGuard
)

// String renders the class.
func (c Class) String() string {
	switch c {
	case ClassSSA:
		return "ssa"
	case ClassOrd:
		return "ord"
	case ClassRFExternal:
		return "rf-external"
	case ClassRFInternal:
		return "rf-internal"
	case ClassWS:
		return "ws"
	case ClassGuard:
		return "guard"
	}
	return "unknown"
}

// Interference reports whether the class is an interference variable class.
func (c Class) Interference() bool {
	return c == ClassRFExternal || c == ClassRFInternal || c == ClassWS
}

// VarInfo is the classification of one named SAT variable.
type VarInfo struct {
	Var   sat.Var
	Name  string
	Class Class

	// Event-pair fields (valid for RF and WS classes): the two event
	// coordinates encoded in the variable name. For RF variables the first
	// pair is the read and the second the write; for WS variables they are
	// the two writes in encoding order.
	ReadThread, ReadIdx, WriteThread, WriteIdx int

	// NumWrites is #write(v): how many candidate writes the read event of an
	// RF variable may read from (computed by grouping RF variables that share
	// a read event). Zero for non-RF variables.
	NumWrites int
}

// ParseName classifies a variable name. Names that do not match the rf_/ws_
// shape are ordering atoms when prefixed ord_, and SSA variables otherwise.
func ParseName(name string) VarInfo {
	vi := VarInfo{Name: name, Class: ClassSSA}
	switch {
	case strings.HasPrefix(name, "rf_"):
		parts := strings.Split(name, "_")
		if len(parts) != 5 {
			return vi
		}
		nums := make([]int, 4)
		for i := 0; i < 4; i++ {
			n, err := strconv.Atoi(parts[i+1])
			if err != nil {
				return vi
			}
			nums[i] = n
		}
		vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx = nums[0], nums[1], nums[2], nums[3]
		if vi.ReadThread == vi.WriteThread {
			vi.Class = ClassRFInternal
		} else {
			vi.Class = ClassRFExternal
		}
	case strings.HasPrefix(name, "ws_"):
		parts := strings.Split(name, "_")
		if len(parts) != 5 {
			return vi
		}
		nums := make([]int, 4)
		for i := 0; i < 4; i++ {
			n, err := strconv.Atoi(parts[i+1])
			if err != nil {
				return vi
			}
			nums[i] = n
		}
		vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx = nums[0], nums[1], nums[2], nums[3]
		vi.Class = ClassWS
	case strings.HasPrefix(name, "ord_"):
		vi.Class = ClassOrd
	case strings.HasPrefix(name, "guard_"):
		vi.Class = ClassGuard
	}
	return vi
}

// Classify parses every named variable and computes #write for RF variables
// by grouping them on the read event encoded in the name.
func Classify(named map[string]sat.Var) []VarInfo {
	infos := make([]VarInfo, 0, len(named))
	for name, v := range named {
		vi := ParseName(name)
		vi.Var = v
		infos = append(infos, vi)
	}
	countWrites(infos)
	sort.Slice(infos, func(i, j int) bool { return infos[i].Var < infos[j].Var })
	return infos
}

// countWrites sets #write on every RF variable: the number of RF variables
// that share its read event.
func countWrites(infos []VarInfo) {
	isRF := func(c Class) bool { return c == ClassRFExternal || c == ClassRFInternal }
	writeCount := map[[2]int]int{}
	for _, vi := range infos {
		if isRF(vi.Class) {
			writeCount[[2]int{vi.ReadThread, vi.ReadIdx}]++
		}
	}
	for i := range infos {
		if vi := &infos[i]; isRF(vi.Class) {
			vi.NumWrites = writeCount[[2]int{vi.ReadThread, vi.ReadIdx}]
		}
	}
}

// ClassifyBuilder classifies the builder's named variables from their typed
// labels (smt.Label): the event coordinates come from the label, so no name
// is rendered or parsed. Free-form names are classified by ParseName. It
// returns what Classify(bd.NamedVars()) returns — same variables, order,
// classes, coordinates and #write — except that Name is left empty (render
// it with bd.VarName). The two agree whenever no name is given to two
// variables — NamedVars keeps only the later one — which the encoder never
// does.
func ClassifyBuilder(bd *smt.Builder) []VarInfo {
	labels := bd.Labels()
	n := 0
	for _, l := range labels {
		if l.Kind != smt.LabelNone && l.Kind != smt.LabelOrd {
			n++
		}
	}
	infos := make([]VarInfo, 0, n)
	for v, l := range labels {
		vi := VarInfo{Var: sat.Var(v), Class: ClassSSA}
		switch l.Kind {
		case smt.LabelNone, smt.LabelOrd:
			continue
		case smt.LabelText:
			vi = ParseName(bd.VarName(vi.Var))
			vi.Var, vi.Name = sat.Var(v), ""
		case smt.LabelRF, smt.LabelWS:
			vi.ReadThread, vi.ReadIdx, vi.WriteThread, vi.WriteIdx = int(l.A), int(l.B), int(l.C), int(l.D)
			switch {
			case l.Kind == smt.LabelWS:
				vi.Class = ClassWS
			case l.A == l.C:
				vi.Class = ClassRFInternal
			default:
				vi.Class = ClassRFExternal
			}
		case smt.LabelGuard:
			vi.Class = ClassGuard
		}
		infos = append(infos, vi)
	}
	countWrites(infos)
	return infos
}

// TraceClasses maps each classified variable, and each of the builder's
// ordering atoms, to its class string — the form the telemetry layer stamps
// on decision trace events. Ordering atoms are not named variables, so the
// decision order never sees them, but a trace counts their decisions as ord
// rather than anonymous.
func TraceClasses(bd *smt.Builder, infos []VarInfo) map[sat.Var]string {
	atoms := bd.OrderAtoms()
	out := make(map[sat.Var]string, len(infos)+len(atoms))
	for _, vi := range infos {
		out[vi.Var] = vi.Class.String()
	}
	for _, a := range atoms {
		out[a.Var] = ClassOrd.String()
	}
	return out
}

// PriorTo is the paper's prior_to(v1, v2) algorithm (§4.1): it returns true
// when v1 must be decided before v2. Both arguments are expected to be
// interference variables; for other inputs it returns false.
func PriorTo(v1, v2 VarInfo) bool {
	isRF := func(c Class) bool { return c == ClassRFExternal || c == ClassRFInternal }
	switch {
	case isRF(v1.Class) && v2.Class == ClassWS:
		return true
	case v1.Class == ClassRFExternal && v2.Class == ClassRFInternal:
		return true
	case isRF(v1.Class) && isRF(v2.Class) && v1.Class == v2.Class:
		return v1.NumWrites > v2.NumWrites
	default:
		return false
	}
}

// Strategy selects a decision order.
type Strategy int

// Strategies evaluated by the paper (Table 3).
const (
	// Baseline is the solver's default order (VSIDS + phase saving); the
	// paper's "Z3".
	Baseline Strategy = iota
	// ZPREMinus prioritises interference variables without ranking them
	// (HEURISTIC 1 only).
	ZPREMinus
	// ZPRE applies the full interference decision order.
	ZPRE
	// BranchFirst prioritises branch-condition variables (Chen & He 2018's
	// control-flow heuristic, evaluated in the paper's "Other Attempts":
	// little effect on ConcurrencySafety, where branches are scarce).
	BranchFirst
	// ZPREBranch combines ZPRE's interference order with the branch
	// heuristic as a tie-breaking tail.
	ZPREBranch
	// ZPREStatic extends ZPRE with static conflict scores from the
	// lockset/MHP pre-analysis (internal/analysis): within each class,
	// variables over potentially racy event pairs are decided first, with
	// the paper's #write ranking as the remaining tie-break. Requires
	// Config.Score; without it the order degenerates to ZPRE.
	ZPREStatic
)

// String renders the strategy.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "baseline"
	case ZPREMinus:
		return "zpre-"
	case ZPRE:
		return "zpre"
	case BranchFirst:
		return "branch"
	case ZPREBranch:
		return "zpre+branch"
	case ZPREStatic:
		return "zpre+static"
	}
	return "unknown"
}

// ParseStrategy converts a command-line name to a Strategy.
func ParseStrategy(name string) (Strategy, bool) {
	switch name {
	case "baseline", "z3", "default":
		return Baseline, true
	case "zpre-", "zpreminus", "partial":
		return ZPREMinus, true
	case "zpre", "all":
		return ZPRE, true
	case "branch", "cfg":
		return BranchFirst, true
	case "zpre+branch", "zprebranch":
		return ZPREBranch, true
	case "zpre+static", "zprestatic", "static":
		return ZPREStatic, true
	}
	return Baseline, false
}

// PolarityMode selects how the strategy assigns a value to a decided
// interference variable.
type PolarityMode int

// Polarity modes. The paper assigns a random value (§4.2); PolarityTrue is an
// ablation.
const (
	PolarityRandom PolarityMode = iota
	PolarityTrue
	PolarityFalse
)

// Decider is the enhanced decide() procedure (Figure 5): it serves unassigned
// interference variables in the decision order and defers to the solver's
// default heuristic once they are exhausted. It implements sat.Decider.
type Decider struct {
	order    []sat.Var // interference variables, highest priority first
	cursor   int
	rng      *rand.Rand
	polarity PolarityMode
}

// Config customises NewDecider.
type Config struct {
	// Seed drives the random polarity choice. Runs with the same seed are
	// deterministic.
	Seed int64
	// Polarity selects the value assigned at each interference decision.
	Polarity PolarityMode
	// DisableNumWrites drops the #write ranking from ZPRE (ablation).
	DisableNumWrites bool
	// Score assigns a static conflict score to an interference variable
	// (higher = decided earlier within its class). Consumed by ZPREStatic;
	// typically analysis.Result.PairScore over the event coordinates. Nil
	// means all scores are zero.
	Score func(VarInfo) int
}

// NewDecider builds the decision strategy for the given classified variables.
// It returns nil for Baseline (the solver's default order is used unchanged).
func NewDecider(strategy Strategy, infos []VarInfo, cfg Config) *Decider {
	if strategy == Baseline {
		return nil
	}
	itf := make([]VarInfo, 0, len(infos))
	guards := make([]VarInfo, 0)
	for _, vi := range infos {
		if vi.Class.Interference() {
			itf = append(itf, vi)
		}
		if vi.Class == ClassGuard {
			guards = append(guards, vi)
		}
	}
	if strategy == ZPRE || strategy == ZPREBranch || strategy == ZPREStatic {
		ranked := make([]VarInfo, len(itf))
		copy(ranked, itf)
		if cfg.DisableNumWrites {
			for i := range ranked {
				ranked[i].NumWrites = 0
			}
		}
		if strategy == ZPREStatic {
			score := func(VarInfo) int { return 0 }
			if cfg.Score != nil {
				score = cfg.Score
			}
			scores := make([]int, len(ranked))
			for i := range ranked {
				scores[i] = score(ranked[i])
			}
			idx := make([]int, len(ranked))
			for i := range idx {
				idx[i] = i
			}
			sort.SliceStable(idx, func(a, b int) bool {
				vi, vj := ranked[idx[a]], ranked[idx[b]]
				if ri, rj := classRank(vi.Class), classRank(vj.Class); ri != rj {
					return ri < rj
				}
				if si, sj := scores[idx[a]], scores[idx[b]]; si != sj {
					return si > sj // racy pairs first
				}
				return vi.NumWrites > vj.NumWrites
			})
			out := make([]VarInfo, len(ranked))
			for i, j := range idx {
				out[i] = ranked[j]
			}
			itf = out
		} else {
			sort.SliceStable(ranked, func(i, j int) bool {
				if PriorTo(ranked[i], ranked[j]) {
					return true
				}
				if PriorTo(ranked[j], ranked[i]) {
					return false
				}
				return false // equal priority: keep stable (variable) order
			})
			itf = ranked
		}
	}
	var picked []VarInfo
	switch strategy {
	case BranchFirst:
		picked = guards
	case ZPREBranch:
		picked = append(itf, guards...)
	default:
		picked = itf
	}
	order := make([]sat.Var, len(picked))
	for i, vi := range picked {
		order[i] = vi.Var
	}
	return &Decider{
		order:    order,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		polarity: cfg.Polarity,
	}
}

// classRank orders the interference classes for ZPREStatic: external RF,
// then internal RF, then WS — the same class precedence PriorTo encodes.
func classRank(c Class) int {
	switch c {
	case ClassRFExternal:
		return 0
	case ClassRFInternal:
		return 1
	case ClassWS:
		return 2
	}
	return 3
}

// Next implements sat.Decider: the first unassigned interference variable in
// the decision order, or LitUndef to fall back to VSIDS.
func (d *Decider) Next(value func(sat.Var) sat.LBool) sat.Lit {
	for d.cursor < len(d.order) {
		v := d.order[d.cursor]
		if value(v) == sat.LUndef {
			return sat.MkLit(v, d.pickNeg())
		}
		d.cursor++
	}
	return sat.LitUndef
}

func (d *Decider) pickNeg() bool {
	switch d.polarity {
	case PolarityTrue:
		return false
	case PolarityFalse:
		return true
	default:
		return d.rng.Intn(2) == 1
	}
}

// OnBacktrack implements sat.Decider: assignments were undone, so the scan
// cursor rewinds (priorities are static, so restarting from the front is
// correct; assigned variables are skipped in O(1) each).
func (d *Decider) OnBacktrack() { d.cursor = 0 }

// Order exposes the computed decision order (for tests and inspection).
func (d *Decider) Order() []sat.Var {
	out := make([]sat.Var, len(d.order))
	copy(out, d.order)
	return out
}
