package encode

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"zpre/internal/cprog"
	"zpre/internal/memmodel"
	"zpre/internal/sat"
	"zpre/internal/smt"
	"zpre/internal/svcomp"
)

// namePasses are the pre-pass sets whose encodings the name snapshot pins:
// the plain encoder, static pruning with value-flow analysis, and the
// must-happens-before closure.
var namePasses = []struct {
	label string
	opts  Options
}{
	{"plain", Options{}},
	{"prune-dataflow", Options{StaticPrune: true, Dataflow: true}},
	{"mhb", Options{MHB: true}},
}

// snapshotVCs encodes every corpus program under every model at width 8:
// fresh at bounds 1–2 under each pass set of namePasses, then incrementally
// at bounds 1–4. It calls visit with a label and the VC of each encoding.
func snapshotVCs(t *testing.T, visit func(prog string, model memmodel.Model, cfg string, vc *VC)) {
	t.Helper()
	for _, bench := range svcomp.All() {
		for _, m := range memmodel.All() {
			for bound := 1; bound <= 2; bound++ {
				unrolled := cprog.Unroll(bench.Program, bound, cprog.UnwindAssume)
				for _, pass := range namePasses {
					opts := pass.opts
					opts.Model, opts.Width = m, 8
					vc, err := Program(unrolled, opts)
					if err != nil {
						t.Fatalf("%s@%v b%d %s: %v", bench.Program.Name, m, bound, pass.label, err)
					}
					visit(bench.Program.Name, m, fmt.Sprintf("b%d/%s", bound, pass.label), vc)
				}
			}
			inc, err := NewIncremental(bench.Program, Options{Model: m, Width: 8})
			if err != nil {
				t.Fatalf("%s@%v incremental: %v", bench.Program.Name, m, err)
			}
			for bound := 1; bound <= 4; bound++ {
				if _, err := inc.Extend(); err != nil {
					t.Fatalf("%s@%v incremental bound %d: %v", bench.Program.Name, m, bound, err)
				}
				visit(bench.Program.Name, m, fmt.Sprintf("inc%d", bound), inc.VC())
			}
		}
	}
}

// digest is the first 4 bytes of the sha256 of the lines, in hex.
func digest(lines []string) string {
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return fmt.Sprintf("%x", sum[:4])
}

// nameDigests renders the four name tables of a VC's builder as digests:
// the sorted NamedVars table, VarName over every variable, the named
// bit-vectors (name and bit variables, found by probing BVByName with the
// prefix of every "name.i" bit name), and the event names.
func nameDigests(vc *VC) string {
	bd := vc.Builder
	named := bd.NamedVars()
	table := make([]string, 0, len(named))
	bvs := map[string]bool{}
	for name, v := range named { //mapiter:ok sorted below
		table = append(table, name+"="+strconv.Itoa(int(v)))
		if dot := strings.LastIndexByte(name, '.'); dot > 0 {
			if _, err := strconv.Atoi(name[dot+1:]); err == nil {
				bvs[name[:dot]] = true
			}
		}
	}
	sort.Strings(table)

	varNames := make([]string, 0, bd.NumVars())
	for v := 0; v < bd.NumVars(); v++ {
		if name := bd.VarName(sat.Var(v)); name != "" {
			varNames = append(varNames, strconv.Itoa(v)+"="+name)
		}
	}

	bvNames := make([]string, 0, len(bvs))
	for name := range bvs { //mapiter:ok sorted below
		bv, ok := bd.BVByName(name)
		if !ok {
			continue
		}
		var sb strings.Builder
		sb.WriteString(name)
		for i := 0; i < bv.Width(); i++ {
			fmt.Fprintf(&sb, " %d", bv.Bit(i).Lit())
		}
		bvNames = append(bvNames, sb.String())
	}
	sort.Strings(bvNames)

	events := make([]string, bd.NumEvents())
	for e := range events {
		events[e] = bd.EventName(smt.EventID(e))
	}
	return fmt.Sprintf("%s.%s.%s.%s", digest(table), digest(varNames), digest(bvNames), digest(events))
}

// TestNameSnapshot pins the rendered names of every corpus encoding — the
// NamedVars table, VarName of every variable, the named bit-vectors and the
// event names — so a change to how the builder stores or renders names can
// be shown to preserve them exactly. The file holds one line per
// (program, model) with the digests of each encoding configuration.
// Regenerate with -update after an intended naming change.
func TestNameSnapshot(t *testing.T) {
	var b strings.Builder
	last := ""
	snapshotVCs(t, func(prog string, m memmodel.Model, cfg string, vc *VC) {
		key := prog + "@" + m.String()
		if key != last {
			if last != "" {
				b.WriteByte('\n')
			}
			b.WriteString(key)
			last = key
		}
		fmt.Fprintf(&b, " %s=%s", cfg, nameDigests(vc))
	})
	b.WriteByte('\n')
	got := b.String()
	path := filepath.Join("testdata", "names_snapshot.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing snapshot (run with -update to create): %v", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(wantBytes), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d records, want %d", path, len(gotLines)-1, len(wantLines)-1)
	}
	diffs := 0
	for i := range gotLines {
		if gotLines[i] == wantLines[i] {
			continue
		}
		diffs++
		if diffs > 10 {
			continue
		}
		gotF, wantF := strings.Fields(gotLines[i]), strings.Fields(wantLines[i])
		for j := range gotF {
			if j >= len(wantF) || gotF[j] != wantF[j] {
				t.Errorf("record %d (%s) differs at %s", i+1, gotF[0], gotF[j])
				break
			}
		}
	}
	if diffs > 10 {
		t.Errorf("%d records differ in total", diffs)
	}
}
