package encode

import (
	"testing"

	"zpre/internal/core"
	"zpre/internal/memmodel"
)

// TestClassifyBuilderAgrees checks that classifying a VC from its typed
// labels gives exactly what parsing its rendered names gives — the same
// variables in the same order, with the same classes, event coordinates
// and #write — on every encoding the name snapshot covers. Name is the one
// field the typed path leaves empty.
func TestClassifyBuilderAgrees(t *testing.T) {
	snapshotVCs(t, func(prog string, m memmodel.Model, cfg string, vc *VC) {
		got := core.ClassifyBuilder(vc.Builder)
		want := core.Classify(vc.Builder.NamedVars())
		if len(got) != len(want) {
			t.Fatalf("%s@%v %s: %d classified variables, want %d", prog, m, cfg, len(got), len(want))
		}
		for i := range want {
			w := want[i]
			w.Name = ""
			if got[i] != w {
				t.Fatalf("%s@%v %s: variable %d (%s): got %+v, want %+v",
					prog, m, cfg, i, want[i].Name, got[i], w)
			}
		}
	})
}
