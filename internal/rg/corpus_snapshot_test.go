package rg

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"zpre/internal/svcomp"
)

// snapshotConfigs are the two prover configurations whose corpus behaviour
// is pinned: the default interval domain, and the DBM domain with the
// prefilter (-rg -rg-domain=dbm -rg-prefilter, the rg-prove benchmark's
// configuration).
var snapshotConfigs = []struct {
	file string
	opts Options
}{
	{"corpus_interval.txt", Options{Width: 8, Domain: DomainInterval}},
	{"corpus_dbm.txt", Options{Width: 8, Domain: DomainDBM, Prefilter: true}},
}

// snapshotRecord renders one (program, model) outcome as a single line:
// every field of the Result that a caller can observe, plus a digest of the
// full proof outline.
func snapshotRecord(name string, res *Result) string {
	names := make([]string, 0, len(res.Ranges))
	for n := range res.Ranges { //mapiter:ok keys sorted below
		names = append(names, n)
	}
	sort.Strings(names)
	ranges := make([]string, len(names))
	for i, n := range names {
		ranges[i] = fmt.Sprintf("%s=%s", n, res.Ranges[n])
	}
	return fmt.Sprintf("%s proved=%v bailed=%v skipped=%v iters=%d asserts=%d unproved=[%s] ranges=[%s] outline=%x",
		name, res.Proved, res.Bailed, res.SkippedPrefilter, res.StabilizeIters, res.Asserts,
		strings.Join(res.Unproved, " "), strings.Join(ranges, " "),
		sha256.Sum256([]byte(FormatOutline(res))))
}

// TestCorpusSnapshot pins the prover's outcome on every (program, model)
// pair of the corpus for both domains, so a change to the prover's data
// structures can be shown to preserve its behaviour exactly: the verdict,
// bail-out and prefilter flags, round count, unproved sites, injected
// ranges and the rendered outline. Regenerate with -update after an
// intended behaviour change.
func TestCorpusSnapshot(t *testing.T) {
	for _, cfg := range snapshotConfigs {
		t.Run(strings.TrimSuffix(cfg.file, ".txt"), func(t *testing.T) {
			var b strings.Builder
			for _, bench := range svcomp.All() {
				for _, m := range allModels {
					opts := cfg.opts
					opts.Model = m
					res, err := Prove(bench.Program, opts)
					if err != nil {
						t.Fatalf("%s %v: %v", bench.Program.Name, m, err)
					}
					b.WriteString(snapshotRecord(bench.Program.Name+"@"+m.String(), res))
					b.WriteByte('\n')
				}
			}
			got := b.String()
			path := filepath.Join("testdata", cfg.file)
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
				if gotLines[i] != wantLines[i] {
					diffs++
					if diffs <= 10 {
						t.Errorf("record %d differs:\n got  %s\n want %s", i+1, gotLines[i], wantLines[i])
					}
				}
			}
			if diffs > 10 {
				t.Errorf("%d records differ in total", diffs)
			}
		})
	}
}
