package harness

import (
	"math/rand"
	"sync"
	"testing"

	"zpre/internal/memmodel"
	"zpre/internal/rg"
	"zpre/internal/svcomp"
	"zpre/internal/telemetry"
)

// TestRGMemoConcurrentProvesOnce has four workers request every (program,
// model) pair of two families, each in its own order and twice over. Every
// pair must be proved exactly once (one prove-latency observation per
// pair), and every worker must get the one cached result. Run it under
// -race: the memo no longer holds its lock across a proof.
func TestRGMemoConcurrentProvesOnce(t *testing.T) {
	reg := telemetry.NewRegistry()
	memo := &rgMemo{
		m:      map[string]*rgEntry{},
		hist:   reg.Histogram("rg_prove_us"),
		domain: rg.DomainDBM, prefilter: true,
	}
	type pair struct {
		b svcomp.Benchmark
		m memmodel.Model
	}
	var pairs []pair
	for _, b := range svcomp.All() {
		if b.Subcategory != "lit" && b.Subcategory != "atomic" {
			continue
		}
		for _, m := range memmodel.All() {
			pairs = append(pairs, pair{b, m})
		}
	}
	const workers = 4
	got := make([][]*rg.Result, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*rg.Result, len(pairs))
			rng := rand.New(rand.NewSource(int64(w)))
			for pass := 0; pass < 2; pass++ {
				for _, j := range rng.Perm(len(pairs)) {
					got[w][j] = memo.get(pairs[j].b, pairs[j].m, 8)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := reg.Snapshot().Histograms["rg_prove_us"].Count; n != uint64(len(pairs)) {
		t.Fatalf("%d proofs for %d pairs, want exactly one each", n, len(pairs))
	}
	for i := range pairs {
		for w := 1; w < workers; w++ {
			if got[w][i] == nil || got[w][i] != got[0][i] {
				t.Fatalf("pair %d: worker %d got a different result than worker 0", i, w)
			}
		}
	}
}
