package rg

import (
	"math/rand"
	"testing"
)

// randEnv draws an env over a small value pool, so that equal and
// near-equal environments are common.
func randEnv(rng *rand.Rand, nVars, nShared int) *env {
	e := newEnv(nVars, nShared)
	pick := func() iv {
		lo := int64(rng.Intn(3)) - 1
		return iv{Lo: lo, Hi: lo + int64(rng.Intn(2))}
	}
	for i := range e.vals {
		e.vals[i] = pick()
	}
	for i := range e.own {
		e.own[i] = pick()
		e.ownSet[i] = rng.Intn(2) == 0
		e.fenced[i] = rng.Intn(2) == 0
	}
	return e
}

// TestEnvHashConsistentWithCmp checks the invariant the hash index rests
// on: envs that envCmp calls equal hash equal. That includes envs differing
// only in own[i] where ownSet[i] is false, which envCmp ignores.
func TestEnvHashConsistentWithCmp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		nShared := 1 + rng.Intn(3)
		nVars := nShared + rng.Intn(3)
		a := randEnv(rng, nVars, nShared)
		b := randEnv(rng, nVars, nShared)
		if envCmp(a, b) == 0 && envHash(a) != envHash(b) {
			t.Fatalf("equal envs hash differently: %+v vs %+v", a, b)
		}
		c := a.clone()
		for i := range c.own {
			if !c.ownSet[i] {
				c.own[i] = iv{Lo: c.own[i].Lo - 5, Hi: c.own[i].Hi + 5}
			}
		}
		if envCmp(a, c) != 0 {
			t.Fatalf("envCmp sees own[i] with !ownSet[i]: %+v vs %+v", a, c)
		}
		if envHash(a) != envHash(c) {
			t.Fatalf("envHash sees own[i] with !ownSet[i]: %+v vs %+v", a, c)
		}
	}
}

// TestEnvIndexMatchesLinearScan checks the index against the linear scan it
// replaces: feeding random envs through addNew keeps exactly the envs a
// scan-and-compare would keep, in the same order, and an env that differs
// from a kept one in any compared field is never reported as present.
func TestEnvIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var idx envIndex
	for trial := 0; trial < 200; trial++ {
		nShared := 1 + rng.Intn(2)
		nVars := nShared + rng.Intn(2)
		var got, want stateSet
		idx.reset(nil)
		for i := 0; i < 1+rng.Intn(300); i++ {
			e := randEnv(rng, nVars, nShared)
			dup := false
			for _, x := range want {
				if envCmp(x, e) == 0 {
					dup = true
					break
				}
			}
			if !dup {
				want = append(want, e)
			}
			var added bool
			got, added = idx.addNew(got, e)
			if added == dup {
				t.Fatalf("trial %d: addNew added=%v, linear scan dup=%v", trial, added, dup)
			}
		}
		if !equalSets(got, want) {
			t.Fatalf("trial %d: index kept %d envs, linear scan %d", trial, len(got), len(want))
		}
		// Perturb each compared field of a kept env in turn.
		for _, x := range got {
			for v := range x.vals {
				y := x.clone()
				y.vals[v].Hi += 7
				assertAbsentUnlessEqual(t, &idx, got, y)
			}
			for i := range x.ownSet {
				y := x.clone()
				y.fenced[i] = !y.fenced[i]
				assertAbsentUnlessEqual(t, &idx, got, y)
				y = x.clone()
				y.ownSet[i] = !y.ownSet[i]
				assertAbsentUnlessEqual(t, &idx, got, y)
				if x.ownSet[i] {
					y = x.clone()
					y.own[i].Lo -= 7
					assertAbsentUnlessEqual(t, &idx, got, y)
				}
			}
		}
	}
}

// assertAbsentUnlessEqual fails if the index reports e as present although
// no env of set is envCmp-equal to it.
func assertAbsentUnlessEqual(t *testing.T, idx *envIndex, set stateSet, e *env) {
	t.Helper()
	for _, x := range set {
		if envCmp(x, e) == 0 {
			return
		}
	}
	if idx.contains(set, e, envHash(e)) {
		t.Fatalf("index reports %+v present, but no kept env equals it", e)
	}
}
