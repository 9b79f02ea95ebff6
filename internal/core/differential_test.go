package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"uagpnm/internal/updates"
)

// withProcs sets the pool width (GOMAXPROCS) to k; the width the test
// started with comes back when it ends.
func withProcs(t testing.TB, k int) {
	t.Helper()
	old := runtime.GOMAXPROCS(k)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// diffSession is one configuration under test: a session and the pool
// width it is built and stepped at.
type diffSession struct {
	*Session
	procs int
}

// differentialSessions builds one session per configuration under test:
// the five methods at the width the test started with, plus UA-GPNM
// serial, 4- and 8-wide, so the parallel partition engine is
// differentially checked against both Scratch and its own serial twin.
func differentialSessions(t *testing.T, seed int64, horizon int) []diffSession {
	t.Helper()
	labels := []string{"A", "B", "C", "D", "E"}
	rng := rand.New(rand.NewSource(seed))
	g := randomLabeled(rng, 50, 140, labels)
	p := randomPattern(rng, g.Labels(), 5, 6, labels)

	var ss []diffSession
	add := func(m Method, procs int) {
		withProcs(t, procs)
		ss = append(ss, diffSession{NewSession(g.Clone(), p.Clone(), Config{Method: m, Horizon: horizon}), procs})
	}
	ambient := runtime.GOMAXPROCS(0)
	for _, m := range Methods {
		add(m, ambient)
	}
	for _, procs := range []int{1, 4, 8} {
		add(UAGPNM, procs)
	}
	return ss
}

// TestDifferentialRandomScripts is the randomized differential harness
// of the parallel engine work: every method — the parallel UA-GPNM
// configurations included — processes the same random update scripts
// (data and pattern updates mixed, via updates.Generate) and must
// produce matches identical to Scratch after every batch.
func TestDifferentialRandomScripts(t *testing.T) {
	trials, rounds := 5, 4
	if testing.Short() {
		trials, rounds = 2, 3
	}
	for _, horizon := range []int{0, 3} {
		for trial := 0; trial < trials; trial++ {
			seed := int64(31000 + trial)
			ss := differentialSessions(t, seed, horizon)
			scratch := ss[0]
			for round := 0; round < rounds; round++ {
				batch := updates.Generate(updates.Balanced(seed*100+int64(round), 3, 14),
					scratch.G, scratch.P)
				withProcs(t, scratch.procs)
				ref := scratch.SQuery(batch)
				for i, s := range ss[1:] {
					name := s.Method.String()
					if i >= len(Methods)-1 {
						name = fmt.Sprintf("%s(procs=%d)", s.Method, s.procs)
					}
					withProcs(t, s.procs)
					if got := s.SQuery(batch); !got.Equal(ref) {
						t.Fatalf("h=%d trial %d round %d: %s differs from Scratch (batch %v | %v)",
							horizon, trial, round, name, batch.P, batch.D)
					}
				}
			}
		}
	}
}

// TestDifferentialStressParallel is the race-hunting variant: an
// 8-wide pool and a heavier update stream. Skipped with -short; run it
// under -race.
func TestDifferentialStressParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("stress variant skipped in -short mode")
	}
	withProcs(t, 8)
	labels := []string{"A", "B", "C", "D", "E", "F"}
	rng := rand.New(rand.NewSource(777))
	g := randomLabeled(rng, 90, 280, labels)
	p := randomPattern(rng, g.Labels(), 6, 7, labels)

	scratch := NewSession(g.Clone(), p.Clone(), Config{Method: Scratch, Horizon: 3})
	par := NewSession(g.Clone(), p.Clone(), Config{Method: UAGPNM, Horizon: 3})
	for round := 0; round < 6; round++ {
		batch := updates.Generate(updates.Balanced(int64(880+round), 4, 30), scratch.G, scratch.P)
		ref := scratch.SQuery(batch)
		if got := par.SQuery(batch); !got.Equal(ref) {
			t.Fatalf("round %d: UA-GPNM(procs=8) diverged from Scratch", round)
		}
	}
}
