package main

import (
	"math"
	"testing"

	"github.com/eventual-agreement/eba/internal/knowledge"
)

func TestSameSeedSameStream(t *testing.T) {
	a, b := NewMix(7, serveKeys, repeatShare), NewMix(7, serveKeys, repeatShare)
	c := NewMix(8, serveKeys, repeatShare)
	differs := false
	for i := 0; i < 500; i++ {
		x, y, z := a.Next(), b.Next(), c.Next()
		if x != y {
			t.Fatalf("item %d: seed 7 gave %+v and %+v", i, x, y)
		}
		differs = differs || x != z
	}
	if !differs {
		t.Fatal("seeds 7 and 8 gave the same 500 items")
	}

	g1, g2 := NewGen(3), NewGen(3)
	for i := 0; i < 50; i++ {
		if e1, e2 := g1.Entry(3), g2.Entry(3); e1 != e2 {
			t.Fatalf("entry %d: nodes %d and %d", i, e1, e2)
		}
	}
	h1, h2 := NewGen(5).HotSet(4), NewGen(5).HotSet(4)
	for i := range h1 {
		if h1[i] != h2[i] {
			t.Fatalf("hot set differs: %q vs %q", h1, h2)
		}
	}
}

func TestEveryFormulaParses(t *testing.T) {
	mustParse := func(src string) {
		t.Helper()
		if _, err := knowledge.Parse(src); err != nil {
			t.Fatalf("%q: %v", src, err)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		g := NewGen(seed)
		for i := 0; i < 200; i++ {
			mustParse(g.Formula(3+i%2, maxDepth))
		}
		m := NewMix(seed, serveKeys, repeatShare)
		for i := 0; i < 200; i++ {
			mustParse(m.Next().Formula)
		}
		for _, f := range g.HotSet(4) {
			mustParse(f)
		}
	}
	mustParse(paperValid)
	mustParse(paperInvalid)
	mustParse(warmFormula)
	for _, p := range opProbes {
		mustParse(p.formula)
	}
}

func TestRepeatShareNearTarget(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		m := NewMix(seed, serveKeys, repeatShare)
		const n = 4000
		repeats := 0
		asked := make([]map[string]bool, len(serveKeys))
		for i := range asked {
			asked[i] = map[string]bool{}
		}
		for i := 0; i < n; i++ {
			it := m.Next()
			c, err := canonical(it.Formula)
			if err != nil {
				t.Fatal(err)
			}
			if it.Repeat {
				repeats++
				if !asked[it.Key][c] {
					t.Fatalf("seed %d item %d: repeat of %q, never asked of key %d", seed, i, it.Formula, it.Key)
				}
			} else if asked[it.Key][c] {
				t.Fatalf("seed %d item %d: %q marked first-seen but asked before", seed, i, it.Formula)
			}
			asked[it.Key][c] = true
		}
		if got := float64(repeats) / n; math.Abs(got-repeatShare) > 0.03 {
			t.Errorf("seed %d: repeat share %.3f, target %.2f", seed, got, repeatShare)
		}
	}
}

func TestHotSetIsFirstSeen(t *testing.T) {
	cold, _ := canonical(paperInvalid)
	for seed := int64(0); seed < 50; seed++ {
		hot := NewGen(seed).HotSet(4)
		seen := map[string]bool{cold: true}
		for _, f := range hot {
			c, _ := canonical(f)
			if seen[c] {
				t.Fatalf("seed %d: %q repeats within the cycle", seed, f)
			}
			seen[c] = true
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("p50 of 1..4 = %v, want 2 (nearest rank)", got)
	}
	var big []float64
	for i := 1; i <= 1000; i++ {
		big = append(big, float64(i))
	}
	if got := quantile(big, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
}
