package fip

import (
	"math/rand"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// recordingSet never decides and notes every view it is asked about.
// As both halves of a pair it makes FIP ask about every processor's
// view at every time of the run.
type recordingSet struct{ seen map[views.ID]bool }

func (s *recordingSet) Name() string { return "record" }

func (s *recordingSet) Contains(_ *views.Interner, id views.ID) bool {
	s.seen[id] = true
	return false
}

// views.BuildRun is the same round loop as the engine: driving FIP on
// sim.Run reaches exactly the views BuildRun computes for the run.
// Both share one interner, and views are hash-consed, so equal IDs
// mean structurally equal views.
func TestBuildRunMatchesEngine(t *testing.T) {
	const n, tt = 3, 1
	crash, err := failures.EnumCrash(n, tt, 2)
	if err != nil {
		t.Fatal(err)
	}
	pats := crash
	rng := rand.New(rand.NewSource(12))
	for _, sample := range []func(n, t, h, count int, rng *rand.Rand) ([]*failures.Pattern, error){
		failures.SampleOmission, failures.SampleReceiving, failures.SampleGeneral,
	} {
		more, err := sample(n, tt, 3, 24, rng)
		if err != nil {
			t.Fatal(err)
		}
		pats = append(pats, more...)
	}

	params := types.Params{N: n, T: tt}
	in := views.NewInterner(n)
	rec := &recordingSet{}
	proto := Protocol(in, Pair{Name: "record", Z: rec, O: rec})
	modes := map[failures.Mode]int{}
	for _, pat := range pats {
		modes[pat.Mode()]++
		for mask := uint64(0); mask < 1<<n; mask++ {
			cfg := types.ConfigFromBits(n, mask)
			rec.seen = map[views.ID]bool{}
			if _, err := sim.Run(proto, params, cfg, pat); err != nil {
				t.Fatal(err)
			}
			built := map[views.ID]bool{}
			for _, row := range views.BuildRun(in, cfg, pat) {
				for _, id := range row {
					built[id] = true
				}
			}
			if len(built) != len(rec.seen) {
				t.Fatalf("cfg %s %s: engine reached %d views, BuildRun built %d", cfg, pat, len(rec.seen), len(built))
			}
			for id := range built {
				if !rec.seen[id] {
					t.Fatalf("cfg %s %s: BuildRun view %d (proc %d, time %d) never reached on the engine",
						cfg, pat, id, in.Proc(id), in.Time(id))
				}
			}
		}
	}
	for _, m := range []failures.Mode{failures.Crash, failures.Omission, failures.ReceivingOmission, failures.GeneralOmission} {
		if modes[m] < 2 {
			t.Fatalf("only %d %s patterns covered", modes[m], m)
		}
	}
}
