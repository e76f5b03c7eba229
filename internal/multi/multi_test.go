package multi

import (
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

// allConfigs enumerates the k^n configurations.
func allConfigs(n, k int) []types.Config {
	var out []types.Config
	total := 1
	for i := 0; i < n; i++ {
		total *= k
	}
	for code := 0; code < total; code++ {
		cfg := make(types.Config, n)
		c := code
		for i := 0; i < n; i++ {
			cfg[i] = types.Value(c % k)
			c /= k
		}
		out = append(out, cfg)
	}
	return out
}

// run executes p on the round engine with fault bound t.
func run(t *testing.T, p sim.Protocol, tt int, cfg types.Config, pat *failures.Pattern) *sim.Trace {
	t.Helper()
	tr, err := sim.Run(p, types.Params{N: cfg.N(), T: tt}, cfg, pat)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkEBA verifies decision, agreement, and validity of multivalued
// decisions on one run.
func checkEBA(t *testing.T, tr *sim.Trace, maxRound types.Round) {
	t.Helper()
	agreed := types.Unset
	for _, p := range tr.Pattern.Nonfaulty().Members() {
		v, at, ok := tr.DecisionOf(p)
		if !ok {
			t.Fatalf("%s: nonfaulty %d undecided", tr, p)
		}
		if maxRound >= 0 && at > maxRound {
			t.Fatalf("%s: proc %d decided at %d > %d", tr, p, at, maxRound)
		}
		if agreed == types.Unset {
			agreed = v
		} else if agreed != v {
			t.Fatalf("%s: agreement violated", tr)
		}
	}
	if v, same := tr.Config.AllEqual(); same && agreed != v {
		t.Fatalf("%s: validity violated (decided %s)", tr, agreed)
	}
}

// FloodMin is a correct (simultaneous) multivalued agreement protocol
// in the crash mode, for ternary values, over every configuration and
// crash pattern.
func TestFloodMinCrashTernary(t *testing.T) {
	const n, tt, h, k = 3, 1, 3, 3
	pats, err := failures.EnumCrash(n, tt, h)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range pats {
		for _, cfg := range allConfigs(n, k) {
			tr := run(t, FloodMin(), tt, cfg, pat)
			checkEBA(t, tr, types.Round(tt+1))
			// FloodMin is simultaneous: everyone decides at t+1.
			for _, p := range pat.Nonfaulty().Members() {
				if _, at, _ := tr.DecisionOf(p); at != types.Round(tt+1) {
					t.Fatalf("FloodMin not simultaneous: %s", tr)
				}
			}
		}
	}
}

// MinChain achieves multivalued EBA under sending omissions, for
// ternary values, deciding within f+1 rounds.
func TestMinChainOmissionTernary(t *testing.T) {
	const n, tt, h, k = 3, 1, 3, 3
	pats, err := failures.EnumOmission(n, tt, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pat := range pats {
		f := pat.VisiblyFaulty().Len()
		for _, cfg := range allConfigs(n, k) {
			checkEBA(t, run(t, MinChain(), tt, cfg, pat), types.Round(f+1))
		}
	}
}

// MinChain with four processors and quaternary values under targeted
// omission scenarios, including relayed chains.
func TestMinChainLargerDomain(t *testing.T) {
	const n, tt, h, k = 4, 1, 3, 4
	pats := []*failures.Pattern{
		failures.FailureFree(failures.Omission, n, h),
		failures.Silent(failures.Omission, n, h, 0, 1),
		failures.SilentExcept(n, h, 0, 1, 2),
		failures.SilentExcept(n, h, 0, 2, 3),
		failures.SilentExcept(n, h, 3, 1, 0),
	}
	for _, pat := range pats {
		for _, cfg := range []types.Config{
			{0, 1, 2, 3},
			{3, 2, 1, 0},
			{2, 2, 2, 2},
			{1, 3, 3, 3},
			{3, 3, 3, 1},
		} {
			checkEBA(t, run(t, MinChain(), tt, cfg, pat), -1)
		}
	}
}

// The chain discipline matters: a stale value delivered late by its
// faulty holder is rejected, so the survivors decide the minimum of
// what travelled legitimately.
func TestMinChainRejectsStaleValue(t *testing.T) {
	const n, tt, h = 3, 1, 3
	// Processor 0 holds the global minimum 0 but is silent in round 1
	// and delivers only in round 2 to processor 1: a stale chain.
	pat := failures.SilentExcept(n, h, 0, 2, 1)
	tr := run(t, MinChain(), tt, types.Config{0, 1, 2}, pat)
	checkEBA(t, tr, -1)
	for _, p := range pat.Nonfaulty().Members() {
		if v, _, _ := tr.DecisionOf(p); v != 1 {
			t.Fatalf("survivors should decide 1 (the smallest live value), got %s", tr)
		}
	}
}

// FloodMin is unsafe under omissions (the multivalued analogue of P0's
// failure): a late value splits the survivors.
func TestFloodMinBreaksUnderOmission(t *testing.T) {
	const n, tt, h, k = 3, 1, 3, 3
	pats, err := failures.EnumOmission(n, tt, h, 0)
	if err != nil {
		t.Fatal(err)
	}
	violated := false
	for _, pat := range pats {
		for _, cfg := range allConfigs(n, k) {
			tr := run(t, FloodMin(), tt, cfg, pat)
			agreed := types.Unset
			ok := true
			for _, p := range pat.Nonfaulty().Members() {
				v, _, decided := tr.DecisionOf(p)
				if !decided {
					continue
				}
				if agreed == types.Unset {
					agreed = v
				} else if agreed != v {
					ok = false
				}
			}
			if !ok {
				violated = true
			}
		}
	}
	if !violated {
		t.Fatal("FloodMin should violate agreement somewhere under omissions")
	}
}

// Multivalued configurations are plain types.Config values: the
// helpers and the printed form work for any non-negative vote.
func TestConfigHelpers(t *testing.T) {
	c := types.Config{2, 0, 1}
	if c.String() != "201" {
		t.Fatalf("String = %q", c.String())
	}
	if _, same := c.AllEqual(); same {
		t.Fatal("AllEqual wrong")
	}
	if v, same := (types.Config{2, 2}).AllEqual(); !same || v != 2 {
		t.Fatal("AllEqual wrong")
	}
	if !c.HasValue(2) || c.HasValue(3) {
		t.Fatal("HasValue wrong")
	}
}
