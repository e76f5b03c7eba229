// Omissionchain demonstrates Section 6.2: under sending omissions a
// naive "decide 0 when you hear of a 0" rule is unsafe; values must
// travel along 0-chains. The example runs the concrete Chain0
// protocol against increasingly devious adversaries, shows the
// f+1 decision bound of Proposition 6.4, and builds the optimal F*
// from the chain protocol (Proposition 6.6).
package main

import (
	"fmt"
	"log"

	eba "github.com/eventual-agreement/eba"
)

func main() {
	const n, t, h = 4, 1, 3
	params := eba.Params{N: n, T: t}

	scenarios := []struct {
		name string
		cfg  eba.Config
		pat  *eba.Pattern
	}{
		{
			"failure-free, processor 0 holds a 0",
			eba.ConfigFromBits(n, 0b1110),
			eba.FailureFree(eba.Omission, n, h),
		},
		{
			"0-holder silent from round 1 (its 0 is lost)",
			eba.ConfigFromBits(n, 0b1110),
			eba.Silent(eba.Omission, n, h, 0, 1),
		},
		{
			"0-holder delivers only to processor 2 in round 1 (chain 0→2→rest)",
			eba.ConfigFromBits(n, 0b1110),
			eba.SilentExcept(n, h, 0, 1, 2),
		},
		{
			"stale certificate: single delivery only in round 2 is rejected",
			eba.ConfigFromBits(n, 0b1110),
			eba.SilentExcept(n, h, 0, 2, 2),
		},
	}

	for _, sc := range scenarios {
		tr, err := eba.Run(eba.Chain0(), params, sc.cfg, sc.pat)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("-- %s\n", sc.name)
		for _, d := range tr.Decisions() {
			fmt.Println("  ", d)
		}
	}

	// The knowledge-level account: FIP(𝒵⁰, 𝒪⁰) decides within f+1,
	// and its prime-step improvement F* is optimal.
	fmt.Println("-- knowledge level (exhaustive n=3 system)")
	sys, err := eba.NewSystem(eba.Params{N: 3, T: 1}, eba.Omission, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	e := eba.NewEvaluator(sys)
	chain := eba.Chain0SemanticPair(e)
	if err := eba.CheckEBA(sys, chain); err != nil {
		log.Fatal(err)
	}
	max, _ := eba.MaxNonfaultyDecisionRound(sys, chain)
	fmt.Printf("FIP(Z0,O0): EBA holds; worst-case decision round %d (t+1 = 2)\n", max)

	fstar := eba.PrimeStep(e, chain, "F*")
	ok, reason := eba.IsOptimal(e, fstar)
	fmt.Printf("F* dominates the chain protocol: %v; optimal: %v %s\n",
		eba.Dominates(sys, fstar, chain), ok, reason)

	// And the cautionary tale: P0's naive rule violates agreement
	// under omissions.
	if err := eba.CheckWeakAgreement(sys, eba.P0Pair(1)); err != nil {
		fmt.Printf("P0 under omissions: %v\n", err)
	}
}
