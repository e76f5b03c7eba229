// Quickstart: derive the optimal crash-mode EBA protocol from the
// protocol that never decides, verify it with the paper's oracles,
// run its concrete equivalent (P0opt) under an injected crash, and run
// the same decision rule live over TCP.
package main

import (
	"fmt"
	"log"

	eba "github.com/eventual-agreement/eba"
)

func main() {
	params := eba.Params{N: 4, T: 1}

	// 1. Enumerate every run of the full-information protocol for
	//    n=4, t=1, three rounds, crash failures.
	sys, err := eba.NewSystem(params, eba.Crash, 3, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("system: %d runs, %d points\n", sys.NumRuns(), sys.NumPoints())

	// 2. Apply the paper's two-step construction (Theorem 5.2) to the
	//    protocol in which nobody ever decides.
	e := eba.NewEvaluator(sys)
	opt := eba.TwoStep(e, eba.NeverDecide())

	// 3. Verify: it is an EBA protocol, it is optimal (Theorem 5.3),
	//    and it equals the concrete P0opt at nonfaulty states
	//    (Theorem 6.2).
	if err := eba.CheckEBA(sys, opt); err != nil {
		log.Fatal(err)
	}
	if ok, reason := eba.IsOptimal(e, opt); !ok {
		log.Fatal(reason)
	}
	if equal, diff := eba.EqualOnNonfaulty(sys, opt, eba.P0OptPair()); !equal {
		log.Fatal(diff)
	}
	fmt.Println("TwoStep(FΛ) is optimal EBA and equals P0opt (Theorems 6.1/6.2)")

	// 4. Run the concrete P0opt on the round engine, with processor 0
	//    crashing in round 2.
	cfg := eba.ConfigFromBits(4, 0b1110) // processor 0 holds the only 0
	pat := eba.Silent(eba.Crash, 4, 3, 0, 2)
	tr, err := eba.Run(eba.P0Opt(), params, cfg, pat)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run, config %s, %s:\n", cfg, pat)
	for _, d := range tr.Decisions() {
		fmt.Println(" ", d)
	}

	// 5. Run FIP(P0opt) live: one TCP connection per link, serialized
	//    views, round deadlines. The failure pattern is reconstructed
	//    from what the network delivered and the run is replayed on
	//    the round engine.
	proto := eba.FIPWire(eba.P0OptPair())
	live, err := eba.RunResilient(proto, params, cfg, eba.ResilientOptions{Mode: eba.Crash, Horizon: 3})
	if err != nil {
		log.Fatal(err)
	}
	if err := eba.VerifyResilient(proto, params, live); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("live TCP run, config %s, reconstructed %s:\n", cfg, live.Pattern)
	for _, d := range live.Decisions() {
		fmt.Println(" ", d)
	}
}
