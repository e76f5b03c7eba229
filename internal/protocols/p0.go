// Package protocols implements the paper's concrete protocols as real
// message-passing programs on the deterministic round engine, together with their decision rules as
// view predicates so the knowledge machinery can compare them with
// the semantically constructed optima.
//
// Contents:
//   - P0 and P1, the LF82 flooding protocols of Proposition 2.1;
//   - P0opt, the optimal crash-mode protocol of Section 2.2, shown in
//     Theorems 6.1/6.2 to coincide with F^Λ,2 = FIP(𝒵^cr, 𝒪^cr);
//   - Chain0, a certificate-passing implementation of the 0-chain EBA
//     protocol FIP(𝒵⁰, 𝒪⁰) for the omission mode (Section 6.2).
package protocols

import (
	"fmt"

	"github.com/eventual-agreement/eba/internal/fip"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// LF82 is the flooding protocol of Proposition 2.1 parameterized by
// the preferred value v: when a processor first learns that some
// processor has initial value v, it decides v and relays v; if by
// time t+1 it knows of no processor with value v, it decides 1-v.
// LF82(Zero) is the paper's P0, LF82(One) its symmetric P1. It
// achieves EBA in the crash failure mode (and is not safe under
// sending omissions — see the tests).
func LF82(v types.Value) sim.Protocol {
	if !v.Valid() {
		panic("protocols: LF82 needs a binary preferred value")
	}
	return lf82{pref: v}
}

type lf82 struct{ pref types.Value }

func (p lf82) Name() string { return fmt.Sprintf("P%s", p.pref) }

func (p lf82) New(env sim.Env) sim.Process {
	return &lf82Proc{env: env, pref: p.pref, saw: env.Initial == p.pref}
}

type lf82Proc struct {
	env     sim.Env
	pref    types.Value
	saw     bool
	relayed bool
	decided bool
	value   types.Value
}

func (p *lf82Proc) Send(types.Round) []sim.Message {
	if !p.saw || p.relayed {
		return nil
	}
	p.relayed = true
	out := make([]sim.Message, p.env.Params.N)
	for i := range out {
		out[i] = p.pref
	}
	return out
}

func (p *lf82Proc) Receive(r types.Round, msgs []sim.Message) {
	for _, m := range msgs {
		if m != nil {
			p.saw = true
		}
	}
	p.step(r)
}

func (p *lf82Proc) step(now types.Round) {
	if p.decided {
		return
	}
	switch {
	case p.saw:
		p.decided, p.value = true, p.pref
	case now >= types.Round(p.env.Params.T+1):
		p.decided, p.value = true, p.pref.Opposite()
	}
}

func (p *lf82Proc) Decided() (types.Value, bool) {
	if !p.decided {
		p.step(0)
	}
	if !p.decided {
		return types.Unset, false
	}
	return p.value, true
}

// P0Pair is P0's decision rule as a full-information decision pair:
// 𝒵 = "a 0 is recorded in the view", 𝒪 = "time ≥ t+1 and no 0
// recorded". Corresponding runs of the concrete P0 and FIP(P0Pair)
// decide identically (full information only refines the states).
func P0Pair(t int) fip.Pair {
	return fip.Pair{
		Name: "P0",
		Z: fip.FromPred("P0.Z", func(in *views.Interner, id views.ID) bool {
			return in.Knows(id, types.Zero)
		}),
		O: fip.FromPred("P0.O", func(in *views.Interner, id views.ID) bool {
			return int(in.Time(id)) >= t+1 && !in.Knows(id, types.Zero)
		}),
	}
}

// P1Pair is the symmetric pair for P1.
func P1Pair(t int) fip.Pair {
	return fip.Pair{
		Name: "P1",
		O: fip.FromPred("P1.O", func(in *views.Interner, id views.ID) bool {
			return in.Knows(id, types.One)
		}),
		Z: fip.FromPred("P1.Z", func(in *views.Interner, id views.ID) bool {
			return int(in.Time(id)) >= t+1 && !in.Knows(id, types.One)
		}),
	}
}
