// Package multi implements the paper's "general case" remark
// (Section 2.1: "Extending our methods to the general case is
// straightforward"): eventual agreement over an arbitrary finite
// value domain V = {0, ..., k-1} instead of binary votes.
//
// Two protocols are provided, generalizing the binary ones by value
// ordering (the binary protocols' 0/1 asymmetry becomes min/max):
//
//   - FloodMin: flood the set of seen values for t+1 rounds and decide
//     the minimum — the multivalued FloodSet, correct in the crash
//     mode (and unsafe under omissions, like P0);
//   - MinChain: the multivalued 0-chain protocol for the omission
//     mode. A value v is accepted only along a v-chain of distinct,
//     not-known-faulty processors (one hop per round); a processor
//     decides min(accepted ∪ {own value}) at the end of the first
//     round that taught it no new failure. The Proposition 6.4
//     argument applies per value: at a clean round, any value not yet
//     accepted can never be accepted by any nonfaulty processor.
//
// Both are ordinary sim.Protocol implementations: a multivalued vote
// is a types.Value in 0..k-1 and a configuration a types.Config, so
// they run on the same round engine as the binary protocols.
package multi

import (
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

// FloodMin is the multivalued FloodSet: flood seen values, decide the
// minimum at time t+1. Crash-mode EBA (in fact simultaneous).
func FloodMin() sim.Protocol { return floodMin{} }

type floodMin struct{}

func (floodMin) Name() string { return "FloodMin" }

func (floodMin) New(env sim.Env) sim.Process {
	return &floodMinProc{n: env.Params.N, t: env.Params.T, seen: map[types.Value]bool{env.Initial: true}}
}

type floodMinProc struct {
	n, t    int
	seen    map[types.Value]bool
	decided bool
	value   types.Value
}

func (p *floodMinProc) Send(types.Round) []sim.Message {
	snapshot := make(map[types.Value]bool, len(p.seen))
	for v := range p.seen {
		snapshot[v] = true
	}
	out := make([]sim.Message, p.n)
	for i := range out {
		out[i] = snapshot
	}
	return out
}

func (p *floodMinProc) Receive(r types.Round, msgs []sim.Message) {
	for _, m := range msgs {
		if m == nil {
			continue
		}
		for v := range m.(map[types.Value]bool) {
			p.seen[v] = true
		}
	}
	if !p.decided && int(r) == p.t+1 {
		p.decided = true
		p.value = minOf(p.seen)
	}
}

func (p *floodMinProc) Decided() (types.Value, bool) {
	if !p.decided {
		return types.Unset, false
	}
	return p.value, true
}

func minOf(set map[types.Value]bool) types.Value {
	min := types.Unset
	for v := range set {
		if min == types.Unset || v < min {
			min = v
		}
	}
	return min
}

// minChainMsg is MinChain's round message.
type minChainMsg struct {
	evidence types.ProcSet
	// fresh maps each value accepted at exactly the previous time to
	// its chain.
	fresh map[types.Value][]types.ProcID
}

// MinChain is the multivalued chain protocol for the omission mode.
func MinChain() sim.Protocol { return minChain{} }

type minChain struct{}

func (minChain) Name() string { return "MinChain" }

func (minChain) New(env sim.Env) sim.Process {
	p := &minChainProc{id: env.ID, n: env.Params.N, own: env.Initial, accepted: map[types.Value][]types.ProcID{}}
	p.accepted[env.Initial] = []types.ProcID{env.ID}
	p.fresh = map[types.Value][]types.ProcID{env.Initial: p.accepted[env.Initial]}
	return p
}

type minChainProc struct {
	id       types.ProcID
	n        int
	own      types.Value
	evidence types.ProcSet
	accepted map[types.Value][]types.ProcID // value -> chain of its first acceptance
	fresh    map[types.Value][]types.ProcID // accepted at exactly the previous time

	decided bool
	value   types.Value
}

func (p *minChainProc) Send(r types.Round) []sim.Message {
	msg := minChainMsg{evidence: p.evidence, fresh: p.fresh}
	p.fresh = map[types.Value][]types.ProcID{}
	out := make([]sim.Message, p.n)
	for i := range out {
		out[i] = msg
	}
	return out
}

func (p *minChainProc) Receive(r types.Round, msgs []sim.Message) {
	before := p.evidence
	next := map[types.Value][]types.ProcID{}
	for j, m := range msgs {
		sender := types.ProcID(j)
		if sender == p.id {
			continue
		}
		if m == nil {
			p.evidence = p.evidence.Add(sender)
			continue
		}
		cm := m.(minChainMsg)
		p.evidence = p.evidence.Union(cm.evidence)
		for v, chain := range cm.fresh {
			if len(chain) != int(r) { // acceptance at exactly r-1
				continue
			}
			if _, have := p.accepted[v]; have {
				continue
			}
			if p.evidence.Contains(sender) || onChain(chain, p.id) {
				continue
			}
			ext := append(append([]types.ProcID(nil), chain...), p.id)
			p.accepted[v] = ext
			next[v] = ext
		}
	}
	for v, c := range next {
		p.fresh[v] = c
	}
	if !p.decided && p.evidence == before {
		// A clean round: no new failure evidence. Per the Proposition
		// 6.4 argument applied to each value separately, any value not
		// accepted by now can never reach a nonfaulty processor, so
		// the minimum is final. (Values freshly accepted in this very
		// round participate in the minimum.)
		p.decided = true
		min := p.own
		for v := range p.accepted {
			if v < min {
				min = v
			}
		}
		p.value = min
	}
}

func onChain(chain []types.ProcID, q types.ProcID) bool {
	for _, c := range chain {
		if c == q {
			return true
		}
	}
	return false
}

func (p *minChainProc) Decided() (types.Value, bool) {
	if !p.decided {
		return types.Unset, false
	}
	return p.value, true
}
