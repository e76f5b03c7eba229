package main

import (
	"fmt"
	"math/rand"

	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
)

// The seeded input generator. Every workload draws its formulas, key
// mix, repeats and cluster entry nodes from here, so one seed fixes a
// run's whole request stream; the daemon only ever sees the generated
// requests.

// maxDepth bounds operator nesting in generated formulas: each modal
// operator is a pass over the point space, so depth is the cost knob.
const maxDepth = 3

// unaryOps are the prefix operators of knowledge.Parse's grammar the
// generator draws from; "K" and "B" take an agent index.
var unaryOps = []string{"K", "B", "E", "C", "Cbox", "Cdia", "box", "dia", "!"}

// binaryOps are the boolean connectives.
var binaryOps = []string{"&", "|", "->"}

// Gen draws formulas and requests from one seeded source.
type Gen struct {
	rng *rand.Rand
}

// NewGen returns a generator whose whole output is fixed by seed.
func NewGen(seed int64) *Gen { return &Gen{rng: rand.New(rand.NewSource(seed))} }

// atom draws an atomic proposition over n processors.
func (g *Gen) atom(n int) string {
	switch g.rng.Intn(5) {
	case 0:
		return "E0"
	case 1:
		return "E1"
	case 2:
		return fmt.Sprintf("init%d=%d", g.rng.Intn(n), g.rng.Intn(2))
	case 3:
		return fmt.Sprintf("nf%d", g.rng.Intn(n))
	default:
		return fmt.Sprintf("knows%d=%d", g.rng.Intn(n), g.rng.Intn(2))
	}
}

// Formula draws a formula over n processors with operator nesting at
// most depth (and at least one operator when depth > 0). Binary
// subformulas are parenthesized, so the text parses to the tree drawn.
func (g *Gen) Formula(n, depth int) string {
	if depth <= 0 {
		return g.atom(n)
	}
	if g.rng.Intn(4) == 0 {
		op := binaryOps[g.rng.Intn(len(binaryOps))]
		return g.operand(n, depth-1) + " " + op + " " + g.operand(n, depth-1)
	}
	op := unaryOps[g.rng.Intn(len(unaryOps))]
	if op == "K" || op == "B" {
		op = fmt.Sprintf("%s%d", op, g.rng.Intn(n))
	}
	return op + " " + g.operand(n, depth-1)
}

// operand draws a subformula of nesting at most depth — an atom with
// probability one in three — parenthesized when it is not atomic.
func (g *Gen) operand(n, depth int) string {
	if depth == 0 || g.rng.Intn(3) == 0 {
		return g.atom(n)
	}
	return "(" + g.Formula(n, depth) + ")"
}

// canonical is the daemon's result-cache key for a formula text: the
// parsed tree's rendering, so spacing variants count as the same
// formula.
func canonical(src string) (string, error) {
	f, err := knowledge.Parse(src)
	if err != nil {
		return "", err
	}
	return f.String(), nil
}

// KeySpec names one system the workloads query, with its draw weight
// in serve-mix's key mix.
type KeySpec struct {
	Mode    string
	N, T, H int
	Weight  int
}

// Request turns the spec into a query for formula.
func (k KeySpec) Request(formula string) service.Request {
	return service.Request{Formula: formula, N: k.N, T: k.T, Mode: k.Mode, Horizon: k.H}
}

// resolver applies the daemon's own request defaults; it never touches
// a store.
var resolver = service.NewEngine(nil, 0)

// StoreKey is the store key the daemon resolves the spec to.
func (k KeySpec) StoreKey() store.Key {
	key, _, err := resolver.Resolve(k.Request("true"))
	if err != nil {
		panic(fmt.Sprintf("bad key spec %+v: %v", k, err))
	}
	return key
}

// Slug is the store's key slug for the spec.
func (k KeySpec) Slug() string { return k.StoreKey().Slug() }

// Item is one generated query: the key it targets, the formula text,
// and whether the stream has asked this formula of this key before.
type Item struct {
	Key     int // index into the generator's key list
	Formula string
	Repeat  bool
}

// Mix is the seeded serve-mix stream: keys drawn by weight, and about
// repeatShare of the requests repeating a formula already asked of the
// same key; the rest ask a formula not yet asked of it.
type Mix struct {
	g           *Gen
	keys        []KeySpec
	total       int // sum of the key weights
	repeatShare float64
	asked       []map[string]bool // per key, canonical forms asked
	history     [][]string        // per key, formula texts asked, in order
}

// NewMix builds the stream over keys.
func NewMix(seed int64, keys []KeySpec, repeatShare float64) *Mix {
	m := &Mix{g: NewGen(seed), keys: keys, repeatShare: repeatShare}
	for _, k := range keys {
		m.total += k.Weight
		m.asked = append(m.asked, map[string]bool{})
		m.history = append(m.history, nil)
	}
	return m
}

// Next draws the stream's next query.
func (m *Mix) Next() Item {
	r := m.g.rng.Intn(m.total)
	key := 0
	for r >= m.keys[key].Weight {
		r -= m.keys[key].Weight
		key++
	}
	if h := m.history[key]; len(h) > 0 && m.g.rng.Float64() < m.repeatShare {
		return Item{Key: key, Formula: h[m.g.rng.Intn(len(h))], Repeat: true}
	}
	f := m.g.Fresh(m.keys[key].N, maxDepth, m.asked[key])
	m.history[key] = append(m.history[key], f)
	return Item{Key: key, Formula: f}
}

// Fresh draws a formula whose canonical form is not in asked, records
// it there, and returns its text. The formula space at depth 3 is far
// larger than any run's stream, so the loop ends after a few draws.
func (g *Gen) Fresh(n, depth int, asked map[string]bool) string {
	for {
		f := g.Formula(n, depth)
		c, err := canonical(f)
		if err != nil {
			panic(fmt.Sprintf("generator drew unparseable formula %q: %v", f, err))
		}
		if !asked[c] {
			asked[c] = true
			return f
		}
	}
}

// HotSet draws one cycle's hot formulas, first-seen on the restarted
// daemon (which holds only the cold query's result): one knowledge
// formula over a seeded agent and atom, and common and continual common
// knowledge of a seeded value. Value symmetry makes the last two cost
// the same whichever value is drawn, and the run's hot median sits on
// the common-knowledge stratum whatever the seed.
func (g *Gen) HotSet(n int) []string {
	return []string{
		fmt.Sprintf("K%d %s", g.rng.Intn(n), g.atom(n)),
		fmt.Sprintf("C E%d", g.rng.Intn(2)),
		fmt.Sprintf("Cbox E%d", g.rng.Intn(2)),
	}
}

// Entry draws the node, out of nodes, that a batch enters the cluster
// through.
func (g *Gen) Entry(nodes int) int { return g.rng.Intn(nodes) }

// Pick draws k distinct indices below n, in draw order: the seeded
// sample of answers recomputed in-process.
func (g *Gen) Pick(n, k int) []int {
	if k > n {
		k = n
	}
	return g.rng.Perm(n)[:k]
}
