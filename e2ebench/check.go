package main

import (
	"fmt"
	"os"
	"path/filepath"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
)

// The paper's two queries (Prop 3.2 / Cor 3.3): continual common
// knowledge implies common knowledge on every system, and the converse
// fails on every system the workloads use.
const (
	paperValid   = "Cbox E0 -> C E0"
	paperInvalid = "C E0 -> Cbox E0"
)

// pin is a golden snapshot digest. The daemon gives every omission key
// the service's default pattern limit, while the pins were taken with
// no limit (the enumeration is the same: the limit is far above the
// pattern count); the served system is re-encoded under the pinned key
// before its digest is compared.
type pin struct {
	key    store.Key
	digest string
}

var pins = map[string]pin{
	omissionKey.Slug(): {
		key:    store.Key{N: 4, T: 2, Mode: failures.Omission, Horizon: 2},
		digest: "1a7dd2987948584dd98f96668ffe6c99227d7cb665db1c561380363233b1419d",
	},
	crashKey.Slug(): {
		key:    store.Key{N: 4, T: 2, Mode: failures.Crash, Horizon: 4},
		digest: "230dabaf295bbe9eba5d97e700a2aa333c6e7079dbbd77ccc18252dd7c9ac238",
	},
}

// Answer is what every answer to one query over one system must agree
// on: verdict, true-point count, and the first falsifying point (-1
// when valid).
type Answer struct {
	Valid bool
	True  int
	Total int
	Point int
}

func answerOf(r *service.Response) Answer {
	a := Answer{Valid: r.Valid, True: r.TruePoints, Total: r.TotalPoints, Point: -1}
	if r.Counterexample != nil {
		a.Point = r.Counterexample.Point
	}
	return a
}

// checkResponse checks a response's internal consistency against the
// key it was asked of, and the paper's verdict when the formula is one
// of the paper's queries.
func checkResponse(r *service.Response, k KeySpec, formula string) error {
	s := r.System
	switch {
	case s.Mode != k.Mode || s.N != k.N || s.T != k.T || s.Horizon != k.H:
		return fmt.Errorf("%s: answered over %s-n%d-t%d-h%d", k.Slug(), s.Mode, s.N, s.T, s.Horizon)
	case r.TotalPoints != s.Points || s.Points != s.Runs*(k.H+1):
		return fmt.Errorf("%s: %d total points, system has %d runs / %d points", k.Slug(), r.TotalPoints, s.Runs, s.Points)
	case r.TruePoints < 0 || r.TruePoints > r.TotalPoints || r.Valid != (r.TruePoints == r.TotalPoints):
		return fmt.Errorf("%s %q: valid=%v with %d of %d points true", k.Slug(), formula, r.Valid, r.TruePoints, r.TotalPoints)
	case r.Valid != (r.Counterexample == nil):
		return fmt.Errorf("%s %q: valid=%v but counterexample present=%v", k.Slug(), formula, r.Valid, r.Counterexample != nil)
	case r.Counterexample != nil && (r.Counterexample.Point < 0 || r.Counterexample.Point >= r.TotalPoints || r.Counterexample.Time > k.H):
		return fmt.Errorf("%s %q: counterexample %+v out of range", k.Slug(), formula, *r.Counterexample)
	}
	switch formula {
	case paperValid:
		if !r.Valid {
			return fmt.Errorf("%s: %q should be valid (Cor 3.3), got %d of %d points", k.Slug(), formula, r.TruePoints, r.TotalPoints)
		}
	case paperInvalid:
		if r.Valid || r.Counterexample == nil {
			return fmt.Errorf("%s: %q should fail with a counterexample", k.Slug(), formula)
		}
	}
	return nil
}

// checkPin reads the snapshot the daemon persisted for k under dir,
// verifies its envelope, decodes it, and compares its digest under the
// pinned key with the pin. It returns the decoded system; keys without
// a pin are only verified and decoded.
func checkPin(dir string, k KeySpec) (*system.System, error) {
	data, err := os.ReadFile(filepath.Join(dir, "systems", k.Slug()+".eba"))
	if err != nil {
		return nil, fmt.Errorf("read snapshot: %w", err)
	}
	if err := store.VerifySnapshot(data); err != nil {
		return nil, err
	}
	key, sys, err := store.DecodeSystem(data)
	if err != nil {
		return nil, err
	}
	if key != k.StoreKey() {
		return nil, fmt.Errorf("snapshot for %s holds key %s", k.Slug(), key.Slug())
	}
	p, ok := pins[k.Slug()]
	if !ok {
		return sys, nil
	}
	enc, err := store.EncodeSystem(p.key, sys)
	if err != nil {
		return nil, err
	}
	if got := store.Digest(enc); got != p.digest {
		return nil, fmt.Errorf("%s: snapshot digest %s, pinned %s", p.key.Slug(), got, p.digest)
	}
	return sys, nil
}

// buildSystem enumerates k's system in-process with the one-worker
// enumeration: the independent reference the sampled answers are
// recomputed on.
func buildSystem(k KeySpec) (*system.System, error) {
	key := k.StoreKey()
	return system.Enumerate(types.Params{N: key.N, T: key.T}, key.Mode, key.Horizon, key.Limit)
}

// recompute evaluates formula over sys on a fresh single-worker
// evaluator.
func recompute(sys *system.System, formula string) (Answer, error) {
	f, err := knowledge.Parse(formula)
	if err != nil {
		return Answer{}, err
	}
	ev := knowledge.NewEvaluator(sys)
	ev.SetParallelism(1)
	tbl := ev.Eval(f)
	return Answer{Valid: tbl.All(), True: tbl.Count(), Total: tbl.Len(), Point: tbl.FirstZero()}, nil
}

// answered is one answered query kept for the post-run checks.
type answered struct {
	Key     int
	Formula string
	Answer  Answer
}

// checkSample recomputes a seeded sample of answers in-process, outside
// the timed window, and counts each disagreement as a failed operation
// (the query itself was already counted as attempted). Systems
// are built once per key the sample touches.
func checkSample(res *Result, g *Gen, keys []KeySpec, got []answered, size int) error {
	systems := map[int]*system.System{}
	for _, i := range g.Pick(len(got), size) {
		a := got[i]
		sys, ok := systems[a.Key]
		if !ok {
			var err error
			if sys, err = buildSystem(keys[a.Key]); err != nil {
				return err
			}
			systems[a.Key] = sys
		}
		want, err := recompute(sys, a.Formula)
		if err != nil {
			return err
		}
		if want != a.Answer {
			res.fail("%s %q: daemon answered %+v, in-process recompute %+v", keys[a.Key].Slug(), a.Formula, a.Answer, want)
		}
	}
	res.Details["recomputed"] = min(size, len(got))
	return nil
}
