package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/eventual-agreement/eba/internal/cluster"
	"github.com/eventual-agreement/eba/internal/service"
)

// The cold-* keys: omission-n4-t2-h2 is heavy on runs and points and
// light on views; crash-n4-t2-h4 has 3.6× the views at a third of the
// points, with deeper view trees.
var (
	omissionKey = KeySpec{Mode: "omission", N: 4, T: 2, H: 2}
	crashKey    = KeySpec{Mode: "crash", N: 4, T: 2, H: 4}
)

// serveKeys are serve-mix's five resident systems, covering all four
// failure modes. omission-n4-t2-h2 is left out: one C◇ there costs
// about a second, and a handful of such samples would set the tail.
// The two small systems answer in a millisecond or two; weighted
// equally they put the median request among them, where it moves with
// every scheduling hiccup, so the three large ones are drawn three
// times as often and the median lands among evaluator-bound requests.
var serveKeys = []KeySpec{
	{Mode: "crash", N: 4, T: 2, H: 4, Weight: 3},
	{Mode: "general-omission", N: 3, T: 1, H: 3, Weight: 3},
	{Mode: "omission", N: 4, T: 1, H: 3, Weight: 3},
	{Mode: "crash", N: 4, T: 1, H: 3, Weight: 1},
	{Mode: "receiving-omission", N: 3, T: 1, H: 3, Weight: 1},
}

const (
	// setupRuns is how many times serve-mix sets up from scratch, and
	// startRuns how many daemon starts the cold workloads time; setup_s
	// is their median. A start takes milliseconds, so more are taken.
	setupRuns = 5
	startRuns = 15
	// repeatShare is serve-mix's share of requests repeating a formula
	// already asked of the same system.
	repeatShare = 0.25
	// clients is serve-mix's closed-loop client count: ebaq users and
	// the conformance harness each wait for their reply, and the
	// machine has two CPUs.
	clients = 2
	// sampleChecks is how many answers a run recomputes in-process,
	// drawn from the stream's first samplePrefix first-seen requests
	// (a prefix every run answers, so the seed alone fixes the sample).
	sampleChecks = 12
	samplePrefix = 200
)

// nodeNames are the members of the traced run's probe cluster, in
// startFleet's order.
var nodeNames = []string{"n1", "n2", "n3"}

// ring is the fleet's consistent-hash ring, as every node builds it.
var ring = func() *cluster.Ring {
	r, err := cluster.NewRing(nodeNames, 0)
	if err != nil {
		panic(err) // fixed, distinct names: only a bug gets here
	}
	return r
}()

// owner returns the index of the node owning k on the three-node ring.
func owner(k KeySpec) int {
	name := ring.Owner(k.Slug())
	for i, n := range nodeNames {
		if n == name {
			return i
		}
	}
	panic("ring owner outside the fleet: " + name)
}

// startOne starts a standalone daemon over cache dir.
func startOne(cfg *Config, dir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return startDaemon(cfg, "single", addr, nil, "-cachedir", dir)
}

// sample is one timed request: its latency in ms and its outcome.
type sample struct {
	lat  float64
	code int
	resp *service.Response
	err  error
}

// ask sends one query and checks the response; err covers transport
// errors, non-200 statuses (sheds included) and wrong answers.
func ask(hc *http.Client, base string, k KeySpec, formula string) sample {
	resp, code, lat, err := query(hc, base, k.Request(formula))
	if err == nil {
		err = checkResponse(resp, k, formula)
	}
	return sample{lat: ms(lat), code: code, resp: resp, err: err}
}

// account counts s as one attempted operation of res and reports
// whether it succeeded.
func (res *Result) account(s sample) bool {
	res.Attempted++
	if s.err != nil {
		res.fail("%v", s.err)
		return false
	}
	return true
}

// expectOrigin fails the operation when the answer did not come from
// where the workload's design says it must (an accidental cache hit
// would measure the wrong path).
func (res *Result) expectOrigin(s sample, system, result string) {
	if s.resp.System.Origin != system || s.resp.ResultOrigin != result {
		res.fail("%q: system from %s and result from %s, want %s and %s",
			s.resp.Formula, s.resp.System.Origin, s.resp.ResultOrigin, system, result)
	}
}

// runCold is cold-omission and cold-crash: one closed-loop client
// running cycles of cold query (empty cache dir: enumerate, persist,
// evaluate, scan), daemon restart, warm query (snapshot and result from
// disk), and three first-seen formulas on the now-resident system.
func runCold(cfg *Config, res *Result, key KeySpec) error {
	g := NewGen(cfg.Seed)
	hc := newHTTP()

	// Set-up is daemon start until healthy: the cycle itself builds
	// the key, so nothing is resident before it.
	var setup []float64
	for i := 0; i < startRuns; i++ {
		dir := filepath.Join(cfg.Work, fmt.Sprintf("setup-%d", i))
		t0 := time.Now()
		d, err := startOne(cfg, dir)
		if err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
		d.stop()
		os.RemoveAll(dir)
	}
	res.set("setup_s", "s", median(setup), len(setup))

	// Every cycle's cold query is the paper's converse, so the cold and
	// warm medians are one formula's cost; the seed draws the hot
	// formulas.
	f := paperInvalid
	var cold, warm, hot, all, tails, rss []float64
	var firstHot []answered
	firstDir := ""
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.Seconds) * time.Second)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		dir := filepath.Join(cfg.Work, fmt.Sprintf("cycle-%d", cycle))
		first := len(all)
		d, err := startOne(cfg, dir)
		if err != nil {
			return err
		}
		s := ask(hc, d.URL, key, f)
		var coldAns Answer
		if res.account(s) {
			res.expectOrigin(s, "enumerated", "enumerated")
			cold, all = append(cold, s.lat), append(all, s.lat)
			coldAns = answerOf(s.resp)
		}
		peak, err := d.peakRSSMiB()
		d.stop()
		if err != nil {
			return err
		}

		if d, err = startOne(cfg, dir); err != nil {
			return err
		}
		s = ask(hc, d.URL, key, f)
		if res.account(s) {
			res.expectOrigin(s, "disk", "disk")
			warm, all = append(warm, s.lat), append(all, s.lat)
			if a := answerOf(s.resp); a != coldAns {
				res.fail("%s %q: warm answer %+v, cold answer %+v", key.Slug(), f, a, coldAns)
			}
		}
		for _, h := range g.HotSet(key.N) {
			s := ask(hc, d.URL, key, h)
			if !res.account(s) {
				continue
			}
			res.expectOrigin(s, "memory", "enumerated")
			hot, all = append(hot, s.lat), append(all, s.lat)
			if cycle == 0 {
				firstHot = append(firstHot, answered{Formula: h, Answer: answerOf(s.resp)})
			}
		}
		peak2, err := d.peakRSSMiB()
		d.stop()
		if err != nil {
			return err
		}
		rss = append(rss, max(peak, peak2))
		if reqs := all[first:]; len(reqs) > 0 {
			tails = append(tails, slices.Max(reqs))
		}
		if cycle == 0 {
			firstDir = dir
		} else {
			os.RemoveAll(dir)
		}
	}
	window := time.Since(start)

	res.set("cold_query_ms", "ms", median(cold), len(cold))
	res.set("warm_query_ms", "ms", median(warm), len(warm))
	res.set("hot_query_ms", "ms", median(hot), len(hot))
	// A run asks well under 100 requests, so a nearest-rank p99 would
	// be its single slowest one. The tail reported instead is the median
	// over cycles of each cycle's slowest request.
	res.set("req_p50_ms", "ms", median(all), len(all))
	res.set("req_p99_ms", "ms", median(tails), len(tails))
	res.Details["req_p99_ms"] = "median over cycles of each cycle's slowest request"
	res.set("qps", "queries/s", float64(len(all))/window.Seconds(), len(all))
	res.set("peak_rss_mb", "MiB", median(rss), len(rss))

	// Outside the window: the paper's other query on a daemon over the
	// first cycle's cache, the persisted snapshot against its pin, and
	// the first cycle's hot answers recomputed on the decoded system.
	d, err := startOne(cfg, firstDir)
	if err != nil {
		return err
	}
	res.account(ask(hc, d.URL, key, paperValid))
	d.stop()
	res.Attempted++
	sys, err := checkPin(firstDir, key)
	if err != nil {
		res.fail("%s: %v", key.Slug(), err)
		return nil
	}
	for _, a := range firstHot {
		want, err := recompute(sys, a.Formula)
		if err != nil {
			return err
		}
		if want != a.Answer {
			res.fail("%s %q: daemon answered %+v, in-process recompute %+v", key.Slug(), a.Formula, a.Answer, want)
		}
	}
	res.Details["recomputed"] = len(firstHot)
	return nil
}

// rung is one round of the multi-key ladder: from an empty cache dir,
// start a daemon and ask each key its cold query; restart over the same
// dir and ask again, warm; then ask each key a hot set (first-seen
// formulas on the resident system). A round's figures are means over
// the keys, so a median over rounds does not land on whichever key
// sorts to the middle. setup is the time from start until every key
// had answered cold.
type rung struct{ setup, cold, warm, hot float64 }

// ladderRound runs one rung. With keep the restarted daemon is returned
// still running; otherwise it is stopped and the dir removed.
func ladderRound(cfg *Config, res *Result, hc *http.Client, g *Gen, keys []KeySpec, round int, keep bool) (rung, *daemon, error) {
	dir := filepath.Join(cfg.Work, fmt.Sprintf("round-%d", round))
	var d *daemon
	// mean asks every key its formulas and returns the mean latency of
	// the answers that passed their checks.
	mean := func(formulas func(KeySpec) []string, system, result string) float64 {
		var sum float64
		n := 0
		for _, k := range keys {
			for _, f := range formulas(k) {
				s := ask(hc, d.URL, k, f)
				if res.account(s) {
					res.expectOrigin(s, system, result)
					sum += s.lat
					n++
				}
			}
		}
		return sum / float64(max(1, n))
	}
	paper := func(KeySpec) []string { return []string{paperInvalid} }

	var r rung
	var err error
	t0 := time.Now()
	if d, err = startOne(cfg, dir); err != nil {
		return r, nil, err
	}
	r.cold = mean(paper, "enumerated", "enumerated")
	r.setup = time.Since(t0).Seconds()
	d.stop()
	if d, err = startOne(cfg, dir); err != nil {
		return r, nil, err
	}
	r.warm = mean(paper, "disk", "disk")
	r.hot = mean(func(k KeySpec) []string { return g.HotSet(k.N) }, "memory", "enumerated")
	if keep {
		return r, d, nil
	}
	d.stop()
	os.RemoveAll(dir)
	return r, nil, nil
}

// setRungs records the cold, warm and hot medians over ladder rounds.
func (res *Result) setRungs(rungs []rung, keys []KeySpec) {
	var cold, warm, hot []float64
	for _, r := range rungs {
		cold, warm, hot = append(cold, r.cold), append(warm, r.warm), append(hot, r.hot)
	}
	n := len(rungs) * len(keys)
	res.set("cold_query_ms", "ms", median(cold), n)
	res.set("warm_query_ms", "ms", median(warm), n)
	res.set("hot_query_ms", "ms", median(hot), 3*n)
}

// closedLoop runs clients workers until the deadline; each calls step
// with its worker index until step returns false or time is up.
func closedLoop(d time.Duration, step func(worker int) bool) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) && step(w) {
			}
		}(w)
	}
	wg.Wait()
	return time.Since(start)
}

// runServeMix is serve-mix: two closed-loop clients sending single
// queries from the seeded mix to one daemon holding five resident
// systems. The window has no build and no disk, so the evaluator
// dominates.
func runServeMix(cfg *Config, res *Result) error {
	hc := newHTTP()
	// Set-up is setupRuns ladder rounds; the last round's restarted
	// daemon serves the mix.
	g := NewGen(cfg.Seed)
	var rungs []rung
	var setup []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		r, kept, err := ladderRound(cfg, res, hc, g, serveKeys, i, i == setupRuns-1)
		if err != nil {
			return err
		}
		rungs, setup, d = append(rungs, r), append(setup, r.setup), kept
	}
	res.set("setup_s", "s", median(setup), len(setup))
	res.setRungs(rungs, serveKeys)
	for _, k := range serveKeys {
		res.account(ask(hc, d.URL, k, paperValid))
	}

	// Every drawn item is asked and recorded, so the recorded items are
	// a prefix of the seeded stream; seq is an item's place in it.
	mix := NewMix(cfg.Seed, serveKeys, repeatShare)
	var mu sync.Mutex
	type record struct {
		seq  int
		item Item
		s    sample
	}
	perWorker := make([][]record, clients)
	drawn := 0
	window := closedLoop(time.Duration(cfg.Seconds)*time.Second, func(w int) bool {
		mu.Lock()
		it, seq := mix.Next(), drawn
		drawn++
		mu.Unlock()
		s := ask(hc, d.URL, serveKeys[it.Key], it.Formula)
		perWorker[w] = append(perWorker[w], record{seq, it, s})
		return true
	})
	peak, err := d.peakRSSMiB()
	d.stop()
	if err != nil {
		return err
	}

	var recs []record
	for _, rs := range perWorker {
		recs = append(recs, rs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	var all []float64
	var got []answered
	seen := map[Item]Answer{}
	for _, r := range recs {
		if !res.account(r.s) {
			continue
		}
		all = append(all, r.s.lat)
		a := answerOf(r.s.resp)
		k := Item{Key: r.item.Key, Formula: r.item.Formula}
		if prev, ok := seen[k]; ok && prev != a {
			res.fail("%s %q: answers %+v and %+v", serveKeys[k.Key].Slug(), k.Formula, prev, a)
		} else if !ok {
			seen[k] = a
			if len(got) < samplePrefix {
				got = append(got, answered{Key: k.Key, Formula: k.Formula, Answer: a})
			}
		}
	}
	// Nearest rank; a 30-second window answers well over a thousand
	// requests.
	res.set("req_p50_ms", "ms", median(all), len(all))
	res.set("req_p99_ms", "ms", quantile(append([]float64(nil), all...), 0.99), len(all))
	res.set("qps", "queries/s", float64(len(all))/window.Seconds(), len(all))
	res.set("peak_rss_mb", "MiB", peak, 1)
	return checkSample(res, NewGen(cfg.Seed+2), serveKeys, got, sampleChecks)
}
