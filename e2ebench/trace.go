package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/knowledge"
	"github.com/eventual-agreement/eba/internal/service"
	"github.com/eventual-agreement/eba/internal/store"
	"github.com/eventual-agreement/eba/internal/system"
	"github.com/eventual-agreement/eba/internal/types"
	"github.com/eventual-agreement/eba/internal/views"
)

// span is one recorded call at a layer boundary. A span's layer is its
// name up to the first dot; request.* spans are the roots that group
// one query's layer calls.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root
	Req    string  `json:"req"`
	Sweep  int     `json:"sweep"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"` // since the recorder's epoch
	End    float64 `json:"end_ms"`
	Alloc  uint64  `json:"alloc_bytes"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps the traced run's spans in memory until the run ends.
// It is used from one goroutine. With on false, call only runs fn: the
// untraced side of the overhead measurement.
type recorder struct {
	on    bool
	epoch time.Time
	sweep int
	req   string
	spans []span
	open  []int
}

// call runs fn inside a span named name, a child of the innermost open
// span. Allocation is read outside the timed interval.
func (r *recorder) call(name string, fn func()) {
	if !r.on {
		fn()
		return
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.TotalAlloc
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: r.req, Sweep: r.sweep, Name: name, Start: ms(time.Since(r.epoch))})
	r.open = append(r.open, id)
	fn()
	end := ms(time.Since(r.epoch))
	r.open = r.open[:len(r.open)-1]
	runtime.ReadMemStats(&m)
	r.spans[id].End = end
	r.spans[id].Alloc = m.TotalAlloc - before
}

// request runs fn as the root span of one request.
func (r *recorder) request(id, kind string, fn func()) {
	r.req = id
	r.call("request."+kind, fn)
	r.req = ""
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// The evaluator probes: one fresh evaluator per operator, the fill
// formula of the paper's converse, and the formula that warms an
// evaluator's frontiers and partitions over the other value.
var (
	opProbes = []struct{ metric, formula string }{
		{"eval_K", "K0 E0"},
		{"eval_E", "E E0"},
		{"eval_C", "C E0"},
		{"eval_Cbox", "Cbox E0"},
		{"eval_Cdia", "Cdia E0"},
	}
	warmFormula = "C E1 -> Cbox E1"
)

// tracedKeys is the key set each workload touches.
func tracedKeys(workload string) []KeySpec {
	switch workload {
	case "cold-omission":
		return []KeySpec{omissionKey}
	case "cold-crash":
		return []KeySpec{crashKey}
	default:
		return serveKeys
	}
}

// streamSize is how many requests of the workload's stream the traced
// run replays.
const streamSize = 40

// observed is one untraced HTTP answer: client latency and the
// response's provenance stages.
type observed struct {
	lat    float64
	stages service.StageTimings
	ans    Answer
}

// tracer is one traced run's state.
type tracer struct {
	cfg  *Config
	res  *Result
	rec  *recorder
	keys []KeySpec
	hot  []string // per key, the C-class hot formula
	dir  string   // in-process store directory
	hc   *http.Client

	// The workload's request stream sample, replayed over HTTP and
	// in-process; repeat marks a request the stream asked before.
	stream []service.Request
	repeat []bool
	// Untraced HTTP observations.
	cold, warm, hotObs []observed // per key
	hitLat             []float64  // per stream request, asked again (a hit)
	streamAns          []Answer
	queueMS            []float64
	resultHits         int // first asks answered from a result cache
	firstAsks          int
	sheds, httpAsked   int
	forwarded, items   int
	hop                []float64

	// Per sweep and key: the counts the spans do not carry.
	counts []map[string]float64
	// In-process service timings.
	resolveUS, executeMS, execHit, batchItemUS []float64
	// Per-key instance costs, per sweep.
	instance map[string][]map[string]float64
}

// runTraced is the traced run: the untraced HTTP observations the layer
// sums are reconciled against, then sweeps of in-process layer calls
// over the workload's keys until the window ends.
func runTraced(cfg *Config, res *Result) error {
	t := &tracer{
		cfg: cfg, res: res, keys: tracedKeys(cfg.Workload),
		rec:      &recorder{on: true, epoch: time.Now()},
		dir:      filepath.Join(cfg.Work, "inproc"),
		hc:       newHTTP(),
		instance: map[string][]map[string]float64{},
	}
	g := NewGen(cfg.Seed)
	for _, k := range t.keys {
		t.hot = append(t.hot, g.HotSet(k.N)[1])
	}
	t.drawStream(g)
	if err := t.probeHTTP(); err != nil {
		return err
	}
	if err := t.probeCluster(); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(cfg.Seconds) * time.Second)
	for sweep := 0; sweep == 0 || time.Now().Before(deadline); sweep++ {
		t.rec.sweep = sweep
		if err := t.sweep(sweep); err != nil {
			return err
		}
	}
	overhead, err := t.overhead()
	if err != nil {
		return err
	}
	t.derive(overhead)
	for _, k := range t.keys {
		res.Attempted++
		if _, err := checkPin(t.dir, k); err != nil {
			res.fail("in-process snapshot of %s: %v", k.Slug(), err)
		}
	}
	tracePath := filepath.Join(cfg.Root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", cfg.Workload, cfg.Seed))
	if err := t.rec.write(tracePath); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	res.Details["spans"] = len(t.rec.spans)
	res.Details["span_file"] = filepath.Join(".bench_build", "traces", filepath.Base(tracePath))
	return nil
}

// drawStream draws the first streamSize requests of the workload's
// stream with the untraced run's generators.
func (t *tracer) drawStream(g *Gen) {
	add := func(k KeySpec, f string, repeat bool) {
		t.stream = append(t.stream, k.Request(f))
		t.repeat = append(t.repeat, repeat)
	}
	switch t.cfg.Workload {
	case "serve-mix":
		mix := NewMix(t.cfg.Seed, serveKeys, repeatShare)
		for i := 0; i < streamSize; i++ {
			it := mix.Next()
			add(serveKeys[it.Key], it.Formula, it.Repeat)
		}
	default:
		for _, f := range g.HotSet(t.keys[0].N) {
			add(t.keys[0], f, false)
		}
	}
}

// keyOf finds the traced key a stream request targets.
func (t *tracer) keyOf(req service.Request) KeySpec {
	for _, k := range t.keys {
		if k.N == req.N && k.T == req.T && k.Mode == req.Mode && k.H == req.Horizon {
			return k
		}
	}
	panic("stream request outside the traced keys")
}

// askHTTP is ask plus the traced run's accounting.
func (t *tracer) askHTTP(base string, k KeySpec, formula string) (sample, bool) {
	s := ask(t.hc, base, k, formula)
	t.httpAsked++
	if shedStatus(s.code) {
		t.sheds++
	}
	ok := t.res.account(s)
	if ok && s.resp.Provenance != nil {
		t.queueMS = append(t.queueMS, s.resp.Provenance.Stages.QueueMS)
	}
	return s, ok
}

// probeHTTP takes the untraced observations on one daemon: each key's
// cold, warm and hot query, then the stream sample asked twice.
func (t *tracer) probeHTTP() error {
	dir := filepath.Join(t.cfg.Work, "http")
	d, err := startOne(t.cfg, dir)
	if err != nil {
		return err
	}
	for _, k := range t.keys {
		s, ok := t.askHTTP(d.URL, k, paperInvalid)
		if ok {
			t.res.expectOrigin(s, "enumerated", "enumerated")
		}
		t.cold = append(t.cold, observeIf(s, ok))
		t.countHit(s, ok)
	}
	d.stop()
	if d, err = startOne(t.cfg, dir); err != nil {
		return err
	}
	defer d.stop()
	for i, k := range t.keys {
		s, ok := t.askHTTP(d.URL, k, paperInvalid)
		if ok {
			t.res.expectOrigin(s, "disk", "disk")
		}
		t.warm = append(t.warm, observeIf(s, ok))
		t.countHit(s, ok)
		s, ok = t.askHTTP(d.URL, k, t.hot[i])
		t.hotObs = append(t.hotObs, observeIf(s, ok))
		t.countHit(s, ok)
	}
	for _, req := range t.stream {
		k := t.keyOf(req)
		s, ok := t.askHTTP(d.URL, k, req.Formula)
		t.streamAns = append(t.streamAns, observeIf(s, ok).ans)
		t.countHit(s, ok)
		s, ok = t.askHTTP(d.URL, k, req.Formula)
		t.hitLat = append(t.hitLat, observeIf(s, ok).lat)
	}
	return nil
}

// countHit counts a first ask towards the result-cache hit ratio.
func (t *tracer) countHit(s sample, ok bool) {
	t.firstAsks++
	if ok && s.resp.ResultOrigin != "enumerated" {
		t.resultHits++
	}
}

// observeIf turns a successful sample into an observation, and a
// failed one (already counted) into a placeholder no answer equals.
func observeIf(s sample, ok bool) observed {
	if !ok {
		return observed{ans: Answer{Point: -2}}
	}
	o := observed{lat: s.lat, ans: answerOf(s.resp)}
	if s.resp.Provenance != nil {
		o.stages = s.resp.Provenance.Stages
	}
	return o
}

// probeCluster runs the stream sample through a three-node fleet: each
// owner's items as one batch through a non-owner entry node and again
// straight to the owner (the difference is the router hop), and whole
// batches through seed-chosen entries (the forwarded share).
func (t *tracer) probeCluster() error {
	var dirs []string
	for i := range nodeNames {
		dirs = append(dirs, filepath.Join(t.cfg.Work, fmt.Sprintf("fleet-%d", i)))
	}
	fleet, err := startFleet(t.cfg, dirs)
	if err != nil {
		return err
	}
	defer func() {
		for _, d := range fleet {
			d.stop()
		}
	}()
	if err := awaitMembership(fleet); err != nil {
		return err
	}
	groups := make([][]service.Request, len(fleet))
	for _, req := range t.stream {
		k := t.keyOf(req)
		o := owner(k)
		t.askHTTP(fleet[o].URL, k, req.Formula) // warm on the owner
		groups[o] = append(groups[o], req)
	}
	hc := t.hc
	batch := func(d *daemon, reqs []service.Request) (*service.BatchResponse, float64, bool) {
		t.res.Attempted++
		resp, code, lat, err := queryBatch(hc, d.URL, reqs)
		if shedStatus(code) {
			t.sheds++
		}
		t.httpAsked++
		if err != nil {
			t.res.fail("%v", err)
			return nil, 0, false
		}
		return resp, ms(lat), true
	}
	g := NewGen(t.cfg.Seed + 2)
	for round := 0; round < 5; round++ {
		for o, reqs := range groups {
			if len(reqs) == 0 {
				continue
			}
			entry := fleet[(o+1)%len(fleet)]
			var viaEntry, direct float64
			var ok1, ok2 bool
			if round%2 == 0 {
				_, viaEntry, ok1 = batch(entry, reqs)
				_, direct, ok2 = batch(fleet[o], reqs)
			} else {
				_, direct, ok2 = batch(fleet[o], reqs)
				_, viaEntry, ok1 = batch(entry, reqs)
			}
			if ok1 && ok2 {
				t.hop = append(t.hop, viaEntry-direct)
			}
		}
		e := g.Entry(len(fleet))
		resp, _, ok := batch(fleet[e], t.stream)
		if !ok {
			continue
		}
		for i, item := range resp.Results {
			t.items++
			switch {
			case item.Response == nil:
				t.res.fail("batch item %q: status %d: %s", t.stream[i].Formula, item.Status, item.Error)
			case answerOf(item.Response) != t.streamAns[i]:
				t.res.fail("batch item %q: answer %+v, single query %+v", t.stream[i].Formula, answerOf(item.Response), t.streamAns[i])
			case item.Response.Provenance != nil && item.Response.Provenance.Node != fleet[e].Name:
				t.forwarded++
			}
		}
	}
	return nil
}

// enumPatterns is the failures-layer call the store's cold path makes
// for the key's mode.
func enumPatterns(key store.Key) ([]*failures.Pattern, error) {
	switch key.Mode {
	case failures.Crash:
		return failures.EnumCrash(key.N, key.T, key.Horizon)
	case failures.Omission:
		return failures.EnumOmission(key.N, key.T, key.Horizon, key.Limit)
	case failures.ReceivingOmission:
		return failures.EnumReceiving(key.N, key.T, key.Horizon, key.Limit)
	case failures.GeneralOmission:
		return failures.EnumGeneral(key.N, key.T, key.Horizon, key.Limit)
	}
	return nil, fmt.Errorf("unknown mode %v", key.Mode)
}

// scan is the engine's counterexample scan over a truth table.
func scan(sys *system.System, tbl *knowledge.Bits) Answer {
	a := Answer{Valid: tbl.All(), True: tbl.Count(), Total: tbl.Len(), Point: -1}
	if !a.Valid {
		a.Point = tbl.FirstZero()
		pt := sys.PointAt(a.Point)
		run := sys.RunOf(pt)
		_ = run.Config.String() + run.Pattern.String()
	}
	return a
}

// sweep makes one pass of in-process layer calls over every key, then
// replays the stream sample through an in-process engine.
func (t *tracer) sweep(sweep int) error {
	r := t.rec
	counts := map[string]float64{}
	t.counts = append(t.counts, counts)
	// Every sweep starts with no stored truth tables, as the workload's
	// daemons do, so its first-seen requests compute.
	if err := os.RemoveAll(filepath.Join(t.dir, "results")); err != nil {
		return err
	}
	for i, k := range t.keys {
		if err := t.sweepKey(sweep, i, k, counts); err != nil {
			return err
		}
	}

	// The store and engine the daemon would serve from after a restart.
	var st *store.Store
	var err error
	r.request(fmt.Sprintf("s%d/open", sweep), "open", func() {
		r.call("store.open", func() { st, err = store.Open(t.dir, 0) })
		for _, k := range t.keys {
			r.call("store.disk_load", func() {
				if err == nil {
					_, _, err = st.System(k.StoreKey())
				}
			})
		}
	})
	if err != nil {
		return err
	}
	eng := service.NewEngine(st, 0)
	srv := service.NewServer(eng)
	ctx := context.Background()
	for i, req := range t.stream {
		var resp *service.Response
		r.request(fmt.Sprintf("s%d/stream%d", sweep, i), "execute", func() {
			start := time.Now()
			r.call("service.resolve", func() { _, _, err = eng.Resolve(req) })
			t.resolveUS = append(t.resolveUS, float64(time.Since(start).Nanoseconds())/1e3)
			if err != nil {
				return
			}
			start = time.Now()
			r.call("service.execute", func() { resp, err = eng.ExecuteSync(ctx, req) })
			if !t.repeat[i] {
				t.executeMS = append(t.executeMS, ms(time.Since(start)))
			}
		})
		if err != nil {
			return err
		}
		t.res.Attempted++
		if a := answerOf(resp); a != t.streamAns[i] {
			t.res.fail("%q: in-process engine answered %+v, daemon %+v", req.Formula, a, t.streamAns[i])
		}
		start := time.Now()
		if _, err := eng.ExecuteSync(ctx, req); err != nil {
			return err
		}
		t.execHit = append(t.execHit, float64(time.Since(start).Nanoseconds())/1e3)
	}
	r.request(fmt.Sprintf("s%d/batch", sweep), "batch", func() {
		start := time.Now()
		var items []service.BatchItem
		r.call("service.batch", func() { items = srv.ExecuteBatch(ctx, t.stream) })
		t.batchItemUS = append(t.batchItemUS, float64(time.Since(start).Nanoseconds())/1e3/float64(len(items)))
		r.call("cluster.route", func() {
			for _, req := range t.stream {
				key, _, _ := eng.Resolve(req)
				ring.Owner(key.Slug())
			}
		})
	})
	return nil
}

// sweepKey makes one key's traced cold, warm and hot requests — the
// daemon's calls in the daemon's order — and then the layer probes.
func (t *tracer) sweepKey(sweep, ki int, k KeySpec, counts map[string]float64) error {
	r := t.rec
	key := k.StoreKey()
	params := types.Params{N: key.N, T: key.T}
	slug := key.Slug()
	snapPath := filepath.Join(t.dir, "systems", slug+".eba")
	resPath := filepath.Join(t.dir, "results", slug+"-%s.bits")
	var err error
	var pats []*failures.Pattern
	var sys *system.System
	var data []byte
	// step records one layer call; after a failed call the request's
	// later calls are skipped and the first error is returned.
	step := func(name string, fn func() error) {
		r.call(name, func() {
			if err == nil {
				err = fn()
			}
		})
	}
	persist := func(tbl *knowledge.Bits, f knowledge.Formula, name string) {
		step("store.result_write", func() error {
			packed, err := tbl.MarshalBinary()
			if err != nil {
				return err
			}
			return store.OSFS{}.WriteAtomic(fmt.Sprintf(resPath, name), store.EncodeResult(f.String(), packed))
		})
	}
	check := func(kind, formula string, got Answer, want observed) {
		t.res.Attempted++
		if got != want.ans {
			t.res.fail("%s %s %q: in-process %+v, daemon %+v", slug, kind, formula, got, want.ans)
		}
	}
	resolve := func(formula string, f *knowledge.Formula) {
		step("service.resolve", func() (err error) {
			_, *f, err = resolver.Resolve(k.Request(formula))
			return err
		})
	}
	eval := func(on *system.System, f knowledge.Formula, tbl **knowledge.Bits) {
		step("knowledge.eval", func() error {
			*tbl = knowledge.NewEvaluator(on).Eval(f)
			return nil
		})
	}
	scanned := func(on *system.System, tbl *knowledge.Bits, ans *Answer) {
		step("service.scan", func() error {
			*ans = scan(on, tbl)
			return nil
		})
	}

	// Cold: resolve, enumerate patterns, build (default workers),
	// encode, persist, evaluate on a fresh evaluator, persist the
	// table, scan.
	var ans Answer
	r.request(fmt.Sprintf("s%d/%s/cold", sweep, slug), "cold", func() {
		var f knowledge.Formula
		var tbl *knowledge.Bits
		resolve(paperInvalid, &f)
		step("failures.enum", func() (err error) {
			pats, err = enumPatterns(key)
			return err
		})
		step("system.build_par", func() (err error) {
			sys, err = system.FromPatternsParallel(params, key.Mode, key.Horizon, pats, 0)
			return err
		})
		step("store.encode", func() (err error) {
			data, err = store.EncodeSystem(key, sys)
			return err
		})
		step("store.write", func() error { return store.OSFS{}.WriteAtomic(snapPath, data) })
		eval(sys, f, &tbl)
		persist(tbl, f, "cold")
		scanned(sys, tbl, &ans)
	})
	if err != nil {
		return fmt.Errorf("%s cold: %w", slug, err)
	}
	check("cold", paperInvalid, ans, t.cold[ki])
	counts["failures.patterns"] += float64(len(pats))
	counts["store.snapshot_bytes"] += float64(len(data))
	runs, points := sys.NumRuns(), sys.NumPoints()
	sys = nil

	// Warm: resolve, read and decode the snapshot, read the table,
	// scan.
	var warm *system.System
	r.request(fmt.Sprintf("s%d/%s/warm", sweep, slug), "warm", func() {
		var f knowledge.Formula
		var raw []byte
		var tbl knowledge.Bits
		resolve(paperInvalid, &f)
		step("store.read", func() (err error) {
			raw, err = os.ReadFile(snapPath)
			return err
		})
		step("store.decode", func() (err error) {
			_, warm, err = store.DecodeSystem(raw)
			return err
		})
		step("store.result_read", func() error {
			blob, err := os.ReadFile(fmt.Sprintf(resPath, "cold"))
			if err != nil {
				return err
			}
			_, packed, err := store.DecodeResult(blob)
			if err != nil {
				return err
			}
			return tbl.UnmarshalBinary(packed)
		})
		scanned(warm, &tbl, &ans)
	})
	if err != nil {
		return fmt.Errorf("%s warm: %w", slug, err)
	}
	check("warm", paperInvalid, ans, t.warm[ki])

	// Hot: resolve, evaluate a first-seen formula on the resident
	// system, persist, scan.
	r.request(fmt.Sprintf("s%d/%s/hot", sweep, slug), "hot", func() {
		var f knowledge.Formula
		var tbl *knowledge.Bits
		resolve(t.hot[ki], &f)
		eval(warm, f, &tbl)
		persist(tbl, f, "hot")
		scanned(warm, tbl, &ans)
	})
	if err != nil {
		return fmt.Errorf("%s hot: %w", slug, err)
	}
	check("hot", t.hot[ki], ans, t.hotObs[ki])

	// Layer probes, one call each.
	r.req = fmt.Sprintf("s%d/%s/probe", sweep, slug)
	defer func() { r.req = "" }()
	var in *views.Interner
	var built []*system.Run
	r.call("views.intern", func() {
		in = views.NewInterner(key.N)
		nconfigs := uint64(1) << uint(key.N)
		built = make([]*system.Run, 0, len(pats)*int(nconfigs))
		for _, pat := range pats {
			for mask := uint64(0); mask < nconfigs; mask++ {
				cfg := types.ConfigFromBits(key.N, mask)
				built = append(built, &system.Run{Index: len(built), Config: cfg, Pattern: pat, Views: views.BuildRun(in, cfg, pat)})
			}
		}
	})
	counts["views.distinct"] += float64(in.Size())
	counts["views.slots"] += float64(points * key.N)
	r.call("system.assemble", func() { _, err = system.Reassemble(params, key.Mode, key.Horizon, in, built) })
	if err != nil {
		return fmt.Errorf("%s reassemble: %w", slug, err)
	}
	in, built = nil, nil

	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.HeapAlloc
	var one *system.System
	r.call("system.build", func() { one, err = system.FromPatterns(params, key.Mode, key.Horizon, pats) })
	if err != nil {
		return fmt.Errorf("%s build: %w", slug, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m)
	counts["system.heap_bytes"] += float64(m.HeapAlloc) - float64(before)
	counts["system.points"] += float64(one.NumPoints())
	runtime.KeepAlive(one)
	one = nil

	r.call("store.digest", func() { err = store.VerifySnapshot(data) })
	if err != nil {
		return fmt.Errorf("%s digest: %w", slug, err)
	}

	addStats := func(ev *knowledge.Evaluator) {
		st := ev.Stats()
		counts["knowledge.fixpoint_iters"] += float64(st.FixedPointTotal())
		counts["knowledge.shards"] += float64(st.Shards)
	}
	parse := func(src string) knowledge.Formula {
		f, e := knowledge.Parse(src)
		if e != nil {
			panic(e)
		}
		return f
	}
	for _, p := range opProbes {
		f := parse(p.formula)
		ev := knowledge.NewEvaluator(warm)
		r.call("knowledge."+p.metric, func() { ev.Eval(f) })
		addStats(ev)
	}
	fill := parse(paperInvalid)
	serial := knowledge.NewEvaluator(warm)
	serial.SetParallelism(1)
	r.call("knowledge.fill_serial", func() { serial.Eval(fill) })
	addStats(serial)
	par := knowledge.NewEvaluator(warm)
	r.call("knowledge.fill", func() { par.Eval(fill) })
	addStats(par)
	warmed := knowledge.NewEvaluator(warm)
	r.call("knowledge.warmup", func() { warmed.Eval(parse(warmFormula)) })
	r.call("knowledge.fill_warmed", func() { warmed.Eval(fill) })

	t.instance[slug] = append(t.instance[slug], map[string]float64{
		"runs": float64(runs), "points": float64(points), "views": float64(warm.Interner.Size()),
	})
	return nil
}

// overheadPairs is how many traced/untraced pairs overhead times.
const overheadPairs = 8

// overhead times the first key's hot request with the recorder on and
// off, alternating, and returns traced/untraced − 1 of the medians.
func (t *tracer) overhead() (float64, error) {
	k := t.keys[0]
	data, err := os.ReadFile(filepath.Join(t.dir, "systems", k.Slug()+".eba"))
	if err != nil {
		return 0, err
	}
	_, sys, err := store.DecodeSystem(data)
	if err != nil {
		return 0, err
	}
	r := &recorder{epoch: time.Now()}
	var on, off []float64
	for i := 0; i < 2*overheadPairs; i++ {
		r.on = i%2 == 0
		start := time.Now()
		r.request("overhead", "hot", func() {
			var f knowledge.Formula
			r.call("service.resolve", func() { _, f, err = resolver.Resolve(k.Request(t.hot[0])) })
			var tbl *knowledge.Bits
			r.call("knowledge.eval", func() { tbl = knowledge.NewEvaluator(sys).Eval(f) })
			r.call("service.scan", func() { scan(sys, tbl) })
		})
		if r.on {
			on = append(on, ms(time.Since(start)))
		} else {
			off = append(off, ms(time.Since(start)))
		}
	}
	return median(on)/median(off) - 1, err
}

// layerOf is a span's layer: its name up to the first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// layers are the program's layers, outside-in order of a cold query.
var layers = []string{"service", "failures", "views", "system", "store", "knowledge", "cluster"}

// derive turns the spans and observations into the per-layer metrics.
func (t *tracer) derive(overhead float64) {
	res := t.res
	sweeps := len(t.counts)
	byName := make([]map[string]float64, sweeps)  // summed span ms per sweep
	byLayer := make([]map[string]float64, sweeps) // summed alloc bytes per sweep
	byReq := make([]map[string]float64, sweeps)   // summed child-span ms per request
	for i := range byName {
		byName[i], byLayer[i], byReq[i] = map[string]float64{}, map[string]float64{}, map[string]float64{}
	}
	for _, s := range t.rec.spans {
		if layerOf(s.Name) == "request" {
			continue
		}
		byName[s.Sweep][s.Name] += s.dur()
		byLayer[s.Sweep][layerOf(s.Name)] += float64(s.Alloc)
		if s.Parent >= 0 {
			byReq[s.Sweep][s.Req] += s.dur()
		}
	}
	per := func(src []map[string]float64, key string) []float64 {
		out := make([]float64, len(src))
		for i, m := range src {
			out[i] = m[key]
		}
		return out
	}
	spanMS := func(name string) float64 { return median(per(byName, name)) }
	count := func(name string) float64 { return median(per(t.counts, name)) }

	for _, m := range []struct{ metric, span string }{
		{"failures.enum_ms", "failures.enum"},
		{"views.intern_ms", "views.intern"},
		{"system.assemble_ms", "system.assemble"},
		{"system.build_ms", "system.build"},
		{"system.build_par_ms", "system.build_par"},
		{"store.encode_ms", "store.encode"},
		{"store.digest_ms", "store.digest"},
		{"store.decode_ms", "store.decode"},
		{"store.disk_load_ms", "store.disk_load"},
		{"knowledge.fill_serial_ms", "knowledge.fill_serial"},
		{"knowledge.fill_ms", "knowledge.fill"},
	} {
		res.set(m.metric, "ms", spanMS(m.span), sweeps)
	}
	for _, p := range opProbes {
		res.set("knowledge."+p.metric+"_ms", "ms", spanMS("knowledge."+p.metric), sweeps)
	}
	frontier := make([]float64, sweeps)
	for i := range frontier {
		frontier[i] = byName[i]["knowledge.fill"] - byName[i]["knowledge.fill_warmed"]
	}
	res.set("knowledge.frontier_ms", "ms", median(frontier), sweeps)
	res.set("system.par_speedup", "ratio", spanMS("system.build")/spanMS("system.build_par"), sweeps)
	res.set("knowledge.par_speedup", "ratio", spanMS("knowledge.fill_serial")/spanMS("knowledge.fill"), sweeps)

	res.set("failures.patterns", "count", count("failures.patterns"), sweeps)
	res.set("views.distinct", "count", count("views.distinct"), sweeps)
	res.set("views.dedup_ratio", "ratio", count("views.distinct")/count("views.slots"), sweeps)
	res.set("system.heap_bytes_per_point", "bytes/point", count("system.heap_bytes")/count("system.points"), sweeps)
	res.set("store.snapshot_bytes", "bytes", count("store.snapshot_bytes"), sweeps)
	res.set("knowledge.fixpoint_iters", "count", count("knowledge.fixpoint_iters"), sweeps)
	res.set("knowledge.shards", "count", count("knowledge.shards"), sweeps)
	res.set("store.result_hit_ratio", "ratio", float64(t.resultHits)/float64(t.firstAsks), t.firstAsks)

	res.set("service.resolve_us", "us", median(t.resolveUS), len(t.resolveUS))
	res.set("service.execute_ms", "ms", median(t.executeMS), len(t.executeMS))
	var httpUS []float64
	for j, hit := range t.execHit {
		httpUS = append(httpUS, t.hitLat[j%len(t.stream)]*1e3-hit)
	}
	res.set("service.http_us", "us", median(httpUS), len(httpUS))
	res.set("service.queue_ms", "ms", median(t.queueMS), len(t.queueMS))
	res.set("service.shed_ratio", "ratio", float64(t.sheds)/float64(max(1, t.httpAsked)), t.httpAsked)
	res.set("service.batch_item_us", "us", median(t.batchItemUS), len(t.batchItemUS))
	res.set("cluster.forwarded_ratio", "ratio", float64(t.forwarded)/float64(max(1, t.items)), t.items)
	res.set("cluster.hop_ms", "ms", median(t.hop), len(t.hop))
	for _, l := range layers {
		res.set(l+".alloc_mb", "MiB", median(per(byLayer, l))/(1<<20), sweeps)
	}
	res.set("trace.overhead_frac", "ratio", overhead, 2*overheadPairs)

	// Reconcile: each key's cold, warm and hot query, untraced over
	// HTTP against the sum of the traced in-process layer calls, stage
	// by stage against the untraced response's provenance.
	stageOf := map[string]string{
		"failures.enum": "load", "system.build_par": "load", "store.encode": "load", "store.write": "load",
		"store.read": "load", "store.decode": "load",
		"knowledge.eval": "eval", "store.result_write": "eval", "store.result_read": "eval",
		"service.scan": "scan",
	}
	var e2eSum, layerSum float64
	var rows []map[string]any
	for ki, k := range t.keys {
		for _, q := range []struct {
			kind string
			obs  observed
		}{{"cold", t.cold[ki]}, {"warm", t.warm[ki]}, {"hot", t.hotObs[ki]}} {
			stages := make([]map[string]float64, sweeps)
			sums := make([]float64, sweeps)
			for i := range stages {
				stages[i] = map[string]float64{}
				sums[i] = byReq[i][fmt.Sprintf("s%d/%s/%s", i, k.Slug(), q.kind)]
			}
			for _, s := range t.rec.spans {
				if s.Req == fmt.Sprintf("s%d/%s/%s", s.Sweep, k.Slug(), q.kind) && stageOf[s.Name] != "" {
					stages[s.Sweep][stageOf[s.Name]] += s.dur()
				}
			}
			layersMS := median(sums)
			e2eSum += q.obs.lat
			layerSum += layersMS
			rows = append(rows, map[string]any{
				"key": k.Slug(), "query": q.kind,
				"http_ms": q.obs.lat, "layers_ms": layersMS,
				"load_ms": q.obs.stages.LoadMS, "load_layers_ms": median(per(stages, "load")),
				"eval_ms": q.obs.stages.EvalMS, "eval_layers_ms": median(per(stages, "eval")),
				"scan_ms": q.obs.stages.ScanMS, "scan_layers_ms": median(per(stages, "scan")),
			})
		}
	}
	res.set("trace.unexplained_frac", "ratio", (e2eSum-layerSum)/e2eSum, 3*len(t.keys))
	res.Details["reconcile"] = rows

	// Per-instance cost table: build (one worker), decode and the
	// C E0 -> Cbox E0 fill (default workers), per point and per run.
	instances := map[string]map[string]float64{}
	for _, k := range t.keys {
		slug := k.Slug()
		row := map[string]float64{}
		for name, v := range t.instance[slug][0] {
			row[name] = v
		}
		for _, c := range []struct{ name, req, span string }{
			{"build", "probe", "system.build"}, {"decode", "warm", "store.decode"}, {"fill", "probe", "knowledge.fill"},
		} {
			var ns []float64
			for _, s := range t.rec.spans {
				if s.Name == c.span && s.Req == fmt.Sprintf("s%d/%s/%s", s.Sweep, slug, c.req) {
					ns = append(ns, s.dur()*1e6)
				}
			}
			row[c.name+"_ns_per_point"] = median(ns) / row["points"]
			row[c.name+"_ns_per_run"] = median(ns) / row["runs"]
		}
		instances[slug] = row
	}
	res.Details["instances"] = instances
	res.Details["sweeps"] = sweeps
}
