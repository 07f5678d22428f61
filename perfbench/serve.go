package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"harmonia"
	"harmonia/internal/export"
	"harmonia/internal/faults"
	"harmonia/internal/serve"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/timeline"
	"harmonia/internal/trace"
)

// Settings of the serve-mixed workload.
const (
	faultIntensity = 0.5
	faultSeeds     = 4 // faulted POSTs draw their fault seed from 1..faultSeeds
	readBack       = 16
	clients        = 2
	// maxRuns is the daemon default cap on retained runs. Every run
	// fills the registry within its first seconds, so the per-submit
	// retention scan works at the daemon's steady size.
	maxRuns = 4096
)

// Request kinds.
const (
	kindPost = iota
	kindGet
	kindTimeline
	kindSpans
)

// mixEntry is one line of the request mix.
type mixEntry struct {
	weight int
	kind   int
	policy string
	faulty bool
}

// requestMix is 80% POST /v1/runs and 20% reads of an earlier run,
// weighted in percent.
var requestMix = []mixEntry{
	{35, kindPost, "harmonia", false},
	{10, kindPost, "baseline", false},
	{10, kindPost, "cg-only", false},
	{10, kindPost, "oracle", false},
	{5, kindPost, "powertune", false},
	{10, kindPost, "harmonia", true},
	{5, kindGet, "", false},
	{10, kindTimeline, "", false},
	{5, kindSpans, "", false},
}

// servedPolicies are the policies the warm-up and the references cover.
var servedPolicies = []string{"harmonia", "baseline", "cg-only", "oracle", "powertune"}

// runKey identifies a served run's expected report.
type runKey struct {
	app, policy string
	faultSeed   int64 // 0: fault-free
}

// request is one generated client request. Reads name a run by how far
// back in the client's own finished POSTs it lies (0 = the latest).
type request struct {
	kind int
	key  runKey
	back int
}

// requestStream generates one client's request sequence from the seed.
// It deals from shuffled decks rather than drawing independently: every
// 100 requests hold the mix's exact counts, and the POSTs cycle through
// the 14 apps, so seeds change the order of the work but not its
// composition, and runs with different seeds stay comparable.
type requestStream struct {
	rng        *rand.Rand
	mix        []mixEntry // one entry per percent of the mix
	apps       []string
	mixD, appD deck
	first      bool
}

// deck deals indices 0..n-1 in shuffled order, reshuffling when empty.
type deck struct {
	order []int
	at    int
}

func (d *deck) deal(rng *rand.Rand, n int) int {
	if d.at == len(d.order) {
		d.order, d.at = rng.Perm(n), 0
	}
	d.at++
	return d.order[d.at-1]
}

func newRequestStream(seed int64, client int) *requestStream {
	s := &requestStream{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client))), first: true}
	for _, m := range requestMix {
		for i := 0; i < m.weight; i++ {
			s.mix = append(s.mix, m)
		}
	}
	for _, a := range harmonia.Suite() {
		s.apps = append(s.apps, a.Name)
	}
	return s
}

// next returns the next request. A client's first request is always a
// POST, so every read has an earlier run to name.
func (s *requestStream) next() request {
	for {
		m := s.mix[s.mixD.deal(s.rng, len(s.mix))]
		if m.kind != kindPost {
			if s.first {
				continue
			}
			return request{kind: m.kind, back: s.rng.Intn(readBack)}
		}
		s.first = false
		key := runKey{app: s.apps[s.appD.deal(s.rng, len(s.apps))], policy: m.policy}
		if m.faulty {
			key.faultSeed = 1 + s.rng.Int63n(faultSeeds)
		}
		return request{kind: kindPost, key: key}
	}
}

// local builds the policy and run options of a served request on sys,
// as the server does (its oracle sweeps with a one-worker share).
func local(sys *harmonia.System, k runKey) (harmonia.Policy, []harmonia.RunOption, error) {
	app := harmonia.App(k.app)
	var opts []harmonia.RunOption
	if k.faultSeed != 0 {
		opts = append(opts, harmonia.RunWithFaults(harmonia.FaultProfile(k.faultSeed, faultIntensity)))
	}
	var p harmonia.Policy
	var err error
	switch k.policy {
	case "harmonia":
		p, err = sys.HarmoniaE()
	case "cg-only":
		p, err = sys.CGOnlyE()
	case "baseline":
		p = sys.Baseline()
	case "powertune":
		p = sys.PowerTune(250)
	case "oracle":
		p = sys.OracleWithWorkers(1, app)
	default:
		err = fmt.Errorf("unknown policy %q", k.policy)
	}
	return p, opts, err
}

// reportBytes is the compact JSON of a report as the server embeds it.
func reportBytes(rep *session.Report) []byte {
	b, _ := json.Marshal(export.Report(rep)) // plain data; Marshal cannot fail
	return b
}

// servedEnv is one set-up of the serve-mixed workload: a daemon-default
// server over a warm memo, and the expected report of every request the
// mix can send, computed on a separate local System.
type servedEnv struct {
	ref    *harmonia.System
	refs   map[runKey][]byte
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
}

func newSystem() (*harmonia.System, error) {
	sys := harmonia.NewSystem(harmonia.WithSimCache())
	_, err := sys.TrainedPredictor()
	return sys, err
}

// setUpServe builds one servedEnv: train, start the server, compute the
// references, and warm the server's memo with one request per (app,
// policy), each checked against its reference.
func setUpServe() (*servedEnv, error) {
	sys, err := newSystem()
	if err != nil {
		return nil, err
	}
	srv := serve.New(sys, serve.Options{QualityMaxSamples: 8, MaxRuns: maxRuns, Logger: log.New(io.Discard, "", 0)})
	e := &servedEnv{
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		refs:   map[runKey][]byte{},
	}
	if e.ref, err = newSystem(); err != nil {
		e.close()
		return nil, err
	}
	for _, a := range harmonia.Suite() {
		var keys []runKey
		for _, p := range servedPolicies {
			keys = append(keys, runKey{app: a.Name, policy: p})
		}
		for f := int64(1); f <= faultSeeds; f++ {
			keys = append(keys, runKey{app: a.Name, policy: "harmonia", faultSeed: f})
		}
		for _, k := range keys {
			pol, opts, err := local(e.ref, k)
			if err != nil {
				e.close()
				return nil, err
			}
			rep, err := e.ref.RunContext(context.Background(), a, pol, opts...)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("reference %v: %w", k, err)
			}
			e.refs[k] = reportBytes(rep)
		}
	}
	for _, a := range harmonia.Suite() {
		for _, p := range servedPolicies {
			k := runKey{app: a.Name, policy: p}
			if _, err := e.post(k); err != nil {
				e.close()
				return nil, fmt.Errorf("warm-up %v: %w", k, err)
			}
		}
	}
	return e, nil
}

func (e *servedEnv) close() {
	e.ts.Close()
	e.srv.Close()
	e.client.CloseIdleConnections()
}

// served is a checked POST reply.
type served struct {
	id   string
	size int
}

// runReply is the part of a served run record the checks read.
type runReply struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Report json.RawMessage `json:"report"`
}

// checkReply decodes a run record and compares its report with the
// reference for k.
func (e *servedEnv) checkReply(body []byte, k runKey) (runReply, error) {
	var r runReply
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decode run: %w", err)
	}
	if r.Status != serve.StatusDone {
		return r, fmt.Errorf("run %s status %q", r.ID, r.Status)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, r.Report); err != nil {
		return r, fmt.Errorf("run %s report: %w", r.ID, err)
	}
	if !bytes.Equal(compact.Bytes(), e.refs[k]) {
		return r, fmt.Errorf("run %s (%v): served report differs from the local reference", r.ID, k)
	}
	return r, nil
}

// post submits one run synchronously and checks its report.
func (e *servedEnv) post(k runKey) (served, error) {
	body := fmt.Sprintf(`{"app":%q,"policy":%q`, k.app, k.policy)
	if k.faultSeed != 0 {
		body += fmt.Sprintf(`,"fault_intensity":%g,"fault_seed":%d`, faultIntensity, k.faultSeed)
	}
	resp, err := e.client.Post(e.ts.URL+"/v1/runs", "application/json", strings.NewReader(body+"}"))
	if err != nil {
		return served{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return served{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return served{}, fmt.Errorf("POST %v: HTTP %d", k, resp.StatusCode)
	}
	r, err := e.checkReply(b, k)
	if err != nil {
		return served{}, err
	}
	return served{id: r.ID, size: len(b)}, nil
}

// get fetches a path and returns its body, failing on a non-200 reply.
func (e *servedEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return b, nil
}

// finished is a run a client finished earlier.
type finished struct {
	id  string
	key runKey
}

// read performs one read request against an earlier run and checks it.
func (e *servedEnv) read(kind int, f finished) error {
	switch kind {
	case kindGet:
		b, err := e.get("/v1/runs/" + f.id)
		if err != nil {
			return err
		}
		_, err = e.checkReply(b, f.key)
		return err
	case kindTimeline:
		b, err := e.get("/v1/runs/" + f.id + "/timeline")
		if err != nil {
			return err
		}
		var tl struct {
			App      string `json:"app"`
			Complete bool   `json:"complete"`
		}
		if err := json.Unmarshal(b, &tl); err != nil {
			return fmt.Errorf("timeline %s: %w", f.id, err)
		}
		if tl.App != f.key.app || !tl.Complete {
			return fmt.Errorf("timeline %s: app %q complete %v, want %q complete", f.id, tl.App, tl.Complete, f.key.app)
		}
	default:
		b, err := e.get("/v1/runs/" + f.id + "/spans")
		if err != nil {
			return err
		}
		if !json.Valid(b) || !bytes.Contains(b, []byte(`"run"`)) {
			return fmt.Errorf("spans %s: no run span", f.id)
		}
	}
	return nil
}

// clientLog is what one closed-loop client measured.
type clientLog struct {
	latMS  []float64
	errs   []string
	failed int
}

// drive runs one closed-loop client until the deadline. onPost, when
// non-nil, runs after each checked POST, outside the timed latency.
func (e *servedEnv) drive(s *requestStream, deadline time.Time, onPost func(k runKey, latMS float64, got served)) clientLog {
	var l clientLog
	var done []finished
	for time.Now().Before(deadline) {
		r := s.next()
		t := time.Now()
		var err error
		var got served
		switch {
		case r.kind == kindPost:
			got, err = e.post(r.key)
		case len(done) == 0:
			// Only reachable when every earlier POST failed.
			err = fmt.Errorf("read with no finished run to read")
		default:
			back := min(r.back, len(done)-1)
			err = e.read(r.kind, done[len(done)-1-back])
		}
		lat := ms(time.Since(t))
		if err != nil {
			l.failed++
			if len(l.errs) < 4 {
				l.errs = append(l.errs, err.Error())
			}
			continue
		}
		l.latMS = append(l.latMS, lat)
		if r.kind == kindPost {
			done = append(done, finished{got.id, r.key})
			if onPost != nil {
				onPost(r.key, lat, got)
			}
		}
	}
	return l
}

// serveMixed runs the serve-mixed workload: a fresh in-process server
// per run, driven closed-loop by two clients (one when traced).
func serveMixed(cfg config) (*outcome, error) {
	o := &outcome{}
	var e *servedEnv
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		next, err := setUpServe()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
		if e != nil {
			e.close()
		}
		e = next
	}
	defer e.close()
	if cfg.traced {
		return o, tracedServe(cfg, e, o)
	}
	runtime.GC()
	w := openWindow()
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			logs[c] = e.drive(newRequestStream(cfg.seed, c), deadline, nil)
		}(c)
	}
	wg.Wait()
	o.window = time.Since(start)
	o.rt = w.close()
	for _, l := range logs {
		o.merge(l)
	}
	return o, nil
}

// merge folds a client's log into the outcome.
func (o *outcome) merge(l clientLog) {
	o.latMS = append(o.latMS, l.latMS...)
	o.failed += l.failed
	o.checkErrs = append(o.checkErrs, l.errs...)
}

// retained scrapes the server's retained-run gauge from /metrics.
func (e *servedEnv) retained() (float64, error) {
	b, err := e.get("/metrics")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "harmonia_serve_retained_runs "); ok {
			return strconv.ParseFloat(strings.TrimSpace(v), 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no harmonia_serve_retained_runs")
}

// tracedServe is serve-mixed's traced run: one client sends the same
// mix, and after each POST the client replays the request locally on
// the reference System — plain, traced, timeline-recorded, and with
// both recorders as the server runs it — then once more through a
// session built from the span decorators. All timers sit in this file;
// the server is unchanged. The four timed replays start from a different
// one on each POST, so none of them always runs first, next to the
// server's post-reply quality analysis.
func tracedServe(cfg config, e *servedEnv, o *outcome) error {
	tot := map[string]float64{}
	var plain, traced, recorded, both, decorated, selfMS []float64
	var replayErr error
	engine := e.ref.QualityEngine(8, 1)
	lab := e.ref.Lab()
	onPost := func(k runKey, latMS float64, got served) {
		if replayErr != nil {
			return
		}
		app := harmonia.App(k.app)
		timed := func(opts ...harmonia.RunOption) (*session.Report, float64) {
			pol, base, err := local(e.ref, k)
			if err != nil {
				replayErr = err
				return nil, 0
			}
			t := time.Now()
			rep, err := e.ref.RunContext(context.Background(), app, pol, append(base, opts...)...)
			d := ms(time.Since(t))
			if err != nil {
				replayErr = err
			}
			return rep, d
		}
		tl := timeline.New()
		var rep *session.Report
		var dBoth, dPlain, dTrace, dTL float64
		replays := [4]func(){
			func() { rep, dBoth = timed(harmonia.RunWithTrace(trace.New(1)), harmonia.RunWithTimeline(tl)) },
			func() { _, dPlain = timed() },
			func() { _, dTrace = timed(harmonia.RunWithTrace(trace.New(1))) },
			func() { _, dTL = timed(harmonia.RunWithTimeline(timeline.New())) },
		}
		for i := range replays {
			replays[(len(plain)+i)%len(replays)]()
		}
		if replayErr != nil {
			return
		}
		plain, traced, recorded, both = append(plain, dPlain), append(traced, dTrace), append(recorded, dTL), append(both, dBoth)
		selfMS = append(selfMS, latMS-dBoth)

		var buf bytes.Buffer
		t := time.Now()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(export.Report(rep)); err != nil {
			replayErr = err
			return
		}
		tot["serve.encode_ms"] += ms(time.Since(t))
		snap := tl.Snapshot()
		buf.Reset()
		t = time.Now()
		if err := snap.WriteJSON(&buf); err != nil {
			replayErr = err
			return
		}
		tot["timeline.encode_ms"] += ms(time.Since(t))
		t = time.Now()
		if _, err := engine.Analyze(app, snap); err != nil {
			replayErr = err
			return
		}
		tot["quality.analyze_ms"] += ms(time.Since(t))
		tot["serve.response_kb"] += float64(got.size) / 1024

		d, err := decoratedReplay(e.ref, lab.Cache, k, tot)
		if err == nil && !bytes.Equal(reportBytes(d.rep), e.refs[k]) {
			err = fmt.Errorf("decorated replay of %v differs from the reference", k)
		}
		if err != nil {
			replayErr = err
			return
		}
		decorated = append(decorated, d.ms)
	}
	runtime.GC()
	w := openWindow()
	start := time.Now()
	l := e.drive(newRequestStream(cfg.seed, 0), start.Add(seconds(cfg.seconds)), onPost)
	o.window = time.Since(start)
	o.rt = w.close()
	o.merge(l)
	if replayErr != nil {
		// A failed replay fails the run's checks; the ledger is still
		// reported from the replays before it.
		o.checkErrs = append(o.checkErrs, "local replay: "+replayErr.Error())
	}
	if len(plain) == 0 {
		return fmt.Errorf("no POST fit in %gs", cfg.seconds)
	}
	layers := perOp(tot, float64(len(plain)))
	layers["serve.self_ms"] = metric{median(selfMS), "ms"}
	layers["trace.overhead_share"] = metric{sum(traced)/sum(plain) - 1, "share"}
	layers["timeline.overhead_share"] = metric{sum(recorded)/sum(plain) - 1, "share"}
	layers["ledger.overhead_share"] = metric{sum(decorated)/sum(both) - 1, "share"}
	retained, err := e.retained()
	if err != nil {
		return err
	}
	layers["serve.retained_runs"] = metric{retained, "count"}
	o.layers = layers
	return nil
}

// replay is one decorated local run.
type replay struct {
	rep *session.Report
	ms  float64
}

// policyLayer names the ledger layer of a served policy.
func policyLayer(policy string) string {
	switch policy {
	case "oracle":
		return "oracle"
	case "baseline", "powertune":
		return "policy"
	}
	return "core"
}

// replaySession composes a served request's session as System.RunContext
// does — the memoized runner, or the raw model with a fresh fault
// injector — but with the runner and policy inside spans, and with both
// recorders attached as the server attaches them.
func replaySession(sys *harmonia.System, cache *simcache.Cache, k runKey, led *ledger, pol harmonia.Policy) *session.Session {
	sess := &session.Session{
		Power: sys.Power, Policy: led.policy(policyLayer(k.policy), pol),
		Tracer: trace.New(1), Timeline: timeline.New(),
	}
	if k.faultSeed != 0 {
		sess.Sim = led.runner("gpusim", sys.Sim, nil)
		sess.Faults = faults.New(harmonia.FaultProfile(k.faultSeed, faultIntensity))
	} else {
		sess.Sim = led.runner("simcache", simcache.Cached{Model: sys.Sim, Cache: cache}, cache)
	}
	return sess
}

// decoratedReplay runs a served request through replaySession and adds
// the run's per-layer totals into tot.
func decoratedReplay(sys *harmonia.System, cache *simcache.Cache, k runKey, tot map[string]float64) (replay, error) {
	led := newLedger()
	pol, _, err := local(sys, k)
	if err != nil {
		return replay{}, err
	}
	sess := replaySession(sys, cache, k, led, pol)
	h0, m0 := cache.Stats()
	dh0, dm0 := cache.DecisionStats()
	t := time.Now()
	led.begin("session")
	rep, err := sess.RunContext(context.Background(), harmonia.App(k.app))
	led.end()
	d := ms(time.Since(t))
	if err != nil {
		return replay{}, err
	}
	h1, m1 := cache.Stats()
	dh1, dm1 := cache.DecisionStats()
	addLedger(tot, led, float64(h1-h0), float64(m1-m0), float64(dh1-dh0), float64(dm1-dm0))
	tot["simcache.entries"] += float64(cache.Len())
	return replay{rep, d}, nil
}
