package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"harmonia/internal/batch"
	"harmonia/internal/core"
	"harmonia/internal/experiments"
	"harmonia/internal/gpusim"
	"harmonia/internal/metrics"
	"harmonia/internal/oracle"
	"harmonia/internal/policy"
	"harmonia/internal/power"
	"harmonia/internal/sensitivity"
	"harmonia/internal/session"
	"harmonia/internal/simcache"
	"harmonia/internal/workloads"
)

// suiteDigestWant is the digest of the Section 7.1 Summary the seed code
// computes (see summaryDigest); its headline is 15.04% Harmonia and
// 19.68% oracle geomean ED² gain, a 4.64-point gap.
const suiteDigestWant = "7593a4719ee110a2"

// setupReps is how many times each workload repeats its set-up; the
// reported setup_s is their median.
const setupReps = 5

// summaryDigest fingerprints every field of a Summary. encoding/json
// writes float64s in their shortest exact form, so equal digests mean
// bit-equal summaries.
func summaryDigest(s experiments.Summary) string {
	b, err := json.Marshal(s)
	if err != nil {
		return err.Error()
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:8])
}

// headline renders the paper's three headline figures of a Summary.
func headline(s experiments.Summary) string {
	return fmt.Sprintf("%.2f / %.2f / %.2f", 100*s.ED2Harmonia, 100*s.ED2Oracle, 100*s.OracleGapHarmonia)
}

// checkSummary is the suite's output check.
func checkSummary(s experiments.Summary, err error) error {
	if err != nil {
		return err
	}
	if got := summaryDigest(s); got != suiteDigestWant || headline(s) != "15.04 / 19.68 / 4.64" {
		return fmt.Errorf("summary digest %s headline %s, want %s and 15.04 / 19.68 / 4.64", got, headline(s), suiteDigestWant)
	}
	return nil
}

// plainSuiteOp is one suite-cold op exactly as harmonia-report pays it:
// a fresh Env (cold memo, untrained predictor), the 14-app × 5-policy
// evaluation, and its Summary. workers is the Env's budget (0 =
// GOMAXPROCS).
func plainSuiteOp(ctx context.Context, workers int) (experiments.Summary, error) {
	e := experiments.NewEnv()
	e.Workers = workers
	res, err := e.Results(ctx)
	if err != nil {
		return experiments.Summary{}, err
	}
	return experiments.Summarize(res), nil
}

// suiteCold runs the suite-cold workload. Its input is the paper's
// fixed suite, so the seed changes nothing.
func suiteCold(cfg config) (*outcome, error) {
	ctx := context.Background()
	o := &outcome{}
	for i := 0; i < setupReps; i++ {
		t := time.Now()
		if err := checkSummary(plainSuiteOp(ctx, 0)); err != nil {
			return nil, fmt.Errorf("set-up op: %w", err)
		}
		o.setupS = append(o.setupS, time.Since(t).Seconds())
	}
	if cfg.traced {
		return o, tracedSuite(ctx, cfg, o)
	}
	var last experiments.Summary
	runtime.GC()
	w := openWindow()
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	for time.Now().Before(deadline) {
		t := time.Now()
		s, err := plainSuiteOp(ctx, 0)
		d := time.Since(t)
		if err := checkSummary(s, err); err != nil {
			o.fail(err.Error())
			continue
		}
		last = s
		o.latMS = append(o.latMS, ms(d))
	}
	o.window = time.Since(start)
	o.rt = w.close()
	o.notes = append(o.notes, "suite headline (harmonia / oracle / gap, %): "+headline(last))
	return o, nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// tracedSuite is suite-cold's traced run. It rotates three serial ops:
// the plain op at one worker (the overhead reference), the same
// evaluation rebuilt from the layers' public functions through the span
// decorators, and the plain two-worker batch with its cells timed.
func tracedSuite(ctx context.Context, cfg config, o *outcome) error {
	var plainMS, tracedMS []float64
	var busy, wall float64
	tot := map[string]float64{}
	var last experiments.Summary
	runtime.GC()
	w := openWindow()
	start := time.Now()
	deadline := start.Add(seconds(cfg.seconds))
	for i := 0; time.Now().Before(deadline); i++ {
		t := time.Now()
		var err error
		switch i % 3 {
		case 0:
			err = checkSummary(plainSuiteOp(ctx, 1))
			plainMS = append(plainMS, ms(time.Since(t)))
		case 1:
			var s experiments.Summary
			s, err = tracedSuiteOp(ctx, tot)
			last = s
			err = checkSummary(s, err)
			tracedMS = append(tracedMS, ms(time.Since(t)))
		case 2:
			var b, wl float64
			b, wl, err = timedBatchOp(ctx)
			busy += b
			wall += wl
		}
		if err != nil {
			o.fail(err.Error())
			continue
		}
		o.latMS = append(o.latMS, ms(time.Since(t)))
	}
	o.window = time.Since(start)
	o.rt = w.close()
	if len(tracedMS) == 0 || len(plainMS) == 0 {
		return fmt.Errorf("no traced op fit in %gs", cfg.seconds)
	}
	layers := perOp(tot, float64(len(tracedMS)))
	layers["batch.worker_busy_share"] = metric{share(busy, wall*2), "share"}
	layers["ledger.overhead_share"] = metric{median(tracedMS)/median(plainMS) - 1, "share"}
	layers["ed2_gain_pct"] = metric{100 * last.ED2Harmonia, "%"}
	layers["oracle_gap_pts"] = metric{100 * last.OracleGapHarmonia, "pts"}
	o.layers = layers
	o.notes = append(o.notes, "suite headline (harmonia / oracle / gap, %): "+headline(last))
	return nil
}

// tracedSuiteOp rebuilds Env.Results serially from the layers' public
// functions — predictor training, then per app the five policies'
// sessions — with every runner and policy call inside a span, and adds
// this op's per-layer totals into sum.
func tracedSuiteOp(ctx context.Context, sum map[string]float64) (experiments.Summary, error) {
	led := newLedger()
	model, pm, cache := gpusim.Default(), power.Default(), simcache.New()
	memo := simcache.Cached{Model: model, Cache: cache}
	run := led.runner("simcache", memo, cache)

	led.begin("sensitivity.training_set")
	pts := sensitivity.BuildConfigTrainingSetN(run, workloads.AllKernels(), 1)
	led.end()
	led.begin("sensitivity.train")
	pred, err := sensitivity.Train(pts)
	led.end()
	if err != nil {
		return experiments.Summary{}, err
	}
	var results []experiments.AppResult
	for _, app := range workloads.Suite() {
		res := experiments.AppResult{App: app.Name, Stress: app.Stress}
		// The oracle gets the bare memo runner: it finds its shared
		// decision memo by that concrete type, so its sweeps stay inside
		// the oracle's span.
		runs := appRuns(&res, pred, oracle.New(memo, pm, app).WithWorkers(1))
		for _, r := range runs {
			sess := &session.Session{Sim: run, Power: pm, Policy: led.policy(r.layer, r.pol)}
			led.begin("session")
			rep, err := sess.RunContext(ctx, app)
			led.end()
			if err != nil {
				return experiments.Summary{}, err
			}
			*r.dst = rep.Sample()
		}
		results = append(results, res)
	}
	hits, misses := cache.Stats()
	dh, dm := cache.DecisionStats()
	addLedger(sum, led, float64(hits), float64(misses), float64(dh), float64(dm))
	sum["simcache.entries"] += float64(cache.Len())
	return experiments.Summarize(results), nil
}

// appRun is one of the five policy runs of an Env.Results cell: where
// its Sample goes, the policy, and the ledger layer the policy belongs
// to.
type appRun struct {
	dst   *metrics.Sample
	layer string
	pol   policy.Policy
}

// appRuns returns an Env.Results cell's five runs for res, with fresh
// controllers and the given oracle.
func appRuns(res *experiments.AppResult, pred *sensitivity.Predictor, orc *oracle.Oracle) []appRun {
	return []appRun{
		{&res.Baseline, "policy", policy.NewBaseline()},
		{&res.CG, "core", core.New(core.Options{Predictor: pred, DisableFG: true})},
		{&res.Harmonia, "core", core.New(core.Options{Predictor: pred})},
		{&res.Oracle, "oracle", orc},
		{&res.ComputeOnly, "core", core.NewComputeOnly(pred)},
	}
}

// timedBatchOp runs the plain two-worker evaluation with each batch
// cell timed, returning the cells' summed busy time and the batch's
// wall time, in seconds. The cell is Env.Results' cell, built from the
// Env's public parts.
func timedBatchOp(ctx context.Context) (busy, wall float64, err error) {
	e := experiments.NewEnv()
	e.Workers = 2
	pred := e.Predictor()
	outer, inner := batch.NewBudget(e.Workers).Split(len(workloads.Suite()))
	share := inner.Workers()
	cells := make([]float64, len(workloads.Suite()))
	t := time.Now()
	results, err := batch.Map(ctx, outer, workloads.Suite(),
		func(cellCtx context.Context, i int, app *workloads.Application) (experiments.AppResult, error) {
			c := time.Now()
			defer func() { cells[i] = time.Since(c).Seconds() }()
			res := experiments.AppResult{App: app.Name, Stress: app.Stress}
			runs := appRuns(&res, pred, oracle.New(e.Runner(), e.Power, app).WithWorkers(share))
			for _, r := range runs {
				rep, err := (&session.Session{Sim: e.Runner(), Power: e.Power, Policy: r.pol}).RunContext(cellCtx, app)
				if err != nil {
					return res, err
				}
				*r.dst = rep.Sample()
			}
			return res, nil
		})
	wall = time.Since(t).Seconds()
	if err := checkSummary(experiments.Summarize(results), err); err != nil {
		return 0, 0, err
	}
	return sum(cells), wall, nil
}
