package main

// layerUnits lists every per-layer metric of the traced run with its
// unit. Each workload reports all of them; a layer the workload never
// reaches reads 0. Counts and times are per traced op unless the name
// says otherwise.
var layerUnits = map[string]string{
	"sensitivity.training_set_ms": "ms",
	"sensitivity.train_ms":        "ms",
	"gpusim.invocations":          "count",
	"gpusim.self_ms":              "ms",
	"simcache.lookups":            "count",
	"simcache.hit_ratio":          "share",
	"simcache.self_ms":            "ms",
	"simcache.entries":            "count",
	"oracle.decides":              "count",
	"oracle.decision_hit_ratio":   "share",
	"oracle.self_ms":              "ms",
	"core.boundaries":             "count",
	"core.decide_observe_us":      "us",
	"session.runs":                "count",
	"session.self_ms":             "ms",
	"batch.worker_busy_share":     "share",
	"trace.overhead_share":        "share",
	"timeline.overhead_share":     "share",
	"timeline.encode_ms":          "ms",
	"quality.analyze_ms":          "ms",
	"serve.self_ms":               "ms",
	"serve.response_kb":           "KiB",
	"serve.encode_ms":             "ms",
	"serve.retained_runs":         "count",
	"eventsim.point_ms":           "ms",
	"eventsim.cycles_per_s":       "1/s",
	"ledger.overhead_share":       "share",
	"ed2_gain_pct":                "%",
	"oracle_gap_pts":              "pts",
	"model_agreement_share":       "share",
}

// emptyLayers returns every per-layer metric at 0.
func emptyLayers() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for k, u := range layerUnits {
		m[k] = metric{0, u}
	}
	return m
}

// addLedger adds one traced op's ledger into the running sums. The memo
// and decision-memo counters are this op's deltas.
func addLedger(sum map[string]float64, led *ledger, hits, misses, decHits, decMisses float64) {
	memoMS, simMS := led.simSplit()
	sum["sensitivity.training_set_ms"] += led.ms("sensitivity.training_set", false)
	sum["sensitivity.train_ms"] += led.ms("sensitivity.train", false)
	// A memo miss is one model invocation; raw-runner spans are the
	// fault-injected runs that bypass the memo.
	sum["gpusim.invocations"] += misses + led.calls("gpusim")
	sum["gpusim.self_ms"] += simMS + led.ms("gpusim", true)
	sum["simcache.lookups"] += hits + misses
	sum["_simcache.hits"] += hits
	sum["simcache.self_ms"] += memoMS
	// Policy spans cover Decide and Observe: two per kernel boundary.
	sum["oracle.decides"] += led.calls("oracle") / 2
	sum["_oracle.sweeps"] += decMisses
	sum["oracle.self_ms"] += led.ms("oracle", true)
	sum["core.boundaries"] += led.calls("core") / 2
	sum["_core.self_ms"] += led.ms("core", true)
	sum["session.runs"] += led.calls("session")
	sum["session.self_ms"] += led.ms("session", true)
}

// perOp divides the summed per-op layer metrics by the traced op count
// and derives the ratios from the summed numerators and denominators.
func perOp(sum map[string]float64, ops float64) map[string]metric {
	layers := emptyLayers()
	for k, v := range sum {
		if m, ok := layers[k]; ok {
			m.Value = v / ops
			layers[k] = m
		}
	}
	set := func(k string, v float64) { layers[k] = metric{v, layerUnits[k]} }
	set("simcache.hit_ratio", share(sum["_simcache.hits"], sum["simcache.lookups"]))
	if d := sum["oracle.decides"]; d > 0 {
		set("oracle.decision_hit_ratio", 1-sum["_oracle.sweeps"]/d)
	}
	set("core.decide_observe_us", share(1000*sum["_core.self_ms"], sum["core.boundaries"]))
	return layers
}
