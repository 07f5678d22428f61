// Command perfbench is the repository benchmark. It runs one named
// workload against the program's packages from a single process, checks
// every output it times, and prints the result record as the last line
// of standard output:
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it drives the layers serially through the benchmark's
// own span decorators and reports the per-layer ledger instead. See
// perfbench/README.md for the workloads and the meaning of each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the record printed as the last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	traced  bool
}

// outcome is what a workload hands back to the harness.
type outcome struct {
	// latMS holds the latency of every op that completed and passed its
	// checks; failed ops are only counted.
	latMS     []float64
	failed    int
	window    time.Duration // the timed window
	setupS    []float64     // each set-up repetition, in seconds
	rt        runtimeStats  // runtime/metrics over the timed window
	layers    map[string]metric
	notes     []string // human-readable lines (headline figures, checks)
	checkErrs []string // output checks outside individual ops
}

// fail records a failed op.
func (o *outcome) fail(msg string) {
	o.failed++
	if len(o.checkErrs) < 8 {
		o.checkErrs = append(o.checkErrs, msg)
	}
}

// workloadRuns maps each workload name to the function that runs it.
var workloadRuns = map[string]func(config) (*outcome, error){
	"suite-cold":        suiteCold,
	"serve-mixed":       serveMixed,
	"validate-eventsim": validateEventsim,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: suite-cold, serve-mixed or validate-eventsim")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 20, "length of the timed window in seconds")
		traced  = flag.Int("trace", 0, "1 reports the per-layer ledger instead of the end-to-end metrics")
		root    = flag.String("root", ".", "repository root (for the source fingerprint)")
		out     = flag.String("out", ".bench_build", "directory for the full result record")
	)
	flag.Parse()
	run, ok := workloadRuns[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traced)
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, traced: *traced == 1}
	o, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	res := summarize(cfg, o)
	fp := fingerprint(*root)
	for _, n := range o.notes {
		fmt.Println("# " + n)
	}
	for _, e := range o.checkErrs {
		fmt.Println("# CHECK FAILED: " + e)
	}
	printMetrics(res.Metrics)
	if err := writeRecord(*out, *name, cfg, fp, o, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// summarize turns an outcome into the reported record: end-to-end
// metrics untraced, the per-layer ledger traced.
func summarize(cfg config, o *outcome) result {
	ok := len(o.latMS)
	res := result{
		Correct:   o.failed == 0 && len(o.checkErrs) == 0 && ok > 0,
		Attempted: ok + o.failed,
		Failed:    o.failed,
		Metrics:   map[string]metric{},
	}
	if cfg.traced {
		for k, v := range o.layers {
			res.Metrics[k] = v
		}
		for k, v := range o.rt.metrics(res.Attempted, "runtime.") {
			res.Metrics[k] = v
		}
		return res
	}
	if ok > 0 {
		res.Metrics["op_p50_ms"] = metric{percentile(o.latMS, 50), "ms"}
		res.Metrics["op_p90_ms"] = metric{percentile(o.latMS, 90), "ms"}
	}
	res.Metrics["ops_per_s"] = metric{float64(ok) / o.window.Seconds(), "1/s"}
	res.Metrics["ok_share"] = metric{share(float64(ok), float64(res.Attempted)), "share"}
	res.Metrics["setup_s"] = metric{median(o.setupS), "s"}
	res.Metrics["peak_heap_mb"] = metric{o.rt.peakHeapMB(), "MB"}
	return res
}

// printMetrics prints every metric by name with its unit.
func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# %-34s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// writeRecord stores the full record — fingerprint, runtime health of
// the timed window, notes and the reported metrics — as JSON under out.
func writeRecord(out, name string, cfg config, fp map[string]string, o *outcome, res result) error {
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	rec := map[string]any{
		"workload":    name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       cfg.traced,
		"fingerprint": fp,
		"runtime":     o.rt.metrics(res.Attempted, ""),
		"setup_s":     o.setupS,
		"notes":       o.notes,
		"check_errs":  o.checkErrs,
		"result":      res,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	trace := 0
	if cfg.traced {
		trace = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, cfg.seed, trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("record: %w", err)
	}
	fmt.Printf("# fingerprint %s\n# record %s\n", mustJSON(fp), path)
	return nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return err.Error()
	}
	return string(b)
}
