// Command benchmark is the repository's benchmark: six named workloads
// over generated XMark documents, each reporting the same end-to-end
// metrics (throughput, latency, peak buffer, set-up time) and, in a
// traced run, the per-layer metrics of a ladder of cumulatively longer
// pipelines through the product's layers. Every result is checked
// against a reference digest. BENCHMARK.json at the root of the
// repository names the workloads, the metrics and their bounds;
// README.md in this directory is the glossary.
//
// It drives the product only through public functions of the root
// package and internal/{sax,autom,engine,mux,shard,stream,xmark}.
//
//	bash benchmark/run.sh -seed 1                 every workload, untraced
//	bash benchmark/run.sh -seed 1 -trace          every workload, traced
//	bash benchmark/run.sh -workload scan-join -seed 3 -seconds 15 -trace 0
//	bash benchmark/run.sh -selfcheck              two untraced sets, compared
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"
)

// metricDef is one metric of the contract. better is "higher" or
// "lower"; bound is the share of the baseline median by which an
// end-to-end metric may worsen (per-layer metrics have none). exact
// marks a count that must repeat exactly on the same seed; that is a
// second rule, not the bound again: the driver takes a metric's spread
// over runs on different seeds, whose documents differ, so a count's
// bound cannot be 0.
type metricDef struct {
	name, unit, better string
	bound              float64
	exact              bool
}

// endToEnd are the gated metrics; every workload reports every one.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_mb_s", unit: "MB/s", better: "higher", bound: 0.25},
	{name: "throughput_qps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p95_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_buffer_bytes", unit: "bytes", better: "lower", bound: 0.10, exact: true},
}

// perLayer are the traced run's metrics; every workload reports every
// one, measured on its own inputs.
var perLayer = []metricDef{
	{name: "xmark.generate_mb_s", unit: "MB/s", better: "higher"},
	{name: "compile.prepare_ms", unit: "ms", better: "lower"},
	{name: "catalog.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "catalog.prepare_hit_us", unit: "us", better: "lower"},
	{name: "catalog.admit_queued", unit: "count", better: "lower"},
	{name: "sax.tokenize_mb_s", unit: "MB/s", better: "higher"},
	{name: "sax.pruned_mb_s", unit: "MB/s", better: "higher"},
	{name: "sax.chunked_mb_s", unit: "MB/s", better: "higher"},
	{name: "sax.tokens_per_mb", unit: "count", better: "lower"},
	{name: "sax.pruned_token_ratio", unit: "ratio", better: "lower"},
	{name: "sax.allocs_per_mb", unit: "count", better: "lower"},
	{name: "sax.self_share", unit: "share", better: "lower"},
	{name: "autom.build_us", unit: "us", better: "lower"},
	{name: "autom.states", unit: "count", better: "lower"},
	{name: "autom.route_ns_per_token", unit: "ns", better: "lower"},
	{name: "autom.deliveries_per_token", unit: "count", better: "lower"},
	{name: "autom.self_share", unit: "share", better: "lower"},
	{name: "engine.eval_self_ms", unit: "ms", better: "lower"},
	{name: "engine.ns_per_token", unit: "ns", better: "lower"},
	{name: "engine.self_share", unit: "share", better: "lower"},
	{name: "engine.alloc_bytes_per_mb", unit: "bytes", better: "lower"},
	{name: "engine.peak_buffer_bytes", unit: "bytes", better: "lower"},
	{name: "engine.predicted_peak_bytes", unit: "bytes", better: "lower"},
	{name: "engine.predicted_over_observed", unit: "ratio", better: "lower"},
	{name: "mux.run_ms", unit: "ms", better: "lower"},
	{name: "mux.sharing_gain", unit: "ratio", better: "higher"},
	{name: "mux.tokens_delivered", unit: "count", better: "lower"},
	{name: "mux.events_skipped", unit: "count", better: "higher"},
	{name: "executor.mean_batch", unit: "count", better: "higher"},
	{name: "executor.peak_batch", unit: "count", better: "higher"},
	{name: "executor.scans_per_query", unit: "ratio", better: "lower"},
	{name: "executor.automaton_hit_ratio", unit: "ratio", better: "higher"},
	{name: "executor.overhead_p50_ms", unit: "ms", better: "lower"},
	{name: "executor.latency_p99_ms", unit: "ms", better: "lower"},
	{name: "shard.server_hop_p50_ms", unit: "ms", better: "lower"},
	{name: "shard.router_hop_p50_ms", unit: "ms", better: "lower"},
	{name: "stream.hub_overhead_share", unit: "share", better: "lower"},
	{name: "stream.first_result_p50_ms", unit: "ms", better: "lower"},
	{name: "stream.result_lag_p50_ms", unit: "ms", better: "lower"},
	{name: "stream.dropped_bytes", unit: "bytes", better: "lower"},
	{name: "ladder.residual_share", unit: "share", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// config is one invocation's settings.
type config struct {
	seed   int64
	window time.Duration // measured window per workload
	trace  bool
	quick  bool
	out    string
}

// metricValue is one reported number with the samples behind it.
type metricValue struct {
	Value   float64  `json:"value"`
	Unit    string   `json:"unit"`
	Samples *summary `json:"samples,omitempty"`
}

// result is one workload's run.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Extras are numbers outside the contract: the open loop's offered
	// and achieved rate and generator lateness, the rate sweep.
	Extras map[string]float64 `json:"extras,omitempty"`
	Error  string             `json:"error,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its streams and exit code as values, for the test.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (default: all six)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 15, "measured window per workload, in seconds")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics), 0: the untraced run (end-to-end metrics)")
	quick := fs.Bool("quick", false, "small documents and a 250 ms window, for the smoke test")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced set twice and compare the two against the bounds")
	out := fs.String("out", "benchmark/out", "directory for results.json, trace files and temporary documents")
	if err := fs.Parse(bareTrace(args)); err != nil {
		return 2
	}
	cfg := &config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), trace: *trace != 0, quick: *quick, out: *out}
	if *quick {
		cfg.window = 250 * time.Millisecond
	}
	specs := workloads
	if *workload != "" {
		spec := findWorkload(*workload)
		if spec == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *workload)
			return 2
		}
		specs = []*workloadSpec{spec}
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	ctx := context.Background()

	if *selfcheck {
		return selfCheck(ctx, cfg, specs, stdout, stderr)
	}
	results, ok := runSet(ctx, cfg, specs, stdout, stderr)
	if err := writeRecord(cfg, results); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// bareTrace lets "-trace" stand alone as "-trace 1": the flag takes a
// value because the driver passes "--trace 0" and "--trace 1".
func bareTrace(args []string) []string {
	out := slices.Clone(args)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 == len(out) || (out[i+1] != "0" && out[i+1] != "1") {
			out[i] = "-trace=1"
		}
	}
	return out
}

// runSet runs the given workloads in order, printing each one's table
// and its one-line JSON result; ok is false if any of them failed.
func runSet(ctx context.Context, cfg *config, specs []*workloadSpec, stdout, stderr io.Writer) (results []result, ok bool) {
	ok = true
	for _, spec := range specs {
		res := runWorkload(ctx, cfg, spec, stderr)
		results = append(results, res)
		printTable(stdout, res)
		if res.Error != "" {
			// No result line: whoever reads the output must not take a
			// run that could not measure for a measurement.
			fmt.Fprintf(stderr, "benchmark: %s: %s\n", spec.name, res.Error)
			ok = false
			continue
		}
		printResultLine(stdout, res)
		if !res.Correct {
			ok = false
		}
	}
	return results, ok
}

// untracedSetups is how often an untraced run sets its workload up;
// setup_s is the median, which one slow set-up does not move.
const untracedSetups = 3

// runWorkload sets the workload up (several times, for a steady
// setup_s), measures it, and tears it down.
func runWorkload(ctx context.Context, cfg *config, spec *workloadSpec, stderr io.Writer) result {
	res := result{Workload: spec.name, Traced: cfg.trace, Metrics: map[string]metricValue{}, Extras: map[string]float64{}}
	var e *env
	var setups []float64
	n := untracedSetups
	if cfg.trace || cfg.quick {
		n = 1 // setup_s belongs to the full untraced run
	}
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = setup(ctx, spec, cfg); err != nil {
			res.Error = "set-up: " + err.Error()
			return res
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()

	var firstErr error
	var err error
	if cfg.trace {
		firstErr, err = traced(ctx, e, &res)
	} else {
		firstErr = untraced(ctx, e, setups, &res, stderr)
	}
	if err != nil {
		res.Error = "traced run: " + err.Error()
		return res
	}
	if name := notFinite(res.Metrics); name != "" {
		res.Error = "metric " + name + " is not a finite number"
		return res
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if res.Failed > 0 {
		fmt.Fprintf(stderr, "benchmark: %s: %d of %d operations failed, the first: %v\n", spec.name, res.Failed, res.Attempted, firstErr)
	}
	return res
}

// units maps every metric of the contract to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

// untraced is the untraced run: the workload's own loop for the whole
// window, folded into the end-to-end metrics. It returns the reason of
// the first failed operation, if any failed.
func untraced(ctx context.Context, e *env, setups []float64, res *result, stderr io.Writer) error {
	m := e.run(ctx, e.cfg.window, nil)
	res.Attempted, res.Failed = m.attempted, m.failed
	fold := func(name string, value float64, samples []float64) {
		s := summarize(samples)
		res.Metrics[name] = metricValue{Value: value, Unit: units[name], Samples: &s}
	}
	fold("setup_s", median(setups), setups)
	fold("throughput_mb_s", median(m.mbs), m.mbs)
	fold("throughput_qps", median(m.qps), m.qps)
	if m.byQuery != nil {
		// One caller running the same few queries pass after pass: the
		// percentiles are taken over the queries, each at its median run.
		// Over single runs or passes p95 would be the slowest pass of ten
		// or twenty, which says how the machine fared, not the program.
		typical := make([]float64, len(m.byQuery))
		for i, runs := range m.byQuery {
			typical[i] = median(runs)
		}
		slices.Sort(typical)
		fold("latency_p50_ms", quantile(typical, 0.5), typical)
		fold("latency_p95_ms", quantile(typical, 0.95), typical)
	} else {
		p50, p95 := groupQuantiles(m.lat, 0.5), groupQuantiles(m.lat, 0.95)
		fold("latency_p50_ms", median(p50), p50)
		fold("latency_p95_ms", median(p95), p95)
	}
	fold("peak_buffer_bytes", m.peak, nil)
	for k, v := range m.notes {
		res.Extras[k] = v
	}
	if a, o := m.notes["achieved_qps"], m.notes["offered_qps"]; e.spec.loop == loopOpen && a < 0.99*o {
		fmt.Fprintf(stderr, "benchmark: %s: achieved %.1f q/s of %.1f offered: the backlog is growing, the latencies are not steady-state\n", e.spec.name, a, o)
		res.Extras["backlog_growing"] = 1
	}
	return m.firstErr
}

// traced is the traced run: the top rung and (on the open loop) the
// rate sweep take a share of the window each, the ladder the rest. It
// returns the reason of the first failed operation, if any failed.
func traced(ctx context.Context, e *env, res *result) (firstErr, err error) {
	tr := newTracer(e.spec.name)
	l, err := newLadder(ctx, e, tr)
	if err != nil {
		return nil, err
	}
	defer l.close()
	share := e.cfg.window * 3 / 10
	left := e.cfg.window - share
	overhead, top := topRung(ctx, e, tr, share)
	res.Attempted, res.Failed, firstErr = top.attempted, top.failed, top.firstErr
	if e.spec.loop == loopOpen {
		extras, m := sweep(ctx, e, share)
		for k, v := range extras {
			res.Extras[k] = v
		}
		res.Attempted += m.attempted
		res.Failed += m.failed
		firstErr = cmp.Or(firstErr, m.firstErr)
		left -= share
	}
	if err := l.climb(left); err != nil {
		return nil, err
	}
	res.Attempted += l.attempted
	res.Failed += l.failed
	firstErr = cmp.Or(firstErr, l.firstErr)
	if e.ex != nil {
		l.execOps = top.ops
	}
	for name, v := range l.values(top, overhead) {
		res.Metrics[name] = metricValue{Value: v, Unit: units[name]}
	}
	return firstErr, tr.write(filepath.Join(e.cfg.out, "trace-"+e.spec.name+".json"))
}

// notFinite names a metric whose value is NaN or infinite, "" if none.
func notFinite(ms map[string]metricValue) string {
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return name
		}
	}
	return ""
}

// defsFor lists the metric definitions a result of this kind carries.
func defsFor(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printTable prints "workload metric value unit", one metric per line,
// with the quartiles and sample count where there are samples.
func printTable(w io.Writer, res result) {
	for _, d := range defsFor(res.Traced) {
		m, ok := res.Metrics[d.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-14s %-32s %16.4f %-6s", res.Workload, d.name, m.Value, d.unit)
		if s := m.Samples; s != nil && s.N > 0 {
			fmt.Fprintf(w, "  q1=%.4f q3=%.4f n=%d", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(w)
	}
	for _, k := range slices.Sorted(maps.Keys(res.Extras)) {
		fmt.Fprintf(w, "%-14s %-32s %16.4f\n", res.Workload, "("+k+")", res.Extras[k])
	}
	fmt.Fprintf(w, "%-14s %-32s %16d %-6s\n", res.Workload, "ops_attempted", res.Attempted, "count")
	fmt.Fprintf(w, "%-14s %-32s %16d %-6s\n", res.Workload, "ops_failed", res.Failed, "count")
}

// printResultLine prints the one JSON object the driver reads: exactly
// correct, attempted, failed and the contract's metrics for this kind
// of run.
func printResultLine(w io.Writer, res result) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defsFor(res.Traced) {
		line.Metrics[d.name] = value{res.Metrics[d.name].Value, d.unit}
	}
	data, _ := json.Marshal(line) // finite numbers and strings: cannot fail
	fmt.Fprintln(w, string(data))
}

// record is results.json: enough to tell what was run on what.
type record struct {
	Seed          int64    `json:"seed"`
	Commit        string   `json:"commit"`
	GoVersion     string   `json:"go_version"`
	NumCPU        int      `json:"nproc"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	WindowSeconds float64  `json:"window_seconds"`
	Traced        bool     `json:"traced"`
	Quick         bool     `json:"quick"`
	Results       []result `json:"results"`
}

func writeRecord(cfg *config, results []result) error {
	rec := record{
		Seed: cfg.seed, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		WindowSeconds: cfg.window.Seconds(), Traced: cfg.trace, Quick: cfg.quick,
		Results: results,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.out, "results.json"), data, 0o644)
}

// commit is the revision the binary was built from, when the build
// stamped one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
