// Command perfbench is the repository's benchmark. It drives the program
// in-process, through its packages' public functions, from one closed-loop
// driver goroutine: each call is issued when the previous one returns. Three
// workloads stress different layers:
//
//	optimize  one full 2PO Optimize of a 10-way chain query per call
//	simulate  one exec.Run of a plan compiled during set-up per call
//	serve     one whole serving run (Start, Session().Run, Finish) per call
//
// A run prints the end-to-end metrics, one per line with its unit, and ends
// with one JSON result line. With -trace 1 the run instead records spans
// around every call it makes into a layer and reports the per-layer
// metrics. See README.md for the metrics, the workloads and how to read
// them.
//
// Usage:
//
//	perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]
//	perfbench compare DIR_A DIR_B
//	perfbench golden > golden.json
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose per-call digests are committed in
// golden.json.
const defaultSeed = 1996

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run's result line. The run also
// prints call_p90_ms and failed_frac: the result line carries failed_frac as
// failed over attempted, and call_p90_ms spreads too much between runs on a
// shared 2-vCPU guest to serve as a gate (see README.md).
var endToEnd = []metricDef{
	{"queries_per_s", "1/s"},
	{"call_p50_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
}

// perLayer are the metrics of a traced run.
var perLayer = []metricDef{
	{"opt.call_ms", "ms"},
	{"opt.allocs_per_call", "count"},
	{"opt.bytes_per_call", "B"},
	{"opt.cpu_per_wall", "s/s"},
	{"cost.estimate_us", "us"},
	{"plan.bind_us", "us"},
	{"exec.call_ms", "ms"},
	{"exec.allocs_per_query", "count"},
	{"sim.events_per_query", "count"},
	{"sim.ns_per_event", "ns"},
	{"disk.reads_per_query", "count"},
	{"disk.writes_per_query", "count"},
	{"disk.cache_hit_frac", "1"},
	{"netsim.pages_per_query", "count"},
	{"netsim.messages_per_query", "count"},
	{"serve.call_ms", "ms"},
	{"serve.completed_frac", "1"},
	{"coherence.renewals_per_query", "count"},
	{"coherence.callbacks_per_update", "count"},
	{"coherence.cache_hit_frac", "1"},
	{"faults.retries_per_query", "count"},
	{"faults.aborted_frac", "1"},
	{"runtime.gc_cpu_frac", "1"},
	{"trace.overhead_frac", "1"},
}

//go:embed golden.json
var goldenJSON []byte

// goldenList is one workload's committed digests at the default seed: of
// the op list and of every call's virtual outputs.
type goldenList struct {
	Ops   string   `json:"ops"`
	Calls []string `json:"calls"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], stdout, stderr)
		case "golden":
			return goldenMain(stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: optimize, simulate or serve")
	seed := fs.Int64("seed", defaultSeed, "seed the call list is derived from")
	seconds := fs.Float64("seconds", 10, "least number of seconds the timed passes take")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload optimize|simulate|serve and -trace 0|1\n")
		return 2
	}
	var gold *goldenList
	if *seed == defaultSeed {
		g, err := loadGolden(w.name)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		gold = g
	}
	cfg := runConfig{seconds: *seconds, minCalls: minCalls, trace: *trace == 1}
	var res result
	var err error
	if cfg.trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.json", w.name, *seed))
		res, err = tracedRun(w, *seed, gold, cfg, path, stdout)
	} else {
		res, err = timedRun(w, *seed, gold, cfg, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func loadGolden(name string) (*goldenList, error) {
	var all map[string]goldenList
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	g, ok := all[name]
	if !ok {
		return nil, fmt.Errorf("golden.json has no digests for %s", name)
	}
	return &g, nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opsDigest fingerprints a call list by its derived inputs.
func opsDigest(ops []op) string {
	keys := make([]any, len(ops))
	for i, o := range ops {
		keys[i] = o.key
	}
	return digest(keys...)
}

// setUp builds the call list from scratch and warms it up.
func setUp(w benchWorkload, seed int64, tr *tracer) ([]op, error) {
	sp := tr.begin("setup", -1, -1)
	ops, err := w.build(seed, tr, sp)
	tr.end(sp, nil)
	if err != nil {
		return nil, err
	}
	warmUp(ops)
	return ops, nil
}

// goldCalls checks a call list against the committed one and returns the
// committed per-call digests; with no golden list there is nothing to check.
func goldCalls(ops []op, gold *goldenList) ([]string, error) {
	if gold == nil {
		return nil, nil
	}
	if got := opsDigest(ops); got != gold.Ops || len(gold.Calls) != len(ops) {
		return nil, fmt.Errorf("call list digest %s (%d calls) differs from golden.json's %s (%d calls)",
			got, len(ops), gold.Ops, len(gold.Calls))
	}
	return gold.Calls, nil
}

// timedRun is the untraced run: set-up several times, then the timed
// passes, then the end-to-end metrics.
func timedRun(w benchWorkload, seed int64, gold *goldenList, cfg runConfig, out io.Writer) (result, error) {
	var setups []float64
	var ops []op
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		o, err := setUp(w, seed, nil)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i > 0 && opsDigest(o) != opsDigest(ops) {
			return result{}, fmt.Errorf("set-up %d built a different call list from the same seed", i)
		}
		ops = o
	}
	want, err := goldCalls(ops, gold)
	if err != nil {
		return result{}, err
	}
	r := measure(ops, want, cfg, nil)

	n := len(r.latMs)
	vals := map[string]float64{
		"queries_per_s": median(r.passRates),
		"call_p50_ms":   quantile(r.latMs, 0.5),
		"call_p90_ms":   quantile(r.latMs, 0.9),
		"failed_frac":   ratio(float64(r.failed), float64(r.calls)),
		"setup_s":       median(setups),
		"max_rss_mb":    maxRSSMB(),
	}
	fmt.Fprintf(out, "workload %s, seed %d: %d calls in %d passes of %d, %d failed, %.1f s timed\n",
		w.name, seed, r.calls, r.passes, len(ops), r.failed, r.wall)
	notes := map[string]string{
		"queries_per_s": fmt.Sprintf("median of %d passes: %s", len(r.passRates), fmtList(r.passRates)),
		"call_p50_ms":   fmt.Sprintf("n=%d", n),
		"call_p90_ms":   fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.9)),
		"failed_frac":   fmt.Sprintf("%d of %d calls", r.failed, r.calls),
		"setup_s":       fmt.Sprintf("median of %d set-ups: %s", len(setups), fmtList(setups)),
	}
	printed := []metricDef{endToEnd[0], endToEnd[1], {"call_p90_ms", "ms"}, {"failed_frac", "1"}, endToEnd[2], endToEnd[3]}
	for _, m := range printed {
		fmt.Fprintf(out, "  %-14s %12.4f %-4s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
	return finish(r, vals, endToEnd, out), nil
}

// tracedRun is the traced run: one traced set-up, then untraced and traced
// passes in turn. Per-layer metrics come from the traced passes' spans (and
// from the set-up's, for the plans it compiles); the GC share from all
// passes.
func tracedRun(w benchWorkload, seed int64, gold *goldenList, cfg runConfig, path string, out io.Writer) (result, error) {
	tr := newTracer()
	ops, err := setUp(w, seed, tr)
	if err != nil {
		return result{}, err
	}
	want, err := goldCalls(ops, gold)
	if err != nil {
		return result{}, err
	}
	r := measure(ops, want, cfg, tr)
	passSpans := len(tr.spans)
	vals := layerMetrics(tr.spans)
	by := byName(tr.spans)
	if err := probe(&r, seed, tr, by); err != nil {
		return result{}, err
	}
	probed := layerMetrics(tr.spans[passSpans:])
	for _, m := range perLayer {
		if !reaches(by, m.name) {
			vals[m.name] = probed[m.name]
		}
	}
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("write spans: %w", err)
	}
	vals["runtime.gc_cpu_frac"] = r.gcFrac
	untraced := ratio(float64(r.queries), r.wall)
	traced := ratio(float64(r.tracedQueries), r.tracedWall)
	vals["trace.overhead_frac"] = 1 - ratio(traced, untraced)

	fmt.Fprintf(out, "workload %s, seed %d, traced: %d calls in %d passes of %d, %d failed; %d spans in %s\n",
		w.name, seed, r.calls, r.passes, len(ops), r.failed, len(tr.spans), path)
	fmt.Fprintf(out, "queries_per_s untraced %.4f, traced %.4f\n", untraced, traced)
	tr.selfTimes(out)
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-32s %14.4f %s\n", m.name, vals[m.name], m.unit)
	}
	return finish(r, vals, perLayer, out), nil
}

// probe measures the layers the workload's passes never call: after the
// traced passes it makes one traced, checked call from the list of each
// workload whose calls reach them (simulate for exec, serve for serve), so
// that every per-layer metric is measured on every workload. The probe's
// list is built untraced. Serve cell 5 has updates and faults, so the
// coherence and faults counters have work to count.
func probe(r *runResult, seed int64, tr *tracer, by map[string]*layerStats) error {
	sp := tr.begin("probe", -1, -1)
	for _, p := range []struct {
		call, workload string
		entry          int
	}{{"exec.Run", "simulate", 0}, {"serve.Run", "serve", 5}} {
		if by[p.call] != nil {
			continue
		}
		w, _ := findWorkload(p.workload)
		ops, err := w.build(seed, nil, -1)
		if err != nil {
			return fmt.Errorf("probe %s: %w", p.workload, err)
		}
		o := ops[p.entry]
		r.calls++
		if _, err := o.call(tr, sp, -1); err != nil {
			r.fail("probe %s call %d (%s): %v", p.workload, p.entry, o.key, err)
		}
	}
	tr.end(sp, nil)
	return nil
}

func finish(r runResult, vals map[string]float64, defs []metricDef, out io.Writer) result {
	for _, e := range r.errs {
		fmt.Fprintf(out, "FAILED %s\n", e)
	}
	res := result{Correct: r.failed == 0, Attempted: r.calls, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range defs {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

func fmtList(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goldenMain prints the digests of every workload at the default seed, in
// golden.json's format. Each workload's list runs two passes, so the
// digests are known to repeat.
func goldenMain(stdout, stderr io.Writer) int {
	all := map[string]goldenList{}
	for _, w := range benchWorkloads {
		ops, err := w.build(defaultSeed, nil, -1)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		r := measure(ops, nil, runConfig{minCalls: 2 * len(ops)}, nil)
		if r.failed > 0 {
			fmt.Fprintf(stderr, "perfbench: %s: %d calls failed: %s\n", w.name, r.failed, strings.Join(r.errs, "; "))
			return 1
		}
		all[w.name] = goldenList{Ops: opsDigest(ops), Calls: r.digests}
	}
	out, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return 0
}
