package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// firstCalls is a workload whose list is cut to its first n calls, so the
// tests drive every layer without paying for whole passes.
func firstCalls(w benchWorkload, n int) benchWorkload {
	return benchWorkload{name: w.name, build: func(seed int64, tr *tracer, parent int) ([]op, error) {
		ops, err := w.build(seed, tr, parent)
		if err != nil {
			return nil, err
		}
		return ops[:min(n, len(ops))], nil
	}}
}

// everyNth is a workload whose list keeps calls 0, n, 2n and so on.
func everyNth(w benchWorkload, n int) benchWorkload {
	return benchWorkload{name: w.name, build: func(seed int64, tr *tracer, parent int) ([]op, error) {
		ops, err := w.build(seed, tr, parent)
		if err != nil {
			return nil, err
		}
		var out []op
		for i := 0; i < len(ops); i += n {
			out = append(out, ops[i])
		}
		return out, nil
	}}
}

// exactStride is how TestExactCountsRepeat thins each list: simulate and
// serve run whole, which covers every write, fault and lease cell;
// optimize, whose calls are the slowest, keeps every 7th call, two per
// server count and each policy twice.
var exactStride = map[string]int{"optimize": 7, "simulate": 1, "serve": 1}

// TestOpListStable: for one seed the call list is the same on every build,
// and at the default seed it is the one golden.json was made from.
func TestOpListStable(t *testing.T) {
	for _, w := range benchWorkloads {
		a, err := w.build(defaultSeed, nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := w.build(defaultSeed, nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if opsDigest(a) != opsDigest(b) {
			t.Errorf("%s: two builds from seed %d gave different call lists", w.name, defaultSeed)
		}
		gold, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := goldCalls(a, gold); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		other, err := w.build(defaultSeed+1, nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if opsDigest(other) == opsDigest(a) {
			t.Errorf("%s: seeds %d and %d gave the same call list", w.name, defaultSeed, defaultSeed+1)
		}
	}
}

// callCounts runs ops once with a tracer and returns each call's digest and
// dispatched-event count.
func callCounts(t *testing.T, ops []op) (digests []string, events []float64) {
	t.Helper()
	tr := newTracer()
	for i, o := range ops {
		out, err := o.call(tr, -1, i)
		if err != nil {
			t.Fatalf("call %d (%s): %v", i, o.key, err)
		}
		digests = append(digests, out.digest)
	}
	for _, s := range tr.spans {
		if s.Name == "exec.Run" || s.Name == "serve.Run" {
			events = append(events, s.Counters["events"])
		}
	}
	return digests, events
}

// TestExactCountsRepeat: the virtual digests and sim.events_per_query's
// event counts repeat across passes and across GOMAXPROCS 1 and 2, and at
// the default seed the digests are the committed ones. The lists are
// thinned by exactStride.
func TestExactCountsRepeat(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range benchWorkloads {
		stride := exactStride[w.name]
		ops, err := everyNth(w, stride).build(defaultSeed, nil, -1)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		gold, err := loadGolden(w.name)
		if err != nil {
			t.Fatal(err)
		}
		var refD []string
		var refE []float64
		for _, procs := range []int{1, 2, 1, 2} {
			runtime.GOMAXPROCS(procs)
			d, e := callCounts(t, ops)
			if refD == nil {
				refD, refE = d, e
				for i := range d {
					if g := gold.Calls[i*stride]; d[i] != g {
						t.Errorf("%s call %d: digest %s, golden.json has %s", w.name, i*stride, d[i], g)
					}
				}
				continue
			}
			for i := range d {
				if d[i] != refD[i] {
					t.Errorf("%s call %d at GOMAXPROCS %d: digest %s, first pass %s", w.name, i, procs, d[i], refD[i])
				}
			}
			for i := range e {
				if e[i] != refE[i] {
					t.Errorf("%s call %d at GOMAXPROCS %d: %g events, first pass %g", w.name, i, procs, e[i], refE[i])
				}
			}
		}
		if w.name != "optimize" && len(refE) != len(ops) {
			t.Errorf("%s: %d calls counted events, want %d", w.name, len(refE), len(ops))
		}
	}
}

// benchFile is the part of BENCHMARK.json naming the metrics.
type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchFile(t *testing.T) benchFile {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func sameDefs(t *testing.T, kind string, file []struct{ Name, Unit string }, defs []metricDef) {
	t.Helper()
	if len(file) != len(defs) {
		t.Fatalf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(file), kind, len(defs))
	}
	for i, m := range file {
		if m.Name != defs[i].name || m.Unit != defs[i].unit {
			t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
				kind, i, m.Name, m.Unit, defs[i].name, defs[i].unit)
		}
	}
}

// TestTracedRunReportsEveryLayerMetric: a traced run of each workload
// writes its span file and reports every per-layer metric BENCHMARK.json
// names. The layers the workload reaches read non-zero, and so does every
// host time, measured on the probe where the workload does not reach the
// layer.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	sameDefs(t, "per_layer", readBenchFile(t).PerLayer, perLayer)
	reached := map[string][]string{
		"optimize": {"opt.call_ms", "opt.allocs_per_call", "opt.cpu_per_wall", "cost.estimate_us", "plan.bind_us"},
		"simulate": {"opt.call_ms", "exec.call_ms", "exec.allocs_per_query", "sim.events_per_query",
			"sim.ns_per_event", "disk.reads_per_query", "netsim.pages_per_query"},
		"serve": {"opt.call_ms", "serve.call_ms", "serve.completed_frac", "sim.events_per_query",
			"disk.reads_per_query", "netsim.messages_per_query", "coherence.cache_hit_frac"},
	}
	for _, w := range benchWorkloads {
		path := filepath.Join(t.TempDir(), "spans.json")
		res, err := tracedRun(firstCalls(w, 2), defaultSeed, nil, runConfig{minCalls: 1, trace: true}, path, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s: traced run failed %d of %d calls", w.name, res.Failed, res.Attempted)
		}
		for _, m := range perLayer {
			if _, ok := res.Metrics[m.name]; !ok {
				t.Errorf("%s: traced run does not report %s", w.name, m.name)
			}
		}
		for _, name := range reached[w.name] {
			if res.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.name, name, res.Metrics[name].Value)
			}
		}
		for _, m := range perLayer {
			if v := res.Metrics[m.name].Value; hostTimeUnits[m.unit] && v <= 0 {
				t.Errorf("%s: %s = %g %s, want a host time > 0", w.name, m.name, v, m.unit)
			}
		}
		var spans []span
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file holds no spans (%v)", w.name, err)
		}
	}
}

var hostTimeUnits = map[string]bool{"ms": true, "us": true, "ns": true, "s/s": true}

// TestTimedRunReportsEndToEnd: an untraced run reports exactly the
// end-to-end metrics BENCHMARK.json names, all non-zero.
func TestTimedRunReportsEndToEnd(t *testing.T) {
	sameDefs(t, "end_to_end", readBenchFile(t).EndToEnd, endToEnd)
	w, _ := findWorkload("optimize")
	res, err := timedRun(firstCalls(w, 2), defaultSeed+1, nil, runConfig{minCalls: 4}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Attempted != 4 {
		t.Errorf("run: correct %v, %d calls attempted, want 4", res.Correct, res.Attempted)
	}
	if len(res.Metrics) != len(endToEnd) {
		t.Errorf("run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if v := res.Metrics[m.name]; v.Value <= 0 || v.Unit != m.unit {
			t.Errorf("%s = %+v, want a positive value in %s", m.name, v, m.unit)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4) and
// statistics.median, which the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{2, 4}, [3]float64{1.5, 3, 4.5}},
	}
	for _, c := range cases {
		if got := quartiles(c.in); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
