package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// span is one timed crossing of a boundary the benchmark makes: a pass, a
// call, or a call into a layer. Counters recorded at the boundary ride on
// the span.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"` // -1 for a root span
	Call     int                `json:"call"`   // the call's index in the run, -1 outside calls
	Name     string             `json:"name"`
	Start    int64              `json:"start_ns"`
	End      int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) ns() float64 { return float64(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
	marks map[int]hostMark
}

// hostMark is the process state read at the start of a layer call.
type hostMark struct {
	mallocs, bytes uint64
	cpu            time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now(), marks: map[int]hostMark{}} }

func (t *tracer) begin(name string, parent, call int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Call: call, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	return len(t.spans) - 1
}

// beginCall opens the span of a call into a layer and also records the
// allocation and CPU counters end turns into per-call deltas.
// ReadMemStats stops the world, which is why only the traced run does it.
func (t *tracer) beginCall(name string, parent, call int) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	id := t.begin(name, parent, call)
	t.marks[id] = hostMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, cpu: processCPU()}
	t.spans[id].Start = time.Since(t.t0).Nanoseconds()
	return id
}

func (t *tracer) end(id int, counters map[string]float64) {
	if t == nil {
		return
	}
	sp := &t.spans[id]
	sp.End = time.Since(t.t0).Nanoseconds()
	if m, ok := t.marks[id]; ok {
		cpu := processCPU()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if counters == nil {
			counters = map[string]float64{}
		}
		counters["host.allocs"] = float64(ms.Mallocs - m.mallocs)
		counters["host.bytes"] = float64(ms.TotalAlloc - m.bytes)
		counters["host.cpu_s"] = (cpu - m.cpu).Seconds()
		delete(t.marks, id)
	}
	sp.Counters = counters
}

// processCPU is the user+system CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// write stores the spans as JSON, creating the file's directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes prints each span name's total and self time: the span's
// duration minus the part its children cover.
func (t *tracer) selfTimes(w io.Writer) {
	child := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.ns()
		}
	}
	total, self, count := map[string]float64{}, map[string]float64{}, map[string]int{}
	var names []string
	for i, s := range t.spans {
		if count[s.Name] == 0 {
			names = append(names, s.Name)
		}
		count[s.Name]++
		total[s.Name] += s.ns()
		self[s.Name] += s.ns() - child[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "%-16s %8d %12.3f %12.3f\n", n, count[n], total[n]/1e6, self[n]/1e6)
	}
}

// layerStats gathers the spans of one name.
type layerStats struct {
	n     int
	durNs []float64
	wall  float64 // summed duration, ns
	sum   map[string]float64
}

func byName(spans []span) map[string]*layerStats {
	out := map[string]*layerStats{}
	for _, s := range spans {
		l := out[s.Name]
		if l == nil {
			l = &layerStats{sum: map[string]float64{}}
			out[s.Name] = l
		}
		l.n++
		l.durNs = append(l.durNs, s.ns())
		l.wall += s.ns()
		for k, v := range s.Counters {
			l.sum[k] += v
		}
	}
	return out
}

// ratio is a/b, or 0 when the layer did no work in this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerCalls names, per layer, the layer calls whose spans measure it. The
// runtime and trace metrics are the whole run's.
var layerCalls = map[string][]string{
	"opt": {"opt.Optimize"}, "cost": {"cost.Estimate"}, "plan": {"plan.Bind"},
	"exec": {"exec.Run"}, "sim": {"exec.Run", "serve.Run"},
	"disk": {"exec.Run", "serve.Run"}, "netsim": {"exec.Run", "serve.Run"},
	"serve": {"serve.Run"}, "coherence": {"serve.Run"}, "faults": {"serve.Run"},
}

// reaches reports whether spans hold a call into the layer metric belongs to.
func reaches(by map[string]*layerStats, metric string) bool {
	calls, ok := layerCalls[strings.SplitN(metric, ".", 2)[0]]
	if !ok {
		return true
	}
	for _, c := range calls {
		if by[c] != nil {
			return true
		}
	}
	return false
}

// layerMetrics derives the per-layer metrics from spans. A layer the spans
// never reach reports 0.
func layerMetrics(spans []span) map[string]float64 {
	by := byName(spans)
	get := func(name string) *layerStats {
		if l := by[name]; l != nil {
			return l
		}
		return &layerStats{sum: map[string]float64{}}
	}
	o, b, e := get("opt.Optimize"), get("plan.Bind"), get("cost.Estimate")
	x, s := get("exec.Run"), get("serve.Run")
	both := func(k string) float64 { return x.sum[k] + s.sum[k] }
	q := both("queries")
	m := map[string]float64{
		"opt.call_ms":                    quantile(o.durNs, 0.5) / 1e6,
		"opt.allocs_per_call":            ratio(o.sum["host.allocs"], float64(o.n)),
		"opt.bytes_per_call":             ratio(o.sum["host.bytes"], float64(o.n)),
		"opt.cpu_per_wall":               ratio(o.sum["host.cpu_s"]*1e9, o.wall),
		"cost.estimate_us":               quantile(e.durNs, 0.5) / 1e3,
		"plan.bind_us":                   quantile(b.durNs, 0.5) / 1e3,
		"exec.call_ms":                   quantile(x.durNs, 0.5) / 1e6,
		"exec.allocs_per_query":          ratio(x.sum["host.allocs"], x.sum["queries"]),
		"sim.events_per_query":           ratio(both("events"), q),
		"sim.ns_per_event":               ratio(x.wall+s.wall, both("events")),
		"disk.reads_per_query":           ratio(both("disk.reads"), q),
		"disk.writes_per_query":          ratio(both("disk.writes"), q),
		"disk.cache_hit_frac":            ratio(both("disk.hits"), both("disk.reads")),
		"netsim.pages_per_query":         ratio(both("net.pages"), q),
		"netsim.messages_per_query":      ratio(both("net.messages"), q),
		"serve.call_ms":                  quantile(s.durNs, 0.5) / 1e6,
		"serve.completed_frac":           ratio(s.sum["completed"], s.sum["queries"]),
		"coherence.renewals_per_query":   ratio(s.sum["coh.renewals"], s.sum["queries"]),
		"coherence.callbacks_per_update": ratio(s.sum["coh.callback_msgs"], s.sum["coh.updates"]),
		"coherence.cache_hit_frac":       ratio(s.sum["coh.hit_pages"], s.sum["coh.hit_pages"]+s.sum["coh.miss_pages"]),
		"faults.retries_per_query":       ratio(s.sum["faults.retries"], s.sum["queries"]),
		// serve.Result does not give the virtual time of a run's successful
		// attempts, so the denominator takes the completed queries' response
		// times, which also hold queue, backoff and update waits.
		"faults.aborted_frac": ratio(s.sum["faults.aborted_s"], s.sum["faults.aborted_s"]+s.sum["faults.completed_rt_s"]),
	}
	return m
}

// gcMeter reads the runtime's GC and total CPU time estimates from the
// moment it is made. The runtime updates them only at GC cycles, so a
// meter read over a short stretch follows the cycles, not the stretch.
type gcMeter struct {
	samples  []metrics.Sample
	gc, used float64
}

func newGCMeter() *gcMeter {
	g := &gcMeter{samples: []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}}
	g.gc, g.used = g.read()
	return g
}

func (g *gcMeter) read() (gc, used float64) {
	metrics.Read(g.samples)
	v := func(i int) float64 {
		if g.samples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return g.samples[i].Value.Float64()
	}
	return v(0), v(1) - v(2)
}

// frac is GC CPU over all CPU the process used since the meter was made.
func (g *gcMeter) frac() float64 {
	gc, used := g.read()
	return ratio(gc-g.gc, used-g.used)
}
