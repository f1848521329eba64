package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

const (
	// minCalls leaves at least ten timed calls beyond call_p90_ms.
	minCalls = 110
	// maxMeasure stops a run whose passes are far slower than expected, so
	// the process still ends in time; the run then reports fewer calls.
	maxMeasure = 120 * time.Second
	// setupRepeats is how many times a run sets up; setup_s is their median.
	setupRepeats = 7
	// warmupCalls run at the end of every set-up and count in setup_s.
	warmupCalls = 3
)

// runConfig sets how much a run measures: whole passes over the call list
// until at least seconds have passed and minCalls calls were made.
type runConfig struct {
	seconds  float64
	minCalls int
	// trace alternates untraced and traced passes, ending on a traced one,
	// so the two can be compared for the tracing overhead.
	trace bool
}

// runResult is what the timed passes measured.
type runResult struct {
	latMs     []float64 // program-call latency of each successful untraced call
	passRates []float64 // queries per second of each untraced pass
	queries   int64     // queries brought to a terminal state in untraced passes
	wall      float64   // seconds spent in untraced passes

	tracedQueries int64
	tracedWall    float64

	calls, failed, passes int
	digests               []string // each call's digest of virtual outputs
	errs                  []string // the first few failures
	gcFrac                float64  // GC share of the CPU used over all passes
}

func (r *runResult) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// measure runs ops in whole passes, in list order, one call at a time.
// Every call's output is checked, and its digest must equal gold's entry
// (when gold is given) or else the digest the same call gave in the first
// pass.
func measure(ops []op, gold []string, cfg runConfig, tr *tracer) runResult {
	var r runResult
	gc := newGCMeter()
	ref := make([]string, len(ops))
	copy(ref, gold)
	start := time.Now()
	for pass := 0; ; pass++ {
		traced := cfg.trace && pass%2 == 1
		var ptr *tracer
		if traced {
			ptr = tr
		}
		var q int64
		t0 := time.Now()
		psp := ptr.begin("pass", -1, -1)
		for i, o := range ops {
			id := pass*len(ops) + i
			csp := ptr.begin("call", psp, id)
			out, err := o.call(ptr, csp, id)
			ptr.end(csp, nil)
			r.calls++
			switch {
			case err != nil:
				r.fail("call %d (%s): %v", i, o.key, err)
				continue
			case ref[i] == "":
				ref[i] = out.digest
			case out.digest != ref[i]:
				r.fail("call %d (%s): virtual outputs changed: digest %s, want %s", i, o.key, out.digest, ref[i])
			}
			q += out.queries
			if !traced {
				r.latMs = append(r.latMs, float64(out.dur.Nanoseconds())/1e6)
			}
		}
		ptr.end(psp, nil)
		el := time.Since(t0).Seconds()
		if traced {
			r.tracedQueries += q
			r.tracedWall += el
		} else {
			r.passRates = append(r.passRates, float64(q)/el)
			r.queries += q
			r.wall += el
		}
		r.passes = pass + 1
		if cfg.trace && r.passes%2 == 1 {
			continue
		}
		total := time.Since(start)
		if total.Seconds() >= cfg.seconds && r.calls >= cfg.minCalls || total > maxMeasure {
			r.digests = ref
			r.gcFrac = gc.frac()
			return r
		}
	}
}

// warmUp runs the first calls of a fresh list, discarding their outputs:
// the timed passes check the same calls.
func warmUp(ops []op) {
	for _, o := range ops[:min(warmupCalls, len(ops))] {
		_, _ = o.call(nil, -1, -1)
	}
}

// quantile is the nearest-rank p-quantile of v, or 0 for no samples.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// median is the middle value of v, or the mean of the two middle ones.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// beyond is how many of n samples lie above the nearest-rank p-quantile.
func beyond(n int, p float64) int {
	return n - max(1, int(math.Ceil(p*float64(n))))
}
