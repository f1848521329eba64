package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain is the comparison report. Given two sets of runs, each a
// directory holding WORKLOAD.jsonl files of result lines (one per run, as
// sweep.sh writes them), it prints per workload and end-to-end metric each
// set's median and quartiles, and whether the sets agree within the bounds
// of BENCHMARK.json: each set's quartile spread and the
// shift of B's median from A's in the worse direction are both within the
// bound. It reads BENCHMARK.json from the working directory. It exits 1 if
// any pair disagrees or any run failed a check.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintf(stderr, "usage: perfbench compare DIR_A DIR_B\n")
		return 2
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench: BENCHMARK.json: %v\n", err)
		return 1
	}
	dirA, dirB := args[0], args[1]
	ok := true
	fmt.Fprintf(stdout, "%-9s %-14s %5s %12s %12s %12s %7s   %12s %12s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "A sprd",
		"B q1", "B median", "B q3", "B sprd", "shift", "runs", "verdict")
	for _, w := range spec.Workloads {
		a, errA := readRuns(filepath.Join(dirA, w.Name+".jsonl"))
		b, errB := readRuns(filepath.Join(dirB, w.Name+".jsonl"))
		if errA != nil || errB != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v %v\n", w.Name, errA, errB)
			return 1
		}
		for _, set := range [][]result{a, b} {
			for _, r := range set {
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(stdout, "%s: a run failed %d of %d calls\n", w.Name, r.Failed, r.Attempted)
					ok = false
				}
			}
		}
		for _, m := range spec.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(stdout, "%-9s %-14s needs at least two runs in each set\n", w.Name, m.Name)
				ok = false
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			sa, sb := (qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1]
			shift := (qb[1] - qa[1]) / qa[1] // positive = B worse
			if m.Better == "higher" {
				shift = -shift
			}
			agree := shift <= m.Bound && sa <= m.Bound && sb <= m.Bound
			verdict := "agree"
			switch {
			case !agree:
				verdict = "DISAGREE"
				ok = false
			case sa > m.Bound/3 || sb > m.Bound/3:
				verdict = "agree (spread above bound/3)"
			}
			fmt.Fprintf(stdout, "%-9s %-14s %5.2f %12.4f %12.4f %12.4f %7.4f   %12.4f %12.4f %12.4f %7.4f %+7.4f %3d/%-3d %s\n",
				w.Name, m.Name, m.Bound, qa[0], qa[1], qa[2], sa, qb[0], qb[1], qb[2], sb, shift, len(va), len(vb), verdict)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// readRuns reads one result line per line of a .jsonl file.
func readRuns(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func values(runs []result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile of v by
// the method of Python's statistics.quantiles(v, n=4) (the default,
// exclusive method) and statistics.median. v needs two or more values.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := max(1, min(i*m/4, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return [3]float64{q(1), median(s), q(3)}
}
