package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from path, or when path is empty from the
// working directory or the nearest parent that has one.
func loadSpec(path string) (*benchmarkSpec, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, err
		}
		for {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				path = filepath.Join(dir, "BENCHMARK.json")
				break
			}
			parent := filepath.Dir(dir)
			if parent == dir {
				return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
			}
			dir = parent
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// compare prints, for every workload and end-to-end metric, both sides'
// medians over their untraced runs and a verdict under the metric's bound.
// Per-layer medians of the traced runs are listed with their change but
// never judged. The exit code is 1 when any end-to-end metric regressed.
func compare(w io.Writer, specPath, oldPath, newPath string) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	oldRF, err := readResults(oldPath)
	if err != nil {
		return 0, err
	}
	newRF, err := readResults(newPath)
	if err != nil {
		return 0, err
	}
	oldM, newM := medians(oldRF), medians(newRF)
	workloads := map[string]bool{}
	for k := range oldM {
		workloads[k.workload] = true
	}
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)

	code := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s  %s\n", "workload", "metric", "old", "new", "change", "verdict")
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			o, okO := oldM[cell{wl, false, m.Name}]
			n, okN := newM[cell{wl, false, m.Name}]
			if !okO || !okN {
				continue
			}
			verdict := judge(m, o, n)
			if verdict == "REGRESSION" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%%  %s (bound %.0f%%)\n", wl, m.Name, o, n, 100*(n/o-1), verdict, 100*m.Bound)
		}
	}
	fmt.Fprintln(w, "per-layer medians (not gated):")
	for _, wl := range names {
		for _, m := range spec.PerLayer {
			o, okO := oldM[cell{wl, true, m.Name}]
			n, okN := newM[cell{wl, true, m.Name}]
			if !okO || !okN || (o == 0 && n == 0) {
				continue
			}
			change := "     n/a"
			if o != 0 {
				change = fmt.Sprintf("%+8.1f%%", 100*(n/o-1))
			}
			fmt.Fprintf(w, "  %-14s %-36s %14.6g %14.6g %s %s\n", wl, m.Name, o, n, change, m.Unit)
		}
	}
	return code, nil
}

// judge is the verdict on one metric: worse than old by more than the
// bound is a regression.
func judge(m metricDef, old, new float64) string {
	limit := old * (1 + m.Bound)
	worse := new > limit
	if m.Better == "higher" {
		limit = old * (1 - m.Bound)
		worse = new < limit
	}
	if worse {
		return "REGRESSION"
	}
	return "ok"
}

type cell struct {
	workload string
	trace    bool
	metric   string
}

// medians is each (workload, traced, metric) median over a file's runs.
func medians(rf *resultFile) map[cell]float64 {
	vals := map[cell][]float64{}
	for _, r := range rf.Runs {
		for name, m := range r.Metrics {
			k := cell{r.Workload, r.Trace, name}
			vals[k] = append(vals[k], m.Value)
		}
	}
	out := make(map[cell]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}
