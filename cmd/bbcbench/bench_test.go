package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// binDir holds the bbcbench and bbcserved binaries TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "bbcbench-test-")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, target := range [][2]string{{"bbcbench", "."}, {"bbcserved", "bbc/cmd/bbcserved"}} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, target[0]), target[1])
		if out, err := cmd.CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			panic(string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// declared reads the repository's BENCHMARK.json.
func declared(t *testing.T) *benchmarkSpec {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestDeclarations pins the metric tables in code to BENCHMARK.json.
func TestDeclarations(t *testing.T) {
	spec := declared(t)
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if !sameDefs(spec.EndToEnd, e2eMetrics) {
		t.Errorf("end_to_end in BENCHMARK.json %v, in code %v", spec.EndToEnd, e2eMetrics)
	}
	if !sameDefs(spec.PerLayer, layerMetrics) {
		t.Errorf("per_layer in BENCHMARK.json differs from the code's layerMetrics")
	}
	for _, m := range append(append([]metricDef{}, spec.EndToEnd...), spec.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
	}
}

func sameDefs(a, b []metricDef) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloads runs every workload at --smoke size, untraced and traced,
// and checks what each run emits.
func TestWorkloads(t *testing.T) {
	spec := declared(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			traceDir := t.TempDir()
			for _, trace := range []string{"0", "1"} {
				cmd := exec.Command(filepath.Join(binDir, "bbcbench"), "--workload", name, "--seed", "3",
					"--seconds", "0.6", "--trace", trace, "--smoke", "--trace-dir", traceDir,
					"--bbcserved", filepath.Join(binDir, "bbcserved"), "--work", t.TempDir())
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("trace %s: %v\n%s%s", trace, err, stdout.String(), stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res struct {
					Correct   bool `json:"correct"`
					Attempted int  `json:"attempted"`
					Failed    int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("trace %s: last line is not the result: %v", trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace %s: correct=%t attempted=%d failed=%d\n%s", trace, res.Correct, res.Attempted, res.Failed, stdout.String())
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok || got.Value == nil:
						t.Errorf("trace %s: %s not emitted", trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("trace %s: %s unit %q, declared %q", trace, m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace %s: %d metrics emitted, %d declared", trace, len(res.Metrics), len(want))
				}
			}
			checkReconciled(t, filepath.Join(traceDir, name+".layers.json"))
			if _, err := os.Stat(filepath.Join(traceDir, name+".trace.json")); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkReconciled: the traced run's self times plus the unattributed
// time equal tracks × wall within 2%.
func checkReconciled(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var lt layerTable
	if err := json.Unmarshal(data, &lt); err != nil {
		t.Fatal(err)
	}
	total := lt.UnattributedS
	for _, s := range lt.SelfS {
		total += s
	}
	if lt.TrackWallS <= 0 || math.Abs(total-lt.TrackWallS) > 0.02*lt.TrackWallS {
		t.Errorf("%s: self + unattributed = %.4fs, tracks x wall = %.4fs", path, total, lt.TrackWallS)
	}
}

// TestCompare: an identical pair passes, so does a throughput drop just
// inside the declared bound, and a drop just past it fails.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	var bound float64
	for _, m := range declared(t).EndToEnd {
		if m.Name == "ops_per_s" {
			bound = m.Bound
		}
	}
	base := resultFile{}
	for _, w := range workloadNames {
		for seed := int64(1); seed <= 3; seed++ {
			r := runResult{Workload: w, Seed: seed, Metrics: map[string]metricValue{}}
			for _, m := range e2eMetrics {
				r.Metrics[m.Name] = metricValue{Value: 10 + float64(seed)/10, Unit: m.Unit}
			}
			base.Runs = append(base.Runs, r)
		}
	}
	oldPath := filepath.Join(dir, "old.json")
	if err := writeJSON(oldPath, base); err != nil {
		t.Fatal(err)
	}
	spec := filepath.Join("..", "..", "BENCHMARK.json")
	var out bytes.Buffer
	if code, err := compare(&out, spec, oldPath, oldPath); err != nil || code != 0 {
		t.Fatalf("identical pair: code %d, err %v\n%s", code, err, out.String())
	}

	for _, tc := range []struct {
		drop        float64
		regressions int
	}{{bound - 0.05, 0}, {bound + 0.05, 1}} {
		slow := resultFile{}
		for _, r := range base.Runs {
			c := r
			c.Metrics = map[string]metricValue{}
			for k, v := range r.Metrics {
				if r.Workload == "scan-gadget" && k == "ops_per_s" {
					v.Value *= 1 - tc.drop
				}
				c.Metrics[k] = v
			}
			slow.Runs = append(slow.Runs, c)
		}
		newPath := filepath.Join(dir, "new.json")
		if err := writeJSON(newPath, slow); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		code, err := compare(&out, spec, oldPath, newPath)
		if err != nil {
			t.Fatal(err)
		}
		if n := strings.Count(out.String(), "REGRESSION"); n != tc.regressions || code != min(n, 1) {
			t.Errorf("%.0f%% ops_per_s drop on scan-gadget: %d regressions, exit code %d; want %d\n%s",
				100*tc.drop, n, code, tc.regressions, out.String())
		}
	}
}
