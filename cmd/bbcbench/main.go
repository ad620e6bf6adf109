// Command bbcbench measures the BBC solver stack end to end and layer by
// layer on four fixed workloads: the Theorem 1 gadget scan, the same scan
// merged by a two-worker fleet, a closed loop of jobs against the job
// service, and a sweep grid. It reaches the program only through public
// package APIs and the HTTP API, with an obs registry installed the way
// every command installs one, and checks every output it gets.
//
// One workload, as the benchmark harness runs it (the last line of
// standard output is the JSON result):
//
//	bbcbench --workload scan-gadget --seed 1 --seconds 30 --trace 0
//
// A run does a fixed number of operations, the number the reference
// machine completes in --seconds. With --trace 1 the run measures an
// untraced and a traced half and reports the per-layer metrics instead of
// the end-to-end ones.
//
// All workloads, each in a fresh child process, into one result file (add
// --trace-dir DIR for the traced runs and their Chrome traces):
//
//	bbcbench --seed 1 --out result.json
//
// Two result files, one row per workload and end-to-end metric, failing on
// a regression beyond the bounds in the nearest BENCHMARK.json up from the
// working directory:
//
//	bbcbench --compare old.json new.json
//
// Build and run it through run.sh, which also builds the bbcserved
// workers the fleet workload starts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"bbc/internal/obs"
)

// workloadNames are the workloads in the order they run.
var workloadNames = []string{"scan-gadget", "fleet-gadget", "serve-jobs", "sweep-grid"}

// workload is one fixed workload of the benchmark.
type workload interface {
	// setup makes the inputs from the seed and brings up the system under
	// test. It runs several times, with teardown in between, and the
	// median is the set-up time.
	setup(e *env) error
	// run drives ops operations, or fewer if the deadline passes first,
	// and books each in ph; when ph.tr is set it also records spans.
	run(ph *phase, ops int, until time.Time)
	// counters reads the program's registries.
	counters() (snapshot, error)
	// engineThreads is how many goroutines run engine code at once.
	engineThreads() int
	// workerPIDs are the processes besides this one that the workload
	// runs on; their memory counts in rss_mb.
	workerPIDs() []int
	// verify re-checks outputs after the timed phases, booking wrong
	// results as failures in ph.
	verify(ph *phase)
	// teardown stops everything setup started.
	teardown()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "scan-gadget":
		return &scanWorkload{}, nil
	case "fleet-gadget":
		return &fleetWorkload{}, nil
	case "serve-jobs":
		return &jobsWorkload{}, nil
	case "sweep-grid":
		return &sweepWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// env is what a workload's set-up gets.
type env struct {
	seed      int64
	smoke     bool
	work      string // this run's scratch directory
	bbcserved string // the worker binary the fleet starts
	reg       *obs.Registry
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	traceDir  string
	out       string
	smoke     bool
	compare   bool
	bbcserved string
	work      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload: scan-gadget, fleet-gadget, serve-jobs or sweep-grid (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the inputs are made from")
	flag.Float64Var(&o.seconds, "seconds", 30, "size of the timed work: the operations the reference machine completes in this many seconds")
	flag.IntVar(&o.trace, "trace", 0, "1: measure an untraced and a traced half and report the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write <workload>.trace.json (Chrome format) and <workload>.layers.json here; with all workloads, also run each traced")
	flag.StringVar(&o.out, "out", "", "write the full result (every run, sample counts, system) to this JSON file")
	flag.BoolVar(&o.smoke, "smoke", false, "small inputs: a 7-player game instead of the gadget and an n=4 grid")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files given as arguments: OLD NEW")
	flag.StringVar(&o.bbcserved, "bbcserved", "", "bbcserved binary for the fleet workers (default: go build it)")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for stores, data and workers")
	flag.Parse()

	var err error
	code := 0
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			err = errors.New("--compare wants two result files: OLD NEW")
			break
		}
		code, err = compare(os.Stdout, "", flag.Arg(0), flag.Arg(1))
	case o.workload != "":
		code, err = single(o)
	default:
		code, err = all(o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bbcbench: %v\n", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// metricValue is one metric of a result.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Smoke     bool                   `json:"smoke,omitempty"`
	System    system                 `json:"system"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Layers    *layerTable            `json:"layers,omitempty"`
}

// resultFile is what --out writes and --compare reads.
type resultFile struct {
	System system      `json:"system"`
	Runs   []runResult `json:"runs"`
}

// single runs one workload and prints its result; the exit code is 1 when
// any output was wrong.
func single(o options) (int, error) {
	if o.bbcserved == "" && o.workload == "fleet-gadget" {
		bin, err := buildWorker(o.work)
		if err != nil {
			return 0, err
		}
		o.bbcserved = bin
	}
	res, err := measure(o)
	if err != nil {
		return 0, err
	}
	printResult(os.Stdout, res)
	if o.out != "" {
		if err := writeJSON(o.out, resultFile{System: res.System, Runs: []runResult{*res}}); err != nil {
			return 0, err
		}
	}
	if !res.Correct {
		return 1, nil
	}
	return 0, nil
}

// buildWorker builds bbcserved from the bbc module this one replaces.
func buildWorker(work string) (string, error) {
	dir, err := filepath.Abs(filepath.Join(work, "bin"))
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "bbcserved")
	cmd := exec.Command("go", "build", "-o", bin, "bbc/cmd/bbcserved")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build bbcserved: %w", err)
	}
	return bin, nil
}

// setupReps is how many times set-up runs. Set-up takes tens of
// milliseconds, where one slow fsync or scheduling delay moves a single
// repetition by half, so the median is taken over many; starting worker
// processes takes longer and moves less.
func setupReps(name string) int {
	if name == "fleet-gadget" {
		return 5
	}
	return 21
}

// opsPerSecond is each workload's operation rate on the reference machine
// (README.md): a run of --seconds S does S times this many operations,
// the same work on every tree, so a slower tree takes longer instead of
// doing less. Smoke inputs are smaller and finish sooner.
var opsPerSecond = map[string]float64{
	"scan-gadget":  0.6,
	"fleet-gadget": 0.8,
	"serve-jobs":   100,
	"sweep-grid":   0.55,
}

// minOps is the fewest operations a phase does.
const minOps = 4

// overrun is how many times its nominal length a phase may take before
// it stops short of its operation count, which keeps a run on a slow
// machine within the harness's time limit.
const overrun = 2

// measure runs one workload: set-up, the timed phase (or an untraced and
// a traced half), the output checks and, when traced, the probes.
func measure(o options) (*runResult, error) {
	w, err := newWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	rt, err := obs.StartCLIConfig(obs.CLIConfig{Name: "bbcbench"})
	if err != nil {
		return nil, err
	}
	defer rt.Close()
	work, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work) //nolint:errcheck // scratch
	e := &env{seed: o.seed, smoke: o.smoke, work: work, bbcserved: o.bbcserved, reg: rt.Reg}

	var setups []float64
	for i := 0; i < setupReps(o.workload); i++ {
		if i > 0 {
			w.teardown()
		}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	up := true
	defer func() {
		if up {
			w.teardown()
		}
	}()

	window := time.Duration(o.seconds * float64(time.Second))
	ops := int(math.Round(o.seconds * opsPerSecond[o.workload]))
	if o.trace == 1 {
		window, ops = window/2, ops/2
	}
	ops = max(minOps, ops)
	before, err := w.counters()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss := sampleRSS(w.workerPIDs())
	base := timed(w, newPhase(nil), ops, window)
	rssSamples := rss.end()
	runtime.ReadMemStats(&m1)
	after, err := w.counters()
	if err != nil {
		return nil, err
	}

	res := &runResult{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace == 1,
		Smoke: o.smoke, System: describeSystem(), Metrics: map[string]metricValue{},
	}
	phases := []*phase{base}
	if o.trace != 1 {
		w.verify(base)
		for name, m := range e2eValues(setups, base, rssSamples) {
			m.Unit = unitOf(e2eMetrics, name)
			res.Metrics[name] = m
		}
	} else {
		tr := newTracer()
		traced := timed(w, newPhase(tr), ops, window)
		phases = append(phases, traced)
		w.verify(traced)
		w.teardown()
		up = false
		table := tr.table(traced.start, traced.end)
		res.Layers = table
		if o.traceDir != "" {
			if err := tr.writeChrome(filepath.Join(o.traceDir, o.workload+".trace.json"), traced.start); err != nil {
				return nil, err
			}
			if err := writeJSON(filepath.Join(o.traceDir, o.workload+".layers.json"), table); err != nil {
				return nil, err
			}
		}
		mem := runtime.MemStats{TotalAlloc: m1.TotalAlloc - m0.TotalAlloc, NumGC: m1.NumGC - m0.NumGC}
		values := layerValues(layerInputs{
			workload: o.workload, base: base, traced: traced, counts: after.since(before),
			mem: mem, threads: w.engineThreads(), tr: tr, table: table, probes: probes(e),
		})
		for name, v := range values {
			res.Metrics[name] = metricValue{Value: v, Unit: unitOf(layerMetrics, name)}
		}
	}
	for _, ph := range phases {
		res.Attempted += ph.attempted
		res.Failed += ph.failed
		res.Errors = append(res.Errors, ph.errs...)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// timed runs one phase of ops operations, nominally window long.
func timed(w workload, ph *phase, ops int, window time.Duration) *phase {
	ph.start = time.Now()
	w.run(ph, ops, ph.start.Add(overrun*window))
	ph.end = time.Now()
	return ph
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

// printResult prints the result for people (every metric with its unit
// and sample count, the failures) and then, as the last line, the JSON
// object the benchmark harness reads.
func printResult(w io.Writer, res *runResult) {
	s := res.System
	fmt.Fprintf(w, "bbcbench %s seed=%d seconds=%g trace=%t nproc=%d GOMAXPROCS=%d cpu=%q go=%s rev=%s\n",
		res.Workload, res.Seed, res.Seconds, res.Trace, s.NProc, s.GOMAXPROCS, s.CPU, s.GoVersion, s.GitRev)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		if m.Samples > 0 {
			fmt.Fprintf(w, "  %-36s %14.6g %-16s n=%d\n", name, m.Value, m.Unit, m.Samples)
		} else {
			fmt.Fprintf(w, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
		}
	}
	if lt := res.Layers; lt != nil {
		fmt.Fprintf(w, "  traced window %.3fs x %d tracks = %.3fs: ", lt.WallS, lt.Tracks, lt.TrackWallS)
		for _, l := range selfLayers {
			if s := lt.SelfS[l]; s > 0 {
				fmt.Fprintf(w, "%s.self_s=%.3f ", l, s)
			}
		}
		fmt.Fprintf(w, "unattributed_s=%.3f (%d spans, %d unplaced)\n", lt.UnattributedS, lt.Spans, lt.Orphans)
	}
	if res.Trace {
		fmt.Fprintf(w, "  oracle build n032/n064/n128: %.1f/%.1f/%.1f us (BENCH_8 recorded 27.7/63.0/362.5 us)\n",
			res.Metrics["core.oracle_build_ns.n032"].Value/1e3, res.Metrics["core.oracle_build_ns.n064"].Value/1e3,
			res.Metrics["core.oracle_build_ns.n128"].Value/1e3)
	}
	fmt.Fprintf(w, "  correct=%t attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, e := range res.Errors {
		fmt.Fprintf(w, "  failure: %s\n", e)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]wire{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = wire{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(w, "{\"correct\":false,\"error\":%q}\n", err.Error())
		return
	}
	fmt.Fprintf(w, "%s\n", data)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// all runs every workload, each in a fresh child process so heap and
// peak RSS belong to one workload, one after the other so only one
// generates load at a time; with --trace-dir each also runs traced.
func all(o options) (int, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	if o.bbcserved == "" {
		if o.bbcserved, err = buildWorker(o.work); err != nil {
			return 0, err
		}
	}
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return 0, err
	}
	tmp, err := os.MkdirTemp(o.work, "all-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(tmp) //nolint:errcheck // scratch
	rf := resultFile{System: describeSystem()}
	code := 0
	for _, name := range workloadNames {
		traces := []int{0}
		if o.traceDir != "" {
			traces = append(traces, 1)
		}
		for _, tr := range traces {
			out := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", name, tr))
			args := []string{"--workload", name, "--seed", fmt.Sprint(o.seed), "--seconds", fmt.Sprint(o.seconds),
				"--trace", fmt.Sprint(tr), "--out", out, "--bbcserved", o.bbcserved, "--work", o.work}
			if o.smoke {
				args = append(args, "--smoke")
			}
			if tr == 1 {
				args = append(args, "--trace-dir", o.traceDir)
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			child, err := readResults(out)
			if err != nil {
				return 0, fmt.Errorf("%s: %v (child: %v)", name, err, runErr)
			}
			rf.Runs = append(rf.Runs, child.Runs...)
			if runErr != nil {
				code = 1
			}
		}
	}
	if o.out != "" {
		if err := writeJSON(o.out, rf); err != nil {
			return 0, err
		}
	}
	return code, nil
}
