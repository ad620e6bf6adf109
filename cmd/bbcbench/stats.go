package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// memMiB reads one memory field of a process from procfs: VmRSS (the
// resident set now) or VmHWM (its peak). pid 0 means this process.
func memMiB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", field, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s has no %s line", path, field)
}

// rssSampler records every 100 ms the resident set of this process plus
// that of the worker processes the workload runs on. The peak is set by
// rare transient spikes (a store compaction, a GC landing late) and moves
// from run to run; the median of the samples does not.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(workers []int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	pids := append([]int{0}, workers...)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			total, ok := 0.0, true
			for _, pid := range pids {
				mib, err := memMiB(pid, "VmRSS")
				total += mib
				ok = ok && err == nil
			}
			if ok {
				s.samples = append(s.samples, total)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// end stops sampling and returns the samples.
func (s *rssSampler) end() []float64 {
	close(s.stop)
	<-s.done
	return s.samples
}

// system describes the machine and build a result was measured on.
type system struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_rev"`
}

func describeSystem() system {
	s := system{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		GitRev:     "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		modified := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.GitRev = kv.Value
			case "vcs.modified":
				modified = kv.Value == "true"
			}
		}
		if modified && s.GitRev != "unknown" {
			s.GitRev += "+dirty"
		}
	}
	return s
}

// phase is one timed window of a workload: the operations it completed,
// the failures it counted, and the extra samples and counts a workload
// records for its layers. Safe for concurrent use by client goroutines.
type phase struct {
	tr *tracer // nil in the untraced phase

	mu        sync.Mutex
	start     time.Time
	end       time.Time
	lat       []float64 // ms, one per successful operation, in completion order
	attempted int
	failed    int
	errs      []string
	samples   map[string][]float64
	counts    map[string]float64
}

func newPhase(tr *tracer) *phase {
	return &phase{tr: tr, samples: map[string][]float64{}, counts: map[string]float64{}}
}

// record books one attempted operation: its latency when it succeeded,
// a failure (refused, errored, incomplete or wrong) otherwise.
func (p *phase) record(d time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if err != nil {
		p.fail(err)
		return
	}
	p.lat = append(p.lat, ms(d))
}

// fail books a wrong result found after the operation was recorded.
func (p *phase) failLate(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.fail(err)
}

func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) sample(name string, v float64) {
	p.mu.Lock()
	p.samples[name] = append(p.samples[name], v)
	p.mu.Unlock()
}

func (p *phase) count(name string, v float64) {
	p.mu.Lock()
	p.counts[name] += v
	p.mu.Unlock()
}

func (p *phase) wall() time.Duration { return p.end.Sub(p.start) }

// ops is the number of operations the phase completed.
func (p *phase) ops() int { return len(p.lat) }

// perSecond is the phase's throughput: completed operations over its wall
// time.
func (p *phase) perSecond() float64 { return ratio(float64(p.ops()), p.wall().Seconds()) }

// lateHalf is the latencies of the second half of the completed
// operations, in completion order. A cost that grows with the work done
// so far (serve-jobs' store grows with every job) slows these most. A
// quarter would show growth more sharply, but it holds three or four
// scans or grids, and their median moved by 12% between runs.
func (p *phase) lateHalf() []float64 {
	n := len(p.lat)
	return p.lat[n-min(n, max(1, n/2)):]
}
