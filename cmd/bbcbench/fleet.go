package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"bbc/internal/core"
	"bbc/internal/fleet"
	"bbc/internal/serve"
)

// fleetWorkers is how many bbcserved worker processes a merge spreads over.
const fleetWorkers = 2

// fleetWorkload is bbcfleet with its defaults (8 shards over 2 workers,
// 100 ms polls, 30 s lease TTL) plus a lease checkpoint path, merging the
// pinned gadget scan again and again. The workers are real bbcserved
// processes, each run as bbcserved -workers 1 -data D -store S on
// loopback. Set-up starts them and warms up with one small merge.
type fleetWorkload struct {
	e       *env
	workers []*workerProc
	scales  []int64
	next    int
	lease   *traceFS
	client  *http.Client
	hops    *traceTransport
	merges  [][]byte     // merged NEResult JSON of every merge, checked by verify
	plain   *http.Client // reads worker metrics and job lists, untraced
}

// workerProc is one running bbcserved.
type workerProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
}

func (w *fleetWorkload) setup(e *env) error {
	w.e = e
	w.scales = scales(e.seed)
	w.next = 0
	w.merges = nil
	w.plain = &http.Client{Timeout: 30 * time.Second}
	dir := filepath.Join(e.work, "fleet")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	w.lease = &traceFS{layer: "runctl", savePath: filepath.Join(dir, "leases.ckpt")}
	w.hops = &traceTransport{base: &http.Transport{MaxIdleConnsPerHost: 4}}
	w.client = &http.Client{Transport: w.hops}
	type started struct {
		p   *workerProc
		err error
	}
	ch := make(chan started, fleetWorkers)
	for i := 0; i < fleetWorkers; i++ {
		wdir := filepath.Join(dir, fmt.Sprintf("worker%d", i))
		go func() {
			p, err := startWorker(e.bbcserved, wdir)
			ch <- started{p, err}
		}()
	}
	var errs []error
	for i := 0; i < fleetWorkers; i++ {
		s := <-ch
		if s.err != nil {
			errs = append(errs, s.err)
			continue
		}
		w.workers = append(w.workers, s.p)
	}
	if err := errors.Join(errs...); err != nil {
		w.teardown()
		return err
	}
	w.hops.hosts = map[string]int{}
	// Warm up with a merge of a small game (5 players, budget 1).
	res, err := w.merge(core.NewDense(5).MustSeal())
	if err == nil && (!res.NE.Complete || res.NE.Checked != 3125) {
		err = fmt.Errorf("status %s after %d of 3125 profiles", res.NE.Status, res.NE.Checked)
	}
	if err != nil {
		w.teardown()
		return fmt.Errorf("warm-up merge: %w", err)
	}
	return nil
}

// merge runs one fleet scan of spec's pinned space across the workers.
// The zero Shards, LeaseTTL and PollEvery are bbcfleet's defaults.
func (w *fleetWorkload) merge(spec core.Spec) (*fleet.Result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return fleet.Run(ctx, fleet.Config{
		Spec:           spec,
		Pin:            true,
		Workers:        w.bases(),
		CheckpointPath: w.lease.savePath,
		FS:             w.lease,
		HTTP:           w.client,
	})
}

// startWorker launches bbcserved on an ephemeral loopback port and waits
// until it announces the address it listens on and reports ready.
func startWorker(bin, dir string) (*workerProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", "1",
		"-data", filepath.Join(dir, "data"), "-store", filepath.Join(dir, "store"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start bbcserved: %w", err)
	}
	p := &workerProc{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Keep draining stderr until the process exits so it never blocks
		// on a full pipe; the first "listening on" line carries the port.
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if _, a, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
		cmd.Wait() //nolint:errcheck // a drained worker exits 0; stop reports kills
		close(p.exited)
	}()
	select {
	case p.base = <-addr:
	case <-p.exited:
		return nil, fmt.Errorf("bbcserved exited before listening")
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("bbcserved did not announce its address within 30s")
	}
	resp, err := http.Get(p.base + "/readyz")
	if err != nil {
		p.stop()
		return nil, fmt.Errorf("bbcserved readiness: %w", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // status is what matters
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		p.stop()
		return nil, fmt.Errorf("bbcserved not ready: %s", resp.Status)
	}
	return p, nil
}

// stop drains the worker with SIGTERM, as an operator would, and waits
// for it to exit; a worker that does not exit within 30s is killed.
func (p *workerProc) stop() {
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.cmd.Process.Kill() //nolint:errcheck
		<-p.exited
	}
}

func (w *fleetWorkload) teardown() {
	for _, p := range w.workers {
		p.stop()
	}
	w.workers = nil
	os.RemoveAll(filepath.Join(w.e.work, "fleet")) //nolint:errcheck // scratch
}

func (w *fleetWorkload) bases() []string {
	out := make([]string, len(w.workers))
	for i, p := range w.workers {
		out[i] = p.base
	}
	return out
}

func (w *fleetWorkload) engineThreads() int { return fleetWorkers }

func (w *fleetWorkload) workerPIDs() []int {
	pids := make([]int, len(w.workers))
	for i, p := range w.workers {
		pids[i] = p.cmd.Process.Pid
	}
	return pids
}

// counters sums the workers' registries (read over their /metrics API)
// and adds this process's, which holds the coordinator's fleet counters.
func (w *fleetWorkload) counters() (snapshot, error) {
	sum := localSnapshot(w.e.reg)
	for _, p := range w.workers {
		var m serve.Metrics
		if err := getJSON(w.plain, p.base+"/metrics", &m); err != nil {
			return sum, err
		}
		sum.add(snapshot{counters: m.Counters, hists: m.Histograms})
	}
	return sum, nil
}

func getJSON(c *http.Client, url string, out any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (w *fleetWorkload) run(ph *phase, ops int, until time.Time) {
	coord := ph.tr.track("coordinator")
	agents := make([]int, len(w.workers))
	for i, p := range w.workers {
		agents[i] = ph.tr.track("agent " + p.base)
		w.hops.hosts[strings.TrimPrefix(p.base, "http://")] = agents[i]
	}
	w.hops.tr.Store(ph.tr)
	w.lease.tr.Store(ph.tr)
	w.lease.track = coord
	defer w.hops.tr.Store(nil)
	defer w.lease.tr.Store(nil)

	for i := 0; i < ops && time.Now().Before(until); i++ {
		spec := scanGame(w.e.smoke, w.scales[w.next%len(w.scales)])
		w.next++
		h := ph.tr.open("merge", "fleet", "", coord, -1)
		var hs []int
		for _, a := range agents {
			hs = append(hs, ph.tr.open("agent", "fleet", "", a, h))
		}
		t0 := time.Now()
		res, err := w.merge(spec)
		d := time.Since(t0)
		for _, a := range hs {
			ph.tr.close(a)
		}
		ph.tr.close(h)
		if err == nil {
			if err = checkNE(w.e.smoke, res.NE); err == nil && res.ShardsDone != res.Shards {
				err = fmt.Errorf("merge finished %d of %d shards", res.ShardsDone, res.Shards)
			}
		}
		if err == nil {
			w.merges = append(w.merges, neJSON(res.NE))
		}
		ph.record(d, err)
	}
	if ph.tr != nil {
		w.workerSpans(ph)
	}
	for _, p := range w.workers {
		if mib, err := memMiB(p.cmd.Process.Pid, "VmHWM"); err == nil {
			ph.sample("worker_peak_rss_mb", mib)
		}
	}
}

// workerSpans rebuilds each worker's shard jobs of the traced phase from
// its job list: queue wait and run time, one track per worker.
func (w *fleetWorkload) workerSpans(ph *phase) {
	end := time.Now()
	for i, p := range w.workers {
		track := ph.tr.track(fmt.Sprintf("worker %d", i))
		var list struct {
			Jobs []*serve.View `json:"jobs"`
		}
		if err := getJSON(w.plain, p.base+"/v1/jobs", &list); err != nil {
			ph.failLate(fmt.Errorf("list worker jobs: %w", err))
			continue
		}
		for _, v := range list.Jobs {
			sub, st, fin := time.UnixMilli(v.SubmittedUnixMS), time.UnixMilli(v.StartedUnixMS), time.UnixMilli(v.FinishedUnixMS)
			if v.StartedUnixMS == 0 || v.FinishedUnixMS == 0 || fin.Before(ph.start) || sub.After(end) {
				continue
			}
			ph.tr.add(span{name: "shard.queue", layer: "serve", job: v.ID, track: track, parent: -1, start: sub, end: st})
			ph.tr.add(span{name: "shard.run", layer: "serve", job: v.ID, track: track, parent: -1, start: st, end: fin})
		}
	}
}

// verify compares every merge with an in-process scan: the merged
// NEResult JSON must be byte-equal to it. The merges ran games that differ
// only in weight scale, which leaves the result unchanged.
func (w *fleetWorkload) verify(ph *phase) {
	ref, err := scanPinned(scanGame(w.e.smoke, w.scales[0]), runtime.GOMAXPROCS(0))
	if err != nil {
		ph.failLate(fmt.Errorf("reference scan: %w", err))
		return
	}
	want := neJSON(ref)
	for i, got := range w.merges {
		if !bytes.Equal(got, want) {
			ph.failLate(fmt.Errorf("merge %d result %s differs from the in-process scan %s", i, got, want))
		}
	}
}
