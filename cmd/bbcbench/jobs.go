package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bbc/internal/core"
	"bbc/internal/serve"
	"bbc/internal/store"
)

// jobClients is the closed loop's client count: one goroutine and one
// connection each, no more than the two cores of the reference machine.
const jobClients = 2

// servePool is the server's job pool size, as bbcserved sizes it on two
// cores.
const servePool = 2

// jobDeck is the job mix: each client deals its submissions from this
// deck, reshuffled by its seeded stream every time it runs out, so every
// run has the same shares (50% enumerate, 30% walk, 20% resubmissions of a
// job the client already completed) in a random order. Random shares
// would move the latency median between seeds.
var jobDeck = []string{
	"enumerate", "enumerate", "enumerate", "enumerate", "enumerate",
	"walk", "walk", "walk",
	"dedup", "dedup",
}

// recheckEvery is how often a completed job is kept for the in-process
// re-check after the timed phases: one in recheckEvery.
const recheckEvery = 50

// resubmitFrom is how many of its most recent completed jobs a client
// picks resubmissions from; a bounded pool keeps the benchmark's own
// memory from growing with throughput.
const resubmitFrom = 512

// jobsWorkload is a closed loop of jobClients clients against an
// in-process serve.Server configured like bbcserved -data D -store S with
// two pool workers. Each client submits with POST /v1/jobs and waits for
// the done event on the job's SSE stream; a resubmission is answered by
// dedup and followed by a history read (GET /v1/jobs?spec_fingerprint=).
type jobsWorkload struct {
	e      *env
	dir    string
	fs     *traceFS
	st     *traceStore
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	hops   *traceTransport
	client *http.Client
	epoch  time.Time // the server's clock origin for job view times

	clients  []*jobClient
	mu       sync.Mutex
	rechecks []recheck
}

// jobClient is one closed-loop client and the inputs it draws.
type jobClient struct {
	id        int
	rng       *rand.Rand
	deck      []string     // job kinds left to deal
	done      []submission // recent completed jobs it may resubmit
	completed int
}

type submission struct {
	mode string
	body []byte
	id   string
	key  string
}

// recheck is a completed job kept for verification in process.
type recheck struct {
	mode   string
	game   json.RawMessage
	result json.RawMessage
}

func (w *jobsWorkload) setup(e *env) error {
	w.e = e
	w.dir = filepath.Join(e.work, "jobs")
	w.fs = &traceFS{layer: "fs", track: -1}
	st, _, err := store.Open(filepath.Join(w.dir, "store"), store.Options{FS: w.fs, Reg: e.reg})
	if err != nil {
		return err
	}
	w.st = &traceStore{st: st}
	srv, err := serve.New(serve.Config{Workers: servePool, DataDir: filepath.Join(w.dir, "data"), Store: w.st, Reg: e.reg})
	if err != nil {
		st.Close()
		return err
	}
	w.srv = srv
	before := time.Now()
	up := srv.Snapshot().UptimeMS
	after := time.Now()
	w.epoch = before.Add(after.Sub(before) / 2).Add(-time.Duration(up * float64(time.Millisecond)))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return err
	}
	w.base = "http://" + ln.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.hops = &traceTransport{base: &http.Transport{MaxConnsPerHost: jobClients, MaxIdleConnsPerHost: jobClients}}
	w.client = &http.Client{Transport: w.hops}
	w.clients = nil
	for i := 0; i < jobClients; i++ {
		w.clients = append(w.clients, &jobClient{id: i, rng: rand.New(rand.NewSource(e.seed*1_000_003 + int64(i)))})
	}
	w.rechecks = nil
	// Warm up with one fixed enumerate job per client (15,125 profiles),
	// end to end over the API; a fixed game keeps the set-up time from
	// varying with the seed.
	for i := range w.clients {
		d := core.NewDense(5)
		d.Budgets[0], d.Budgets[1] = 2, 2
		d.Weights[0][1] = int64(i) + 2 // a distinct game per client, so neither is a dedup hit
		warm := submission{mode: "enumerate", body: request(&serve.Request{Mode: "enumerate", Game: marshalSpec(d.MustSeal())})}
		if _, err := w.submit(context.Background(), newPhase(nil), warm, -1); err != nil {
			w.teardown()
			return fmt.Errorf("warm-up job: %w", err)
		}
	}
	return nil
}

// walkRequest is a round-robin best-response walk on the uniform game
// n=12, k=2 from a random start drawn from seed.
func walkRequest(seed int64) []byte {
	return request(&serve.Request{
		Mode: "walk", Game: marshalSpec(core.MustUniform(12, 2)),
		Sched: "round-robin", Start: "random", Seed: seed,
	})
}

func (w *jobsWorkload) teardown() {
	if w.srv == nil {
		return
	}
	w.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	w.hs.Shutdown(ctx) //nolint:errcheck // the listener is closed either way
	cancel()
	<-w.served
	w.hops.base.(*http.Transport).CloseIdleConnections()
	w.srv = nil
	os.RemoveAll(w.dir) //nolint:errcheck // scratch
}

func (w *jobsWorkload) engineThreads() int { return servePool }

func (w *jobsWorkload) counters() (snapshot, error) { return localSnapshot(w.e.reg), nil }

func (w *jobsWorkload) workerPIDs() []int { return nil }

// run lets the clients take the phase's jobs from one shared count, so
// neither waits on the other at the end.
func (w *jobsWorkload) run(ph *phase, ops int, until time.Time) {
	w.hops.tr.Store(ph.tr)
	w.st.tr.Store(ph.tr)
	w.fs.tr.Store(ph.tr)
	defer func() {
		w.hops.tr.Store(nil)
		w.st.tr.Store(nil)
		w.fs.tr.Store(nil)
	}()
	var left atomic.Int64
	left.Store(int64(ops))
	var wg sync.WaitGroup
	for _, c := range w.clients {
		track := ph.tr.track(fmt.Sprintf("client %d", c.id))
		wg.Add(1)
		go func(c *jobClient, track int) {
			defer wg.Done()
			for left.Add(-1) >= 0 && time.Now().Before(until) {
				w.op(ph, c, track)
			}
		}(c, track)
	}
	wg.Wait()
}

// op draws one submission from the client's stream and runs it end to end.
func (w *jobsWorkload) op(ph *phase, c *jobClient, track int) {
	sub := w.draw(c)
	root := ph.tr.open("job", "client", "", track, -1)
	ctx := withSpan(context.Background(), spanCtx{track: track, parent: root})
	t0 := time.Now()
	view, err := w.submit(ctx, ph, sub, root)
	d := time.Since(t0)
	ph.tr.close(root)
	ph.record(d, err)
	if err != nil || sub.mode == "dedup" {
		return
	}
	sub.id, sub.key = view.ID, view.Key
	if len(c.done) == resubmitFrom {
		c.done = append(c.done[:0], c.done[1:]...)
	}
	c.done = append(c.done, sub)
	c.completed++
	w.observe(ph, view, track, root, d)
	if c.completed%recheckEvery == 0 {
		w.mu.Lock()
		w.rechecks = append(w.rechecks, recheck{mode: sub.mode, game: gameOf(sub.body), result: view.Result})
		w.mu.Unlock()
	}
}

// draw makes the client's next submission from its seeded stream.
func (w *jobsWorkload) draw(c *jobClient) submission {
	if len(c.deck) == 0 {
		c.deck = append(c.deck, jobDeck...)
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	kind := c.deck[0]
	c.deck = c.deck[1:]
	switch {
	case kind == "walk":
		return submission{mode: "walk", body: walkRequest(c.rng.Int63())}
	case kind == "dedup" && len(c.done) > 0:
		prev := c.done[c.rng.Intn(len(c.done))]
		return submission{mode: "dedup", body: prev.body, id: prev.id, key: prev.key}
	}
	d, err := core.GenerateDense(c.rng, core.GenerateParams{N: 5, MaxWeight: 3, MaxBudget: 2, EnsureSupport: true})
	if err != nil {
		panic(err) // N=5 is always a valid size
	}
	return submission{mode: "enumerate", body: request(&serve.Request{Mode: "enumerate", Game: marshalSpec(d)})}
}

func marshalSpec(spec core.Spec) json.RawMessage {
	data, err := core.MarshalSpec(spec)
	if err != nil {
		panic(err) // the generated specs are sealed and valid
	}
	return data
}

func request(req *serve.Request) []byte {
	data, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return data
}

func gameOf(body []byte) json.RawMessage {
	var req serve.Request
	json.Unmarshal(body, &req) //nolint:errcheck // the benchmark encoded it
	return req.Game
}

// submit posts the job and waits for its outcome: the done event of its
// SSE stream, or for a resubmission the dedup answer plus a history read.
func (w *jobsWorkload) submit(ctx context.Context, ph *phase, sub submission, root int) (*serve.View, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(sub.body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp struct {
		Deduped bool        `json:"deduped"`
		Job     *serve.View `json:"job"`
	}
	status, err := w.call(req, &resp)
	switch {
	case err != nil:
		return nil, err
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		ph.count("refused", 1)
		return nil, fmt.Errorf("submission refused: status %d", status)
	case status != http.StatusAccepted && status != http.StatusOK, resp.Job == nil:
		return nil, fmt.Errorf("POST /v1/jobs: status %d", status)
	}
	view := resp.Job
	ph.tr.setJob(root, view.ID)
	ph.tr.aliasKey(view.Key, view.ID)
	if resp.Deduped {
		ph.count("deduped", 1)
	}
	if sub.mode == "dedup" {
		if !resp.Deduped || view.ID != sub.id {
			return nil, fmt.Errorf("resubmission of %s answered by job %s (deduped=%t)", sub.id, view.ID, resp.Deduped)
		}
		if err := w.history(ctx, sub); err != nil {
			return nil, err
		}
	} else if view.State == serve.StateQueued || view.State == serve.StateRunning {
		if view, err = w.await(ctx, view.ID); err != nil {
			return nil, err
		}
	}
	if view.State != serve.StateDone || !view.Complete || view.Error != "" {
		return nil, fmt.Errorf("job %s ended %s/%s complete=%t %s", view.ID, view.State, view.RunStatus, view.Complete, view.Error)
	}
	return view, nil
}

// call does one request and decodes a JSON body into out on success.
func (w *jobsWorkload) call(req *http.Request, out any) (int, error) {
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, fmt.Errorf("decode %s %s: %w", req.Method, req.URL.Path, err)
		}
	}
	return resp.StatusCode, nil
}

// history reads the jobs recorded for the resubmitted fingerprint; the
// original job must be among them.
func (w *jobsWorkload) history(ctx context.Context, sub submission) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs?spec_fingerprint="+url.QueryEscape(sub.key), nil)
	if err != nil {
		return err
	}
	var list struct {
		Jobs []*serve.View `json:"jobs"`
	}
	status, err := w.call(req, &list)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET /v1/jobs?spec_fingerprint: status %d", status)
	}
	for _, v := range list.Jobs {
		if v.ID == sub.id {
			return nil
		}
	}
	return fmt.Errorf("history for %s does not list job %s", sub.key, sub.id)
}

// await reads the job's event stream until the done event and returns
// the final view it carries.
func (w *jobsWorkload) await(ctx context.Context, id string) (*serve.View, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events of %s: %s", id, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if e, ok := strings.CutPrefix(line, "event: "); ok {
			event = e
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok && event == "done" {
			var v serve.View
			if err := json.Unmarshal([]byte(data), &v); err != nil {
				return nil, fmt.Errorf("decode done event of %s: %w", id, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained so the connection is reused
			return &v, nil
		}
	}
	return nil, fmt.Errorf("event stream of %s ended without a done event", id)
}

// observe splits a finished job's latency with the server's own times:
// queue wait and run from the job view, and the rest (submission round
// trip before the server stamped the job, plus the done notification).
// In the traced phase it also records the queue and run as spans.
func (w *jobsWorkload) observe(ph *phase, v *serve.View, track, root int, latency time.Duration) {
	if v.StartedMS == 0 || v.FinishedMS == 0 {
		return
	}
	ph.sample("queue_ms", v.StartedMS-v.SubmittedMS)
	ph.sample("run_ms", v.FinishedMS-v.StartedMS)
	ph.sample("notify_ms", ms(latency)-(v.FinishedMS-v.SubmittedMS))
	at := func(rel float64) time.Time { return w.epoch.Add(time.Duration(rel * float64(time.Millisecond))) }
	ph.tr.add(span{name: "serve.queue", layer: "serve", job: v.ID, track: track, parent: root, start: at(v.SubmittedMS), end: at(v.StartedMS)})
	ph.tr.add(span{name: "serve.run", layer: "serve", job: v.ID, track: track, parent: root, start: at(v.StartedMS), end: at(v.FinishedMS)})
}

// verify re-checks the kept jobs in process: an enumeration's equilibria
// must match core.EnumeratePureNE, and a converged walk must end in an
// equilibrium.
func (w *jobsWorkload) verify(ph *phase) {
	for _, rc := range w.rechecks {
		if err := rc.check(); err != nil {
			ph.failLate(err)
		}
	}
	ph.count("rechecked", float64(len(w.rechecks)))
}

func (rc recheck) check() error {
	spec, err := core.UnmarshalSpec(rc.game)
	if err != nil {
		return err
	}
	switch rc.mode {
	case "enumerate":
		var got serve.EnumResult
		if err := json.Unmarshal(rc.result, &got); err != nil {
			return err
		}
		ss, err := core.FullSpace(spec, 4096)
		if err != nil {
			return err
		}
		want, err := core.EnumeratePureNE(spec, core.SumDistances, ss, 0)
		if err != nil {
			return err
		}
		same := len(got.Equilibria) == 0 && len(want.Equilibria) == 0 ||
			bytes.Equal(mustJSON(got.Equilibria), mustJSON(want.Equilibria))
		if got.Checked != want.Checked || !same {
			return fmt.Errorf("enumerate job found %d equilibria in %d profiles; in process: %d in %d",
				len(got.Equilibria), got.Checked, len(want.Equilibria), want.Checked)
		}
	case "walk":
		var got serve.WalkResult
		if err := json.Unmarshal(rc.result, &got); err != nil {
			return err
		}
		if got.Outcome != "converged" {
			return nil
		}
		ok, err := core.IsEquilibrium(spec, got.Final, core.SumDistances)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("walk converged to %v, which is not an equilibrium", got.Final)
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(err.Error())
	}
	return data
}
