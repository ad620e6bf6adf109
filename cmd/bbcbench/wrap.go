package main

import (
	"context"
	"io"
	"io/fs"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"

	"bbc/internal/faultfs"
	"bbc/internal/serve"
	"bbc/internal/store"
)

// The wrappers below sit at the program's own seams (http.RoundTripper,
// serve.JobStore, faultfs.FS) and record one span per call while a traced
// phase has installed its tracer; otherwise they only forward.

// spanCtx tells the HTTP wrapper which track and span a request belongs to.
type spanCtx struct{ track, parent int }

type spanKey struct{}

func withSpan(ctx context.Context, sc spanCtx) context.Context {
	return context.WithValue(ctx, spanKey{}, sc)
}

// traceTransport records each HTTP round trip, from the request until
// its body is read to the end or closed, so an SSE stream's span covers
// the whole wait for the job.
type traceTransport struct {
	base http.RoundTripper
	tr   atomic.Pointer[tracer]
	// hosts maps host:port to a track for callers that carry no span
	// context (the fleet coordinator's agents, one per worker).
	hosts map[string]int
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tr := t.tr.Load()
	if tr == nil {
		return t.base.RoundTrip(req)
	}
	sc, ok := req.Context().Value(spanKey{}).(spanCtx)
	if !ok {
		sc = spanCtx{track: t.hosts[req.URL.Host], parent: -1}
	}
	h := tr.open("http."+req.Method+" "+route(req.URL.Path), "http", "", sc.track, sc.parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		tr.close(h)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: tr, h: h}
	return resp, nil
}

// route replaces job ids in an API path with {id}, so spans group by
// endpoint: /v1/jobs/job-000042/events becomes /v1/jobs/{id}/events.
func route(path string) string {
	parts := strings.Split(path, "/")
	for i, p := range parts {
		if strings.HasPrefix(p, "job-") {
			parts[i] = "{id}"
		}
	}
	return strings.Join(parts, "/")
}

type spanBody struct {
	io.ReadCloser
	tr   *tracer
	h    int
	once sync.Once
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.end()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.end()
	return b.ReadCloser.Close()
}

func (b *spanBody) end() { b.once.Do(func() { b.tr.close(b.h) }) }

// traceStore wraps the durable job store the server runs on. Its spans
// are placed under their job's spans once the phase ends.
type traceStore struct {
	st *store.Store
	tr atomic.Pointer[tracer]
}

var _ serve.JobStore = (*traceStore)(nil)

func (s *traceStore) span(name, job string) func() {
	tr := s.tr.Load()
	if tr == nil {
		return func() {}
	}
	h := tr.open("store."+name, "store", job, 0, unplaced)
	return func() { tr.close(h) }
}

func (s *traceStore) Submitted(rec *store.JobRecord) error {
	defer s.span("Submitted", rec.ID)()
	return s.st.Submitted(rec)
}

func (s *traceStore) Started(id string, atMS int64) error {
	defer s.span("Started", id)()
	return s.st.Started(id, atMS)
}

func (s *traceStore) Finished(rec *store.JobRecord) error {
	defer s.span("Finished", rec.ID)()
	return s.st.Finished(rec)
}

func (s *traceStore) Lookup(id string) (*store.JobRecord, bool) {
	defer s.span("Lookup", id)()
	return s.st.Lookup(id)
}

func (s *traceStore) Find(key string) (*store.JobRecord, bool) {
	defer s.span("Find", key)()
	return s.st.Find(key)
}

func (s *traceStore) Query(key string) []*store.JobRecord {
	defer s.span("Query", key)()
	return s.st.Query(key)
}

func (s *traceStore) Requeue() []*store.JobRecord { return s.st.Requeue() }

func (s *traceStore) Counts() (queued, running, done, rejected int) { return s.st.Counts() }

func (s *traceStore) Close() error { return s.st.Close() }

// traceFS wraps the real filesystem under a durable layer: the job
// store's WAL and index (layer "fs") or the fleet's lease checkpoints
// (layer "runctl").
type traceFS struct {
	layer string
	// track is the track the spans go on (the fleet coordinator's), or -1
	// to leave them for place to put under the store call that issued
	// them: the store runs on server goroutines no client track owns.
	track int
	// savePath, when set, groups each checkpoint save — from the temp
	// file's creation to its rename onto savePath — into one
	// "<layer>.save" span.
	savePath string
	tr       atomic.Pointer[tracer]

	mu     sync.Mutex
	saving bool // a save span is open
	save   int
}

var _ faultfs.FS = (*traceFS)(nil)

func (f *traceFS) span(op string) func() {
	tr := f.tr.Load()
	if tr == nil {
		return func() {}
	}
	track, parent := f.track, -1
	if track < 0 {
		track, parent = 0, unplaced
	}
	h := tr.open(f.layer+"."+op, f.layer, "", track, parent)
	return func() { tr.close(h) }
}

func (f *traceFS) beginSave() {
	tr := f.tr.Load()
	if tr == nil || f.savePath == "" {
		return
	}
	f.mu.Lock()
	f.save, f.saving = tr.open(f.layer+".save", f.layer, "", f.track, -1), true
	f.mu.Unlock()
}

func (f *traceFS) endSave(newpath string) {
	tr := f.tr.Load()
	if tr == nil || newpath != f.savePath {
		return
	}
	f.mu.Lock()
	if f.saving {
		tr.close(f.save)
	}
	f.saving = false
	f.mu.Unlock()
}

func (f *traceFS) wrap(file faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &traceFile{File: file, fs: f}, nil
}

func (f *traceFS) Create(name string) (faultfs.File, error) {
	defer f.span("create")()
	return f.wrap(faultfs.OS{}.Create(name))
}

func (f *traceFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f.beginSave()
	defer f.span("createtemp")()
	return f.wrap(faultfs.OS{}.CreateTemp(dir, pattern))
}

func (f *traceFS) OpenAppend(name string) (faultfs.File, error) {
	defer f.span("openappend")()
	return f.wrap(faultfs.OS{}.OpenAppend(name))
}

func (f *traceFS) ReadFile(name string) ([]byte, error) {
	defer f.span("read")()
	return faultfs.OS{}.ReadFile(name)
}

func (f *traceFS) Rename(oldpath, newpath string) error {
	defer f.endSave(newpath)
	defer f.span("rename")()
	return faultfs.OS{}.Rename(oldpath, newpath)
}

func (f *traceFS) Remove(name string) error {
	defer f.span("remove")()
	return faultfs.OS{}.Remove(name)
}

func (f *traceFS) Stat(name string) (fs.FileInfo, error) {
	defer f.span("stat")()
	return faultfs.OS{}.Stat(name)
}

func (f *traceFS) Truncate(name string, size int64) error {
	defer f.span("truncate")()
	return faultfs.OS{}.Truncate(name, size)
}

type traceFile struct {
	faultfs.File
	fs *traceFS
}

func (t *traceFile) Write(p []byte) (int, error) {
	defer t.fs.span("write")()
	return t.File.Write(p)
}

func (t *traceFile) Sync() error {
	defer t.fs.span("sync")()
	return t.File.Sync()
}

func (t *traceFile) Close() error {
	defer t.fs.span("close")()
	return t.File.Close()
}
