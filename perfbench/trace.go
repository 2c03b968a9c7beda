package main

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded at a seam the benchmark controls.
// Start and End are nanoseconds since the tracer's epoch. Parent is the id
// of the span that caused it, or -1 for a root; every span of one batch run
// or one daemon job shares a Trace id.
type span struct {
	Trace  int32  `json:"trace"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the benchmark ends. A nil *tracer is
// the untraced run: every method is a no-op, so traced and untraced runs
// share one code path.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cur is the phase span (open, build, engine run) that seam spans
	// recorded from engine goroutines attach to; batch runs are sequential,
	// so one current phase per tracer suffices.
	cur   atomic.Int32
	trace atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span under parent (-1 for a root) and returns its id.
func (t *tracer) begin(trace, parent int32, layer, name string) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Trace: trace, ID: id, Parent: parent, Layer: layer, Name: name, Start: start, End: -1})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds an already-finished span under the current phase.
func (t *tracer) record(layer, name string, start, end int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Trace: t.trace.Load(), ID: id, Parent: t.cur.Load(), Layer: layer, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// phase opens a span under the current phase and makes it current until
// the returned function closes it.
func (t *tracer) phase(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	parent := t.cur.Load()
	id := t.begin(t.trace.Load(), parent, layer, name)
	t.cur.Store(id)
	return func() {
		t.end(id)
		t.cur.Store(parent)
	}
}

// selfTimes returns the self time of the spans grouped by key: the summed
// duration of each group's spans minus the part of each interval covered
// by that span's children. Children of one span may overlap (concurrent
// readers), so coverage is the union of their intervals. The seams carry
// no caller identity, so a seam span's parent is the phase it ran in,
// never another seam span: an HTTP round trip is not subtracted from the
// object read that caused it, and a group's self time sums over its
// concurrent callers.
func (t *tracer) selfTimes(key func(*span) string) map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int32][][2]int64{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < 0 {
			continue
		}
		out[key(s)] += time.Duration(s.End - s.Start - covered(kids[s.ID], s.Start, s.End))
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// total sums the durations of the named layer's spans with the given name.
func (t *tracer) total(layer, name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name && s.End >= 0 {
			d += time.Duration(s.End - s.Start)
		}
	}
	return d
}

// writeJSONL writes every span as one JSON object per line, gzipped (a
// traced http-cached run holds some 300k spans).
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timingTransport is the traced run's URLOptions.HTTPClient transport: it
// records a dataset-layer span per HTTP round trip and counts requests,
// body bytes and the 5xx/429 answers the backend will retry.
type timingTransport struct {
	inner http.RoundTripper
	tr    *tracer

	mu        sync.Mutex
	latencies []time.Duration
	requests  atomic.Int64
	bytes     atomic.Int64
	retryable atomic.Int64
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := t.tr.now()
	resp, err := t.inner.RoundTrip(req)
	end := t.tr.now()
	t.tr.record("dataset", "http."+req.Method, start, end)
	t.requests.Add(1)
	t.mu.Lock()
	t.latencies = append(t.latencies, time.Duration(end-start))
	t.mu.Unlock()
	if err != nil {
		return resp, err
	}
	if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
		t.retryable.Add(1)
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// tracedReaderAt is the dataset.WrapObjects wrapper: one dataset-layer span
// per positioned read the readers issue (cache hits included).
type tracedReaderAt struct {
	r  io.ReaderAt
	tr *tracer
}

func (o tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	start := o.tr.now()
	n, err := o.r.ReadAt(p, off)
	o.tr.record("dataset", "object.read", start, o.tr.now())
	return n, err
}

// countingConn is the RunOptions.WrapConn wrapper: it counts the bytes the
// TCP engine writes to each node link and records a filter-layer span per
// Write.
type countingConn struct {
	net.Conn
	tr    *tracer
	bytes *atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.record("filter", "conn.write", start, c.tr.now())
	c.bytes.Add(int64(n))
	return n, err
}
