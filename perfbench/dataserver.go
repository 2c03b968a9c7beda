package main

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"net"
	"net/http"
	"sync"
	"time"
)

// dataServer serves a dataset directory over loopback HTTP with the range
// reads the HTTP backend issues, adding a fixed delay to every response and
// answering a seeded fraction of requests with 503 (no Retry-After). The
// injector in cmd/dataserve lives in package main and cannot be imported,
// hence this copy.
//
// Whether a request fails depends only on the seed, the request (method,
// path, range) and how many times that request was made before in the
// run, never on arrival order across requests. A request that follows a
// failure of the same request always succeeds, so the backend's retry
// does and no run fails.
type dataServer struct {
	URL      string
	latency  time.Duration
	failRate float64
	seed     int64

	srv  *http.Server
	done chan struct{}

	mu   sync.Mutex
	seen map[string]*keyState
}

func startDataServer(dir string, latency time.Duration, failRate float64, seed int64) (*dataServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &dataServer{
		URL:      "http://" + ln.Addr().String(),
		latency:  latency,
		failRate: failRate,
		seed:     seed,
		done:     make(chan struct{}),
		seen:     map[string]*keyState{},
	}
	files := http.FileServer(http.Dir(dir))
	d.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(d.latency)
		if d.fail(r.Method + " " + r.URL.Path + " " + r.Header.Get("Range")) {
			http.Error(w, "injected failure", http.StatusServiceUnavailable)
			return
		}
		files.ServeHTTP(w, r)
	})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// keyState is one request key's history in the current run.
type keyState struct {
	n          uint64 // requests so far
	failedLast bool
}

func (d *dataServer) fail(key string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.seen[key]
	if st == nil {
		st = &keyState{}
		d.seen[key] = st
	}
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(d.seed))
	binary.LittleEndian.PutUint64(b[8:], st.n)
	h.Write(b[:])
	h.Write([]byte(key))
	st.n++
	st.failedLast = !st.failedLast && float64(h.Sum64()>>11)/(1<<53) < d.failRate
	return st.failedLast
}

// reset forgets the request history, so every run meets the same faults.
func (d *dataServer) reset() {
	d.mu.Lock()
	d.seen = map[string]*keyState{}
	d.mu.Unlock()
}

// Close stops the server and waits for its accept loop to return.
func (d *dataServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	<-d.done
	return err
}
