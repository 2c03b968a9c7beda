// Package fault provides deterministic, seedable fault injection for the
// filter-stream runtime's chaos tests: flaky/partial net.Conn wrappers for
// the TCP transport, corrupt/truncated/slow io.ReaderAt wrappers for the I/O
// layer, a flaky http.RoundTripper for the remote dataset backend,
// crash-at-Nth-buffer filter copies for the failover scheduler, and the
// degraded-read Policy shared by the reader filters and the façade.
//
// Every injector is deterministic given its construction parameters, so a
// chaos run with a fixed seed reproduces bit-identically under -race and in
// CI.
package fault

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"haralick4d/internal/filter"
)

// Policy selects how the pipeline reacts to degraded data — corrupt,
// truncated or missing slices detected by the dataset store's checksums and
// size checks.
type Policy int

const (
	// FailFast aborts the run on the first degraded slice (the default; the
	// original behaviour).
	FailFast Policy = iota
	// SkipDegraded drops the affected chunks, completes the run over the
	// readable remainder, and reports the skipped slices and output regions
	// in the result's degraded summary.
	SkipDegraded
)

// String returns the policy's flag name.
func (p Policy) String() string {
	switch p {
	case FailFast:
		return "fail-fast"
	case SkipDegraded:
		return "skip-degraded"
	}
	return fmt.Sprintf("fault-policy(%d)", int(p))
}

// ParsePolicy is the inverse of String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "fail-fast":
		return FailFast, nil
	case "skip-degraded", "skip":
		return SkipDegraded, nil
	}
	return 0, fmt.Errorf("fault: unknown fault policy %q", s)
}

// ErrInjected marks every failure produced by this package's injectors, so
// tests can tell an injected fault from a genuine one.
var ErrInjected = errors.New("fault: injected failure")

// FlakyConn wraps a net.Conn so its FailAt-th write fails after Partial
// bytes, and every later write fails immediately — a socket that broke and
// stays broken, forcing the sender to redial. Reads pass through until the
// connection breaks, after which they fail too (the peer would see a reset).
type FlakyConn struct {
	net.Conn
	// FailAt is the 1-based write call that fails; 0 never fails.
	FailAt int
	// Partial is how many bytes of the failing write reach the wire before
	// the error — exercising torn-frame recovery on the receiver.
	Partial int

	mu     sync.Mutex
	writes int
	broken bool
}

// Write implements net.Conn.
func (f *FlakyConn) Write(p []byte) (int, error) {
	f.mu.Lock()
	if f.broken {
		f.mu.Unlock()
		return 0, fmt.Errorf("write on broken conn: %w", ErrInjected)
	}
	f.writes++
	inject := f.FailAt > 0 && f.writes == f.FailAt
	if inject {
		f.broken = true
	}
	f.mu.Unlock()
	if !inject {
		return f.Conn.Write(p)
	}
	n := 0
	if f.Partial > 0 {
		cut := f.Partial
		if cut > len(p) {
			cut = len(p)
		}
		n, _ = f.Conn.Write(p[:cut])
	}
	f.Conn.Close() // the peer observes the break too
	return n, fmt.Errorf("write %d: %w", f.writes, ErrInjected)
}

// Broken reports whether the injected failure has fired.
func (f *FlakyConn) Broken() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.broken
}

// CorruptReaderAt flips the byte at offset Off (XORed with Mask) in
// everything read through it — a silent single-byte disk corruption that
// only a checksum catches.
type CorruptReaderAt struct {
	R    io.ReaderAt
	Off  int64
	Mask byte // 0 selects 0xFF (full inversion)
}

// ReadAt implements io.ReaderAt.
func (c *CorruptReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.R.ReadAt(p, off)
	if i := c.Off - off; i >= 0 && i < int64(n) {
		mask := c.Mask
		if mask == 0 {
			mask = 0xFF
		}
		p[i] ^= mask
	}
	return n, err
}

// TruncatedReaderAt behaves as if the underlying data ends at N bytes: reads
// past the cut return io.EOF with a partial (or empty) result.
type TruncatedReaderAt struct {
	R io.ReaderAt
	N int64
}

// ReadAt implements io.ReaderAt.
func (t *TruncatedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= t.N {
		return 0, io.EOF
	}
	if max := t.N - off; int64(len(p)) > max {
		n, err := t.R.ReadAt(p[:max], off)
		if err == nil {
			err = io.EOF
		}
		return n, err
	}
	return t.R.ReadAt(p, off)
}

// SlowReaderAt delays every read by Delay — a straggling disk for
// read-ahead and timeout tests. It injects latency, never errors.
type SlowReaderAt struct {
	R     io.ReaderAt
	Delay time.Duration
}

// ReadAt implements io.ReaderAt.
func (s *SlowReaderAt) ReadAt(p []byte, off int64) (int, error) {
	time.Sleep(s.Delay)
	return s.R.ReadAt(p, off)
}

// FlakyTransport wraps an http.RoundTripper so a deterministic subset of
// requests fail with a transport error before reaching the server: every
// FailEvery-th request (counting from 1) dies. It exercises the HTTP dataset
// backend's retry budget — with FailEvery above 1 the backend's retries
// absorb every injected failure and the run completes bit-identically; with
// FailEvery 1 every attempt dies and reads surface
// dataset.ErrBackendUnavailable.
//
// The modulus schedule counts requests globally, so under concurrent reads
// the retries of one read can land on consecutive multiples of FailEvery and
// exhaust the attempt budget — a scheduling-dependent outcome. Chaos runs
// that must complete regardless of interleaving use FirstPerURL instead: the
// first request for each distinct URL fails and its retry always passes, so
// every object read exercises the retry path and none can run out of budget.
type FlakyTransport struct {
	// Inner handles the surviving requests; nil selects
	// http.DefaultTransport.
	Inner http.RoundTripper
	// FailEvery fails every n-th request; 0 never fails.
	FailEvery int
	// FirstPerURL fails the first request for each distinct URL (then lets
	// every later request for it through) instead of the FailEvery schedule.
	FirstPerURL bool

	calls atomic.Int64
	fails atomic.Int64
	seen  sync.Map // url -> struct{}{}
}

// RoundTrip implements http.RoundTripper.
func (f *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := f.calls.Add(1)
	if f.FirstPerURL {
		if _, loaded := f.seen.LoadOrStore(req.URL.String(), struct{}{}); !loaded {
			f.fails.Add(1)
			return nil, fmt.Errorf("request %d (first for %s): %w", n, req.URL, ErrInjected)
		}
	} else if f.FailEvery > 0 && n%int64(f.FailEvery) == 0 {
		f.fails.Add(1)
		return nil, fmt.Errorf("request %d: %w", n, ErrInjected)
	}
	inner := f.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	return inner.RoundTrip(req)
}

// Calls reports how many requests have passed through the injector.
func (f *FlakyTransport) Calls() int64 { return f.calls.Load() }

// Failures reports how many requests the injector killed.
func (f *FlakyTransport) Failures() int64 { return f.fails.Load() }

// CrashAfter wraps a filter factory so that copy crashCopy panics
// immediately after receiving its n-th buffer — while the buffer is still
// un-acked and in flight, which is exactly what the failover scheduler must
// redeliver to a surviving copy. Other copies are returned unwrapped.
func CrashAfter(factory func(int) filter.Filter, crashCopy, n int) func(int) filter.Filter {
	return func(copy int) filter.Filter {
		f := factory(copy)
		if copy != crashCopy {
			return f
		}
		return filter.Func(func(ctx filter.Context) error {
			return f.Run(&crashCtx{Context: ctx, at: n})
		})
	}
}

// crashCtx counts received buffers and panics on the at-th one.
type crashCtx struct {
	filter.Context
	at   int
	seen int
}

// Recv implements filter.Context.
func (c *crashCtx) Recv() (filter.Msg, bool) {
	m, ok := c.Context.Recv()
	if ok {
		c.seen++
		if c.seen >= c.at {
			panic(fmt.Sprintf("fault: injected crash of %s[%d] holding buffer %d",
				c.FilterName(), c.CopyIndex(), c.seen))
		}
	}
	return m, ok
}

// BlackoutTransport simulates a backend brownout on a request-count
// schedule: after StartAfter requests have been answered, every request
// fails with a transport error until FailN of them have died, then the
// backend recovers and serves normally again. Counting requests instead of
// wall-clock time keeps the fault window reproducible across machine speeds;
// with FailN set effectively infinite the blackout is permanent, which is
// how tests assert that a breaker + retry budget bound the total traffic
// sent into a dead backend.
type BlackoutTransport struct {
	// Inner handles surviving requests; nil selects http.DefaultTransport.
	Inner http.RoundTripper
	// StartAfter is how many requests are answered before the blackout
	// opens.
	StartAfter int64
	// Ready, when non-nil, also holds the blackout closed until it reports
	// true, so a test can open the window at a point of pipeline progress
	// (say, after N assembled chunks) rather than at a request count that
	// read scheduling may place anywhere. It must stay true once true, and
	// must be set before the transport is in use.
	Ready func() bool
	// FailN is how many requests die before the backend recovers.
	FailN int64

	oks   atomic.Int64
	fails atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (b *BlackoutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if b.oks.Load() >= b.StartAfter && (b.Ready == nil || b.Ready()) && b.fails.Load() < b.FailN {
		n := b.fails.Add(1)
		if n <= b.FailN {
			return nil, fmt.Errorf("request during blackout (%d/%d): %w", n, b.FailN, ErrInjected)
		}
	}
	inner := b.Inner
	if inner == nil {
		inner = http.DefaultTransport
	}
	resp, err := inner.RoundTrip(req)
	if err == nil {
		b.oks.Add(1)
	}
	return resp, err
}

// OKs reports how many requests the backend answered. A final value above
// StartAfter proves requests succeeded after the blackout lifted.
func (b *BlackoutTransport) OKs() int64 { return b.oks.Load() }

// Failures reports how many requests the blackout killed.
func (b *BlackoutTransport) Failures() int64 { return b.fails.Load() }
