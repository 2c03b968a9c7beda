package dataset

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"haralick4d/internal/resilience"
)

// DefaultHTTPAttempts is the per-request try budget of the HTTP backend:
// transient transport failures and server errors are retried with a short
// linear backoff before the read is reported ErrBackendUnavailable.
const DefaultHTTPAttempts = 3

// maxServerBackoff bounds a server-directed Retry-After wait when the
// context carries no deadline: a confused (or hostile) server must not be
// able to park one attempt for minutes. With a deadline, the tighter of the
// two bounds applies.
const maxServerBackoff = 2 * time.Second

// HTTPBackend serves a dataset from a remote HTTP(S) server using range
// reads — an object-store-style remote: the server only needs to answer
// GET/HEAD with Range support (http.FileServer, nginx, S3-compatible
// gateways all do). Slice checksums travel in the index files unchanged, so
// CRC verification catches remote bit rot exactly as it does local.
type HTTPBackend struct {
	base     *url.URL
	client   *http.Client
	attempts int
	// sizes memoizes object sizes by URL: dataset objects are immutable
	// once the header is published, so repeat Opens of a hot slice skip
	// the HEAD round trip — the remote analog of the local backend's
	// handle reuse.
	sizes sync.Map // url -> int64
	c     counters
	// res is the backend's resilience set: breaker gating every request,
	// shared budget funding retries, hedger racing slow range reads. Nil
	// leaves the plain retry loop untouched.
	res *resilience.Set
}

// SetResilience attaches a resilience set to the backend. Call before
// serving reads. The set may be shared across backends hitting the same
// host — the daemon's per-host registry does exactly that, so one sick host
// is capped by one breaker and one retry budget no matter how many jobs
// read from it.
func (b *HTTPBackend) SetResilience(s *resilience.Set) { b.res = s }

func (b *HTTPBackend) breaker() *resilience.Breaker {
	if b.res == nil {
		return nil
	}
	return b.res.Breaker
}

func (b *HTTPBackend) budget() *resilience.RetryBudget {
	if b.res == nil {
		return nil
	}
	return b.res.Budget
}

func (b *HTTPBackend) hedger() *resilience.Hedger {
	if b.res == nil {
		return nil
	}
	return b.res.Hedger
}

// record reports one answered-or-failed request to the breaker — under the
// token its Allow granted — and, on success, credits the retry budget.
func (b *HTTPBackend) record(tok resilience.Token, err error) {
	if b.res == nil {
		return
	}
	if b.res.Breaker != nil {
		b.res.Breaker.Record(tok, err)
	}
	if err == nil {
		b.res.Budget.Deposit()
	}
}

// NewHTTPBackend returns a Backend rooted at baseURL (the directory that
// holds dataset.json). client nil selects http.DefaultClient; attempts <= 0
// selects DefaultHTTPAttempts.
func NewHTTPBackend(baseURL string, client *http.Client, attempts int) (*HTTPBackend, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("dataset: invalid backend URL %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("dataset: backend URL %q: scheme %q is not http(s)", baseURL, u.Scheme)
	}
	if u.Host == "" {
		return nil, fmt.Errorf("dataset: backend URL %q has no host", baseURL)
	}
	if !strings.HasSuffix(u.Path, "/") {
		u.Path += "/"
	}
	if client == nil {
		client = http.DefaultClient
	}
	if attempts <= 0 {
		attempts = DefaultHTTPAttempts
	}
	return &HTTPBackend{base: u, client: client, attempts: attempts}, nil
}

// Scheme implements Backend.
func (b *HTTPBackend) Scheme() string { return b.base.Scheme }

// URL implements Backend.
func (b *HTTPBackend) URL() string { return strings.TrimSuffix(b.base.String(), "/") }

func (b *HTTPBackend) objectURL(name string) string {
	u := *b.base
	u.Path += name
	return u.String()
}

// retryable reports whether a failed attempt is worth repeating: transport
// errors, server-side 5xx, and 429 shedding are transient; other 4xx are
// definitive.
func retryable(status int, err error) bool {
	if err != nil {
		return true
	}
	return status >= 500 || status == http.StatusTooManyRequests
}

// retryAfterWait parses a Retry-After header as delta-seconds or an
// HTTP-date; 0 when absent or unparseable.
func retryAfterWait(resp *http.Response) time.Duration {
	v := resp.Header.Get("Retry-After")
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// do issues one request with the retry budget. On success the caller owns
// the response body. want lists the statuses that count as success; any
// other non-retryable status is returned as a *httpStatusError.
//
// With a resilience set attached, every request first asks the breaker
// (open ⇒ immediate ErrBackendUnavailable wrapping resilience.ErrOpen),
// every retry is funded by the shared budget (empty ⇒ the attempt loop is
// abandoned as budget-exhausted), and a 429/503 Retry-After header replaces
// the linear backoff, capped at maxServerBackoff and the context deadline.
func (b *HTTPBackend) do(ctx context.Context, method, u string, rangeHdr string, want ...int) (*http.Response, error) {
	var lastErr error
	var wait time.Duration // server-directed backoff from Retry-After
	for attempt := 0; attempt < b.attempts; attempt++ {
		// A canceled context aborts the budget immediately and surfaces
		// ctx.Err() unmarked: cancellation is the caller's decision, not a
		// backend failure, and must not trip the failover taxonomy.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if attempt > 0 {
			// An open breaker rejects the request at Allow anyway; fail fast
			// before spending a shared budget token and sleeping the backoff,
			// so a brownout doesn't drain the budget on doomed attempts. A
			// probe-due breaker (ProbeIn elapsed) falls through so this retry
			// can perform the half-open probe.
			if br := b.breaker(); br != nil {
				if bs := br.Snapshot(); bs.State == resilience.StateOpen && bs.ProbeIn > 0 {
					return nil, backendErrf("%s %s: %w after %d attempts, last: %v",
						method, u, resilience.ErrOpen, attempt, lastErr)
				}
			}
			if !b.budget().Withdraw() {
				return nil, backendErrf("%s %s: %w after %d attempts, last: %v",
					method, u, resilience.ErrBudgetExhausted, attempt, lastErr)
			}
			// Server-directed wait when the last response carried
			// Retry-After, otherwise a deterministic linear backoff: long
			// enough to skate over a broken keep-alive connection, short
			// enough for tests.
			d := wait
			if d <= 0 {
				d = time.Duration(attempt) * 10 * time.Millisecond
			} else if d > maxServerBackoff {
				d = maxServerBackoff
			}
			if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= d {
				// The wait reaches the deadline: no attempt can follow it,
				// so wait the deadline out and surface it, never racing a
				// timer against ctx.Done() into a doomed attempt.
				<-ctx.Done()
				return nil, ctx.Err()
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(d):
			}
		}
		wait = 0
		req, err := http.NewRequestWithContext(ctx, method, u, nil)
		if err != nil {
			return nil, backendErrf("%s %s: %w", method, u, err)
		}
		if rangeHdr != "" {
			req.Header.Set("Range", rangeHdr)
		}
		var tok resilience.Token
		if br := b.breaker(); br != nil {
			var aerr error
			if tok, aerr = br.Allow(); aerr != nil {
				return nil, backendErrf("%s %s: %w", method, u, aerr)
			}
		}
		resp, err := b.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				// Release a granted probe without a verdict: caller-side
				// cancellation says nothing about the dependency.
				if br := b.breaker(); br != nil {
					br.Cancel(tok)
				}
				return nil, ctx.Err()
			}
			b.record(tok, err)
			lastErr = err
			continue
		}
		// The server answered: 5xx and 429 count against the breaker,
		// anything else (including 404) is evidence of health.
		if resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests {
			b.record(tok, fmt.Errorf("%s", resp.Status))
		} else {
			b.record(tok, nil)
		}
		for _, w := range want {
			if resp.StatusCode == w {
				return resp, nil
			}
		}
		wait = retryAfterWait(resp)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch {
		case resp.StatusCode == http.StatusNotFound || resp.StatusCode == http.StatusGone:
			return nil, notExistf("dataset: %s %s: %s", method, u, resp.Status)
		case retryable(resp.StatusCode, nil):
			lastErr = fmt.Errorf("%s", resp.Status)
			continue
		default:
			return nil, backendErrf("%s %s: unexpected status %s", method, u, resp.Status)
		}
	}
	return nil, backendErrf("%s %s: %d attempts failed, last: %w", method, u, b.attempts, lastErr)
}

// Open implements Backend: a HEAD learns the object's size (memoized per
// URL); reads then go through ranged GETs.
func (b *HTTPBackend) Open(ctx context.Context, name string) (Object, error) {
	u := b.objectURL(name)
	if size, ok := b.sizes.Load(u); ok {
		return &httpObject{be: b, url: u, size: size.(int64)}, nil
	}
	resp, err := b.do(ctx, http.MethodHead, u, "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	resp.Body.Close()
	if resp.ContentLength < 0 {
		return nil, backendErrf("HEAD %s: server reports no content length", u)
	}
	b.c.opens.Add(1)
	b.sizes.Store(u, resp.ContentLength)
	return &httpObject{be: b, url: u, size: resp.ContentLength}, nil
}

// ReadFile implements Backend.
func (b *HTTPBackend) ReadFile(ctx context.Context, name string) ([]byte, error) {
	u := b.objectURL(name)
	resp, err := b.do(ctx, http.MethodGet, u, "", http.StatusOK)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Cancellation mid-body is the caller aborting, not the backend
		// failing; keep it out of the ErrBackendUnavailable taxonomy.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, backendErrf("GET %s: reading body: %w", u, err)
	}
	b.c.reads.Add(1)
	b.c.readBytes.Add(int64(len(data)))
	return data, nil
}

// List implements Backend. Plain HTTP servers expose no portable listing
// protocol, and the dataset layout never needs one: every slice is found
// through the index files. Kept unimplemented rather than scraping HTML
// directory pages.
func (b *HTTPBackend) List(ctx context.Context, dir string) ([]string, error) {
	return nil, backendErrf("http backend does not support listing (reads are index-driven)")
}

// Stats implements Backend.
func (b *HTTPBackend) Stats() Stats {
	s := b.c.stats(b.Scheme(), b.URL())
	if b.res != nil {
		rs := b.res.Snapshot()
		s.BreakerState = rs.BreakerState
		s.BreakerTrips = rs.BreakerTrips
		s.BreakerProbes = rs.BreakerProbes
		s.RetryBudgetSpent = rs.BudgetSpent
		s.RetryBudgetDenied = rs.BudgetDenied
		s.HedgedReads = rs.Hedges
		s.HedgeWins = rs.HedgeWins
	}
	return s
}

// Close implements Backend.
func (b *HTTPBackend) Close() error {
	b.client.CloseIdleConnections()
	return nil
}

// httpObject is an Object over one remote file.
type httpObject struct {
	be   *HTTPBackend
	url  string
	size int64
}

// ReadAt implements Object with a ranged GET per call. The reader filters
// issue row- or slice-sized reads, so per-call overhead is amortized over
// kilobytes — and the block cache turns repeat visits into memory copies.
// With a hedger attached, a read that outlives the latency threshold races
// a second identical GET; the attempts write private buffers so the loser
// can finish (or be canceled) without touching the winner's result.
func (o *httpObject) ReadAt(ctx context.Context, p []byte, off int64) (int, error) {
	h := o.be.hedger()
	if h == nil {
		return o.readAt(ctx, p, off, &o.be.c)
	}
	type ranged struct {
		buf []byte
		n   int
		err error     // io.EOF rides along with valid short reads
		io  *counters // the attempt's private I/O tally
	}
	r, err := resilience.Hedge(ctx, h, func(ctx context.Context) (ranged, error) {
		buf := make([]byte, len(p))
		var c counters
		n, err := o.readAt(ctx, buf, off, &c)
		if err != nil && err != io.EOF {
			return ranged{}, err
		}
		return ranged{buf, n, err, &c}, nil
	})
	if err != nil {
		return 0, err
	}
	// Only the winning attempt's I/O counts in the backend report: the
	// loser's transfer never reaches a caller, and counting both would make
	// reads/bytes stop reconciling with data returned (HedgeWins already
	// tallies the race itself).
	o.be.c.reads.Add(r.io.reads.Load())
	o.be.c.readBytes.Add(r.io.readBytes.Load())
	copy(p, r.buf[:r.n])
	return r.n, r.err
}

func (o *httpObject) readAt(ctx context.Context, p []byte, off int64, c *counters) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if off >= o.size {
		return 0, io.EOF
	}
	rangeHdr := fmt.Sprintf("bytes=%d-%d", off, off+int64(len(p))-1)
	resp, err := o.be.do(ctx, http.MethodGet, o.url, rangeHdr,
		http.StatusPartialContent, http.StatusOK, http.StatusRequestedRangeNotSatisfiable)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusRequestedRangeNotSatisfiable:
		// The object shrank since Open — a remote truncation.
		return 0, io.EOF
	case http.StatusOK:
		// The server ignored the Range header; accept only a whole-object
		// read, otherwise every row read would transfer the full file.
		if off != 0 || int64(len(p)) < o.size {
			return 0, backendErrf("GET %s: server does not support range requests", o.url)
		}
	}
	n, err := io.ReadFull(resp.Body, p)
	c.reads.Add(1)
	c.readBytes.Add(int64(n))
	if err == io.ErrUnexpectedEOF {
		err = io.EOF // short object: io.ReaderAt reports EOF with the partial read
	} else if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return n, cerr // caller aborted mid-body; not a backend failure
		}
		return n, backendErrf("GET %s: reading range %s: %w", o.url, rangeHdr, err)
	}
	return n, err
}

// Size implements Object.
func (o *httpObject) Size() int64 { return o.size }

// Close implements Object.
func (o *httpObject) Close() error { return nil }
