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
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/filters"
	"haralick4d/internal/metrics"
	"haralick4d/internal/server"
	"haralick4d/internal/volume"
)

const (
	serveClients    = 2   // closed-loop clients, one per CPU of the reference host
	serveMinJobs    = 100 // jobs per run, so p90 has ten samples beyond it
	serveCheckEvery = 10  // every tenth job's USO output is checked
)

// serveSpec is every job's spec; out_dir is filled per job.
var serveSpec = server.Spec{
	Output:     "uso",
	ROI:        [4]int{4, 4, 2, 2},
	GrayLevels: 16,
	NDim:       2,
	ChunkShape: [4]int{16, 16, 4, 5},
	Texture:    1,
	KernelWkrs: 2,
}

var (
	serveDims  = [4]int{32, 32, 8, 10}
	serveNodes = 2
)

// daemonSetup is a running in-process daemon over a seeded dataset.
type daemonSetup struct {
	work    string
	data    string
	state   string
	base    string
	grid    *volume.Grid
	outDims [4]int
	oracle  *oracle
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	seed    int64

	disk         time.Duration // spent removing and writing dataset files; not in setup_s
	shed         int           // submits answered 429/503
	journalBytes float64       // checkpoint journal bytes of the traced jobs
}

func setupDaemon(e *env) (*daemonSetup, error) {
	d := &daemonSetup{work: e.work, data: filepath.Join(e.work, "data"), state: filepath.Join(e.work, "state"), seed: e.seed}
	t0 := time.Now()
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	d.disk = time.Since(t0)
	acfg := core.Config{ROI: serveSpec.ROI, GrayLevels: serveSpec.GrayLevels, NDim: serveSpec.NDim, Features: features.PaperSet()}
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	var err error
	var disk time.Duration
	if d.grid, disk, err = writePhantom(d.data, serveDims, serveNodes, acfg.GrayLevels, e.seed); err != nil {
		return nil, err
	}
	d.disk += disk
	if d.outDims, err = volume.OutputDims(serveDims, acfg.ROI); err != nil {
		return nil, err
	}
	if d.oracle, err = newOracle(d.grid, acfg, d.outDims, oracleSamples, rand.New(rand.NewSource(e.seed))); err != nil {
		return nil, err
	}
	if d.srv, err = server.New(server.Config{StateDir: d.state, Logf: func(string, ...any) {}}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: d.srv.Handler()}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return d, nil
}

// close drains the daemon, then stops its listener and waits for it.
func (d *daemonSetup) close() error {
	err := d.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if serr := d.hs.Shutdown(ctx); err == nil {
		err = serr
	}
	<-d.served
	return err
}

// jobRec is one job as its client saw it.
type jobRec struct {
	index  int
	id     int64
	outDir string
	state  server.State
	shed   bool
	// submitted: POST answered; running: first "running" event (zero if
	// the stream opened after it); done: terminal event. All relative to
	// the POST.
	submitted, running, done time.Duration
}

type jobView struct {
	ID     int64              `json:"id"`
	Report *metrics.RunReport `json:"report"`
}

// job submits one job and follows its event stream to a terminal state.
func (d *daemonSetup) job(ctx context.Context, client *http.Client, index int, tr *tracer) (jobRec, error) {
	rec := jobRec{index: index, outDir: filepath.Join(d.work, "out", fmt.Sprintf("job-%d", index))}
	sp := serveSpec
	sp.Dataset = d.data
	sp.OutDir = rec.outDir
	body, err := json.Marshal(sp)
	if err != nil {
		return rec, err
	}
	trace := int32(index)
	root := tr.begin(trace, -1, "bench", "job")
	defer tr.end(root)
	start := time.Now()
	sub := tr.begin(trace, root, "server", "submit")
	resp, err := client.Post(d.base+"/jobs", "application/json", bytes.NewReader(body))
	tr.end(sub)
	if err != nil {
		return rec, err
	}
	rec.submitted = time.Since(start)
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rec.shed = true
		return rec, nil
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return rec, fmt.Errorf("submit: status %s: %v", resp.Status, err)
	}
	rec.id = v.ID

	wait := tr.begin(trace, root, "server", "events")
	defer tr.end(wait)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/jobs/%d/events", d.base, v.ID), nil)
	if err != nil {
		return rec, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return rec, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev server.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return rec, fmt.Errorf("event stream: %v", err)
		}
		if ev.Type != "state" {
			continue
		}
		if ev.State == server.StateRunning && rec.running == 0 {
			rec.running = time.Since(start)
		}
		if ev.State.Terminal() {
			rec.done = time.Since(start)
			rec.state = ev.State
			return rec, nil
		}
	}
	return rec, fmt.Errorf("job %d: event stream ended before a terminal state: %v", v.ID, sc.Err())
}

func runServeJobs(e *env) (*result, error) {
	res := newResult()
	var d *daemonSetup
	setups, err := repeatSetup(func() (time.Duration, error) {
		if d != nil {
			if err := d.close(); err != nil {
				return 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		nd, err := setupDaemon(e)
		d = nd
		if err != nil {
			return 0, err
		}
		return time.Since(t0) - nd.disk, nil
	})
	if err != nil {
		return nil, err
	}
	defer d.close()
	if err := d.warmUp(); err != nil {
		return nil, err
	}

	if e.tr == nil {
		recs, wall, err := d.measure(e.seconds, nil)
		if err != nil {
			return nil, err
		}
		lat, _ := d.tally(res, recs)
		res.set("setup_s", median(setups))
		res.set("out_vox_per_s", float64(len(lat)*volume.NumVoxels(d.outDims))/wall.Seconds())
		res.set("jobs_per_s", float64(len(lat))/wall.Seconds())
		res.set("job_p50_s", median(lat))
		res.set("job_p90_s", quantile(lat, 0.9))
		res.note("%d jobs completed in %.3f s by %d clients; job latency min/p25/p50/p75/max %.3f/%.3f/%.3f/%.3f/%.3f s; %s",
			len(lat), wall.Seconds(), serveClients, quantile(lat, 0), quantile(lat, 0.25), median(lat), quantile(lat, 0.75), quantile(lat, 1), setupNote(setups))
		return res, nil
	}

	plain, _, err := d.measure(e.seconds/2, nil)
	if err != nil {
		return nil, err
	}
	latPlain, _ := d.tally(res, plain)
	traced, _, err := d.measure(e.seconds/2, e.tr)
	if err != nil {
		return nil, err
	}
	latTraced, done := d.tally(res, traced)
	return res, d.layerMetrics(res, done, latPlain, latTraced)
}

// warmUp runs one untimed job: heap growth, page cache, first connections.
func (d *daemonSetup) warmUp() error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	r, err := d.job(context.Background(), client, -1, nil)
	if err != nil {
		return err
	}
	if r.shed || r.state != server.StateCompleted {
		return fmt.Errorf("warm-up job ended %q (shed %v)", r.state, r.shed)
	}
	os.Remove(filepath.Join(d.state, fmt.Sprintf("job-%d.ckpt", r.id)))
	return os.RemoveAll(r.outDir)
}

// measure runs the closed loop until dur has passed and serveMinJobs jobs
// have been submitted. It returns every job and the wall time of the loop;
// tally checks the sampled outputs afterwards.
func (d *daemonSetup) measure(dur time.Duration, tr *tracer) ([]jobRec, time.Duration, error) {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer client.CloseIdleConnections()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Finished jobs' outputs and checkpoints are removed off the clients'
	// path, except the sampled ones the check reads afterwards.
	cleanup := make(chan jobRec, serveClients)
	cleaned := make(chan struct{})
	journalBytes := 0
	go func() {
		defer close(cleaned)
		for r := range cleanup {
			ckpt := filepath.Join(d.state, fmt.Sprintf("job-%d.ckpt", r.id))
			if st, err := os.Stat(ckpt); err == nil {
				journalBytes += int(st.Size())
			}
			os.Remove(ckpt)
			if r.index%serveCheckEvery != 0 {
				os.RemoveAll(r.outDir)
			}
		}
	}()

	var mu sync.Mutex
	var recs []jobRec
	var firstErr error
	next := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := firstErr != nil || (time.Since(start) >= dur && next >= serveMinJobs)
				index := next
				next++
				mu.Unlock()
				if stop {
					return
				}
				r, err := d.job(ctx, client, index, tr)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
					cancel()
				}
				recs = append(recs, r)
				mu.Unlock()
				if err == nil && !r.shed {
					cleanup <- r
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	close(cleanup)
	<-cleaned
	if firstErr != nil {
		return nil, 0, firstErr
	}
	if tr != nil {
		d.journalBytes = float64(journalBytes)
	}
	return recs, wall, nil
}

// tally counts the jobs into res, checks the sampled outputs against the
// oracle, and returns the completed jobs' latencies.
func (d *daemonSetup) tally(res *result, recs []jobRec) ([]float64, []jobRec) {
	var lat []float64
	var done []jobRec
	for _, r := range recs {
		res.attempted++
		switch {
		case r.shed:
			res.failed++
			d.shed++
		case r.state != server.StateCompleted:
			res.failed++
			res.note("job %d ended %s", r.id, r.state)
		default:
			lat = append(lat, r.done.Seconds())
			done = append(done, r)
			if r.index%serveCheckEvery == 0 {
				if err := d.check(r.outDir); err != nil {
					res.failed++
					res.note("job %d: %v", r.id, err)
				}
				os.RemoveAll(r.outDir)
			}
		}
	}
	return lat, done
}

// check reads a job's USO records back and compares them with the oracle.
func (d *daemonSetup) check(dir string) error {
	grids, err := filters.ReadUSODir(dir, d.outDims)
	if err != nil {
		return err
	}
	if n := d.oracle.mismatches(func(f features.Feature) *volume.FloatGrid { return grids[f] }); n > 0 {
		return fmt.Errorf("%d sampled values differ from the workers=1 oracle", n)
	}
	return nil
}

// layerMetrics derives the per-layer metrics of the traced jobs: client-side
// timings on the daemon API, each job's RunReport (fetched after the loop),
// checkpoint journal sizes and the kernel replay. Times are per job.
func (d *daemonSetup) layerMetrics(res *result, done []jobRec, latPlain, latTraced []float64) error {
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var reps []*metrics.RunReport
	var submit, queue, overhead []float64
	for _, r := range done {
		resp, err := client.Get(fmt.Sprintf("%s/jobs/%d", d.base, r.id))
		if err != nil {
			return err
		}
		var v jobView
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("job %d: %v", r.id, err)
		}
		if v.Report == nil {
			return fmt.Errorf("job %d: completed without a run report", r.id)
		}
		reps = append(reps, v.Report)
		submit = append(submit, r.submitted.Seconds()*1e3)
		if r.running > 0 {
			queue = append(queue, (r.running-r.submitted).Seconds()*1e3)
		}
		overhead = append(overhead, (r.done-v.Report.Elapsed()).Seconds()*1e3)
	}
	zeroLayers(res)
	reportLayers(res, reps)
	acfg := core.Config{
		ROI: serveSpec.ROI, GrayLevels: serveSpec.GrayLevels, NDim: serveSpec.NDim,
		Features: features.PaperSet(), Workers: serveSpec.KernelWkrs,
	}
	if err := replayLayers(res, d.grid, acfg, serveSpec.ChunkShape, d.outDims, rand.New(rand.NewSource(d.seed))); err != nil {
		return err
	}
	res.set("checkpoint.journal_bytes_per_job", d.journalBytes/float64(len(done)))
	res.set("server.submit_ms", median(submit))
	res.set("server.queue_wait_ms", median(queue))
	res.set("server.overhead_ms", median(overhead))
	res.set("server.shed", float64(d.shed))
	res.set("trace.overhead_pct", 100*(median(latTraced)/median(latPlain)-1))
	res.note("%d untraced + %d traced jobs; %d traced jobs saw the running transition", len(latPlain), len(done), len(queue))
	return nil
}
