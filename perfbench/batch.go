package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/resilience"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

const (
	oracleSamples = 48 // output positions checked per run
	minRuns       = 5  // measured runs per workload even when --seconds is short
)

// batchSpec is one CLI-style workload: dataset.OpenURL → pipeline.Build →
// pipeline.RunContext, as cmd/haralick4d does.
type batchSpec struct {
	dims      [4]int
	nodes     int
	analysis  core.Config
	chunk     [4]int
	ioChunk   [2]int
	readAhead int
	impl      pipeline.Impl
	output    pipeline.OutputMode
	engine    pipeline.Engine
	layout    pipeline.Layout
	http      *httpSpec // nil reads the dataset through file://
}

// httpSpec serves the dataset from an in-benchmark HTTP server.
type httpSpec struct {
	latency    time.Duration
	failRate   float64
	cacheShare float64 // block-cache capacity as a share of the dataset's bytes
	breaker    string  // resilience.ParseBreaker syntax
	budget     string  // resilience.ParseBudget syntax
}

func runLocalPaper(e *env) (*result, error) {
	return runBatch(e, batchSpec{
		dims:  [4]int{48, 48, 8, 8},
		nodes: 4,
		analysis: core.Config{
			ROI: [4]int{16, 16, 3, 3}, GrayLevels: 32, NDim: 4, Distance: 1,
			Features: features.PaperSet(), Representation: core.FullMatrix, Workers: 2,
		},
		readAhead: 4,
		impl:      pipeline.HMPImpl,
		output:    pipeline.OutputCollect,
		engine:    pipeline.EngineLocal,
		layout:    pipeline.Layout{IICNodes: []int{4}, OutputNodes: []int{5}, HMPNodes: []int{6}},
	})
}

func runHTTPCached(e *env) (*result, error) {
	return runBatch(e, batchSpec{
		dims:  [4]int{128, 128, 8, 8},
		nodes: 4,
		analysis: core.Config{
			ROI: [4]int{4, 4, 2, 2}, GrayLevels: 8, NDim: 2, Distance: 1,
			Features: features.PaperSet(), Representation: core.SparseMatrix, Workers: 2,
		},
		ioChunk:   [2]int{32, 32},
		readAhead: 4,
		impl:      pipeline.HMPImpl,
		output:    pipeline.OutputCollect,
		engine:    pipeline.EngineLocal,
		layout:    pipeline.Layout{IICNodes: []int{4}, OutputNodes: []int{5}, HMPNodes: []int{6}},
		http: &httpSpec{
			latency: 10 * time.Millisecond, failRate: 0.01, cacheShare: 0.5,
			breaker: "5,1s", budget: "10,0.1",
		},
	})
}

func runTCPSplit(e *env) (*result, error) {
	return runBatch(e, batchSpec{
		dims:  [4]int{64, 64, 8, 8},
		nodes: 4,
		analysis: core.Config{
			ROI: [4]int{4, 4, 2, 2}, GrayLevels: 16, NDim: 2, Distance: 1,
			Features: features.PaperSet(), Representation: core.SparseMatrix, Workers: 1,
		},
		readAhead: 4,
		impl:      pipeline.SplitImpl,
		output:    pipeline.OutputJPEG,
		engine:    pipeline.EngineTCP,
		// Every filter on its own node, so RFR→IIC, IIC→HCC, HCC→HPC,
		// HPC→HIC and HIC→JIW all cross a TCP link.
		layout: pipeline.Layout{
			SourceNodes: []int{0, 1, 2, 3}, IICNodes: []int{4}, OutputNodes: []int{5}, JIWNodes: []int{6},
			HCCNodes: []int{7, 8}, HPCNodes: []int{9, 10},
		},
	})
}

// config returns a fresh pipeline config; Build normalizes it in place.
func (sp *batchSpec) config(outDir string) *pipeline.Config {
	return &pipeline.Config{
		Analysis:   sp.analysis,
		ChunkShape: sp.chunk,
		IOChunk:    sp.ioChunk,
		ReadAhead:  sp.readAhead,
		Impl:       sp.impl,
		Policy:     filter.DemandDriven,
		Output:     sp.output,
		OutDir:     outDir,
	}
}

// batchSetup is everything a workload prepares before timing starts.
type batchSetup struct {
	sp          *batchSpec
	dir         string // the dataset directory
	url         string
	srv         *dataServer
	grid        *volume.Grid // the dataset requantized as the pipeline sees it
	outDims     [4]int
	oracle      *oracle
	refJPEG     map[string][]byte // OutputJPEG: the local engine's output
	cacheBlocks int
	policy      *resilience.Policy
	seed        int64
	disk        time.Duration // spent removing and writing dataset files; not in setup_s
}

func setupBatch(e *env, sp *batchSpec) (_ *batchSetup, err error) {
	b := &batchSetup{sp: sp, dir: filepath.Join(e.work, "data"), seed: e.seed}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	t0 := time.Now()
	if err := os.RemoveAll(e.work); err != nil {
		return nil, err
	}
	b.disk = time.Since(t0)
	acfg := sp.analysis
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	var disk time.Duration
	if b.grid, disk, err = writePhantom(b.dir, sp.dims, sp.nodes, acfg.GrayLevels, e.seed); err != nil {
		return nil, err
	}
	b.disk += disk
	if b.outDims, err = volume.OutputDims(sp.dims, acfg.ROI); err != nil {
		return nil, err
	}
	if b.oracle, err = newOracle(b.grid, acfg, b.outDims, oracleSamples, rand.New(rand.NewSource(e.seed))); err != nil {
		return nil, err
	}
	b.url = "file://" + b.dir
	if h := sp.http; h != nil {
		if b.srv, err = startDataServer(b.dir, h.latency, h.failRate, e.seed); err != nil {
			return nil, err
		}
		b.url = b.srv.URL
		b.cacheBlocks = max(1, int(h.cacheShare*float64(volume.NumVoxels(sp.dims)*2)/dataset.DefaultCacheBlockSize))
		b.policy = &resilience.Policy{}
		if b.policy.Breaker, err = resilience.ParseBreaker(h.breaker); err != nil {
			return nil, err
		}
		if b.policy.Budget, err = resilience.ParseBudget(h.budget); err != nil {
			return nil, err
		}
	}
	if sp.output == pipeline.OutputJPEG {
		// The reference JPEG set: the same graph on the local engine.
		ref := filepath.Join(e.work, "ref")
		store, err := dataset.OpenURL(context.Background(), "file://"+b.dir, nil)
		if err != nil {
			return nil, err
		}
		defer store.Close()
		if err := os.MkdirAll(ref, 0o755); err != nil {
			return nil, err
		}
		g, _, _, err := pipeline.Build(store, sp.config(ref), &sp.layout)
		if err != nil {
			return nil, err
		}
		if _, err := pipeline.Run(g, pipeline.EngineLocal, &pipeline.RunOptions{DisableMetrics: true}); err != nil {
			return nil, err
		}
		if b.refJPEG, err = readTree(ref); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// anatomySeed fixes the phantom's structures (blobs, lesions, vessels) for
// every run. The brightest structure sets the dataset-global requantization
// range and with it how many distinct gray-level pairs a ROI holds, so a
// seeded anatomy would change the amount of work per run by more than the
// regression bounds (about 10% on local-paper across seeds). The benchmark
// seed draws the acquisition noise instead: every seed gives different
// voxels and the same work.
const anatomySeed = 1

// noiseSigma is the seeded acquisition noise added on top of the phantom's
// own, in raw intensity units (the phantom baseline is 400).
const noiseSigma = 6

// writePhantom generates the phantom with seeded noise, writes it as a
// dataset and returns it requantized to gray levels with the dataset-global
// range, as the readers requantize it, with the time spent writing files.
func writePhantom(dir string, dims [4]int, nodes, gray int, seed int64) (*volume.Grid, time.Duration, error) {
	v := synthetic.Generate(synthetic.Config{Dims: dims, Seed: anatomySeed})
	rng := rand.New(rand.NewSource(seed))
	for i, x := range v.Data {
		v.Data[i] = uint16(min(max(float64(x)+rng.NormFloat64()*noiseSigma, 0), 65535))
	}
	mem, meta, err := dataset.WriteMemDataset(v, nodes)
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := copyBlobs(mem, "", dir); err != nil {
		return nil, 0, err
	}
	return volume.RequantizeRange(v, gray, meta.Min, meta.Max), time.Since(t0), nil
}

// copyBlobs writes every file of the in-memory dataset under dir to the
// directory tree root. dataset.Write lays out the same bytes but fsyncs
// every file; the benchmark's data need not survive a crash, so plain
// writes do.
func copyBlobs(mem *dataset.MemBackend, dir, root string) error {
	ctx := context.Background()
	names, err := mem.List(ctx, dir)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, filepath.FromSlash(dir)), 0o755); err != nil {
		return err
	}
	for _, n := range names {
		name := path.Join(dir, n)
		data, err := mem.ReadFile(ctx, name)
		if errors.Is(err, fs.ErrNotExist) {
			// Not a file: a directory of the layout.
			if err := copyBlobs(mem, name, root); err != nil {
				return err
			}
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(name)), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (b *batchSetup) close() {
	if b.srv != nil {
		b.srv.Close()
	}
}

// runOut is one measured run.
type runOut struct {
	wall, open, build time.Duration
	report            *metrics.RunReport
	bad               error // output check failure
}

// probes are the traced run's seams shared by every run of a workload.
type probes struct {
	tr   *tracer
	http *timingTransport
	wire atomic.Int64
}

// runOnce makes one timed run, then checks its output outside the timing.
// With p nil the run is untraced and opens the dataset as the CLI does;
// traced, it wraps the backend's objects, the HTTP transport and the TCP
// links.
func (b *batchSetup) runOnce(ctx context.Context, run int, p *probes) (runOut, error) {
	var out runOut
	outDir := ""
	if b.sp.output != pipeline.OutputCollect {
		outDir = filepath.Join(filepath.Dir(b.dir), "out")
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return out, err
		}
		defer os.RemoveAll(outDir)
	}
	opts := &dataset.URLOptions{}
	var transport *http.Transport
	if b.srv != nil {
		b.srv.reset()
		transport = http.DefaultTransport.(*http.Transport).Clone()
		// As many idle connections as readers may have requests in flight,
		// so runs do not churn through ephemeral ports.
		transport.MaxIdleConnsPerHost = 16
		defer transport.CloseIdleConnections()
		var rt http.RoundTripper = transport
		if p != nil {
			p.http.inner = transport
			rt = p.http
		}
		opts.HTTPClient = &http.Client{Transport: rt}
		opts.CacheBlocks = b.cacheBlocks
		opts.ResiliencePolicy = b.policy
	}
	ropts := &pipeline.RunOptions{WireCodec: filter.CodecBinary}
	var tr *tracer
	if p != nil {
		tr = p.tr
		tr.trace.Store(int32(run))
		if b.sp.engine == pipeline.EngineTCP {
			ropts.WrapConn = func(c net.Conn, from, to int) net.Conn {
				return &countingConn{Conn: c, tr: tr, bytes: &p.wire}
			}
		}
	}

	// Start every run from a collected heap, so one run's garbage is not
	// collected on the next run's clock.
	runtime.GC()
	start := time.Now()
	endRun := tr.phase("bench", "run")
	endOpen := tr.phase("dataset", "open")
	// dataset.OpenURL is NewBackend + OpenBackend; the traced run wraps
	// the backend's objects in between.
	var store *dataset.Store
	be, err := dataset.NewBackend(b.url, opts)
	if err == nil {
		if p != nil {
			be = dataset.WrapObjects(be, func(_ string, r io.ReaderAt) io.ReaderAt { return tracedReaderAt{r, tr} })
		}
		store, err = dataset.OpenBackend(ctx, be)
	}
	endOpen()
	out.open = time.Since(start)
	if err != nil {
		endRun()
		return out, err
	}
	defer store.Close()
	endBuild := tr.phase("pipeline", "build")
	g, res, _, err := pipeline.Build(store, b.sp.config(outDir), &b.sp.layout)
	endBuild()
	out.build = time.Since(start) - out.open
	if err != nil {
		endRun()
		return out, err
	}
	endEngine := tr.phase("filter", "engine")
	rs, err := pipeline.RunContext(ctx, g, b.sp.engine, ropts)
	endEngine()
	endRun()
	out.wall = time.Since(start)
	if err != nil {
		return out, err
	}
	pipeline.AttachBackendStats(rs.Report, store)
	out.report = rs.Report

	if res != nil {
		if n := b.oracle.mismatches(res.Grid); n > 0 {
			out.bad = fmt.Errorf("%d of %d sampled values differ from the workers=1 oracle", n, len(b.oracle.pos)*len(b.oracle.feats))
		}
	} else if b.refJPEG != nil {
		if err := sameTree(outDir, b.refJPEG); err != nil {
			out.bad = fmt.Errorf("JPEG output: %v", err)
		}
	}
	return out, nil
}

// measure makes one untimed warm-up run (heap growth, page cache), then
// repeats runs until d has passed and at least minRuns ran.
func (b *batchSetup) measure(d time.Duration, p *probes, res *result) ([]runOut, error) {
	var outs []runOut
	var start time.Time
	for run := -1; run < minRuns || time.Since(start) < d; run++ {
		if run == 0 {
			start = time.Now()
		}
		probe := p
		if run < 0 {
			probe = nil
		}
		o, err := b.runOnce(context.Background(), run, probe)
		if err != nil {
			return nil, err
		}
		res.attempted++
		if o.bad != nil {
			res.failed++
			res.note("run %d: %v", run, o.bad)
		}
		if run >= 0 {
			outs = append(outs, o)
		}
	}
	return outs, nil
}

func runBatch(e *env, sp batchSpec) (*result, error) {
	res := newResult()
	var b *batchSetup
	setups, err := repeatSetup(func() (time.Duration, error) {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t0 := time.Now()
		nb, err := setupBatch(e, &sp)
		b = nb
		if err != nil {
			return 0, err
		}
		return time.Since(t0) - nb.disk, nil
	})
	if err != nil {
		return nil, err
	}
	defer b.close()
	vox := float64(volume.NumVoxels(b.outDims))

	if e.tr == nil {
		outs, err := b.measure(e.seconds, nil, res)
		if err != nil {
			return nil, err
		}
		var walls, rates []float64
		for _, o := range outs {
			walls = append(walls, o.wall.Seconds())
			rates = append(rates, vox/o.wall.Seconds())
		}
		res.set("setup_s", median(setups))
		res.set("out_vox_per_s", median(rates))
		// Runs are sequential, so the median run's rate is the throughput.
		res.set("jobs_per_s", 1/median(walls))
		res.set("job_p50_s", median(walls))
		res.set("job_p90_s", quantile(walls, 0.9))
		res.note("%d runs of %v output voxels; run wall min/p25/p50/p75/max %.3f/%.3f/%.3f/%.3f/%.3f s; %s",
			len(outs), b.outDims, quantile(walls, 0), quantile(walls, 0.25), median(walls), quantile(walls, 0.75), quantile(walls, 1), setupNote(setups))
		return res, nil
	}

	// Traced: half the time untraced for the overhead baseline, half
	// traced for the per-layer numbers.
	plain, err := b.measure(e.seconds/2, nil, res)
	if err != nil {
		return nil, err
	}
	p := &probes{tr: e.tr, http: &timingTransport{tr: e.tr}}
	traced, err := b.measure(e.seconds/2, p, res)
	if err != nil {
		return nil, err
	}
	return res, b.layerMetrics(res, plain, traced, p)
}

// layerMetrics derives the per-layer metrics from the traced runs' reports,
// spans and counters, plus a replay of the kernel calls on sampled chunks.
// Times and counts are per run.
func (b *batchSetup) layerMetrics(res *result, plain, traced []runOut, p *probes) error {
	n := float64(len(traced))
	var reps []*metrics.RunReport
	var wallPlain, wallTraced, open, build []float64
	var netBytes, spent float64
	for _, o := range plain {
		wallPlain = append(wallPlain, o.wall.Seconds())
	}
	for _, o := range traced {
		reps = append(reps, o.report)
		wallTraced = append(wallTraced, o.wall.Seconds())
		open = append(open, o.open.Seconds()*1e3)
		build = append(build, o.build.Seconds()*1e3)
		for _, c := range o.report.Network {
			netBytes += float64(c.WireBytesOut)
		}
		for _, be := range o.report.Backends {
			spent += float64(be.RetryBudgetSpent)
		}
	}
	zeroLayers(res)
	reportLayers(res, reps)
	if err := replayLayers(res, b.grid, b.sp.analysis, b.sp.chunk, b.outDims, rand.New(rand.NewSource(b.seed))); err != nil {
		return err
	}

	h := p.http
	var fetch []float64
	var fetchSum float64
	for _, d := range h.latencies {
		fetch = append(fetch, d.Seconds()*1e3)
		fetchSum += d.Seconds()
	}
	res.set("dataset.requests", float64(h.requests.Load())/n)
	res.set("dataset.fetch_s", fetchSum/n)
	res.set("dataset.fetch_p50_ms", quantile(fetch, 0.5))
	res.set("dataset.fetch_p99_ms", quantile(fetch, 0.99))
	res.set("dataset.fetch_bytes", float64(h.bytes.Load())/n)
	res.set("resilience.retries", float64(h.retryable.Load())/n)
	res.set("filter.wire_bytes", float64(p.wire.Load())/n)
	connWrite := p.tr.total("filter", "conn.write")
	res.set("filter.conn_write_s", connWrite.Seconds()/n)
	res.set("pipeline.open_ms", median(open))
	res.set("pipeline.build_ms", median(build))
	res.set("trace.overhead_pct", 100*(median(wallTraced)/median(wallPlain)-1))
	self := p.tr.selfTimes(func(s *span) string { return s.Layer + "." + s.Name })
	res.set("filter.self_s", self["filter.engine"].Seconds()/n)

	last := traced[len(traced)-1]
	res.note("%d untraced + %d traced runs; busy share per copy (last run): %s", len(plain), len(traced), busyShares(last.report))
	res.note("wire bytes/run: counted at WrapConn %.0f, RunReport.Network %.0f", float64(p.wire.Load())/n, netBytes/n)
	res.note("retries/run: 5xx answers at the RoundTripper %.1f, retry budget spent %.1f (backend stats)", float64(h.retryable.Load())/n, spent/n)
	return nil
}

// busyShares lists each filter's mean busy, blocked-receive and
// stalled-send share of the run, largest busy first; the first is the
// report's bottleneck.
func busyShares(r *metrics.RunReport) string {
	var b strings.Builder
	for _, e := range r.Summary.Entries {
		fmt.Fprintf(&b, "%s %.2f/%.2f/%.2f ", e.Filter, e.BusyShare, e.RecvShare, e.SendShare)
	}
	return strings.TrimSpace(b.String())
}
