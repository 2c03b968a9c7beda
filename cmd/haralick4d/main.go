// Command haralick4d runs the parallel 4D Haralick texture analysis
// pipeline over a disk-resident dataset, with the paper's configuration
// surface exposed as flags: the implementation (combined HMP vs split
// HCC+HPC), the co-occurrence matrix representation (full, full without the
// zero-skip optimization, sparse), the buffer scheduling policy
// (round-robin vs demand-driven), copy counts, chunk geometry and the
// execution engine (local goroutines, loopback TCP between virtual nodes,
// or the simulated cluster).
//
// Examples:
//
//	haralick4d -data /data/study1 -out /tmp/maps -format jpeg
//	haralick4d -data /data/study1 -impl split -rep sparse -texture 8 -engine tcp -out /tmp/uso -format uso
//	haralick4d -data /data/study1 -engine sim -impl split -stats
//
// The serve subcommand runs the multi-job analysis daemon instead of a
// single analysis (see internal/server):
//
//	haralick4d serve -serve-addr localhost:7474 -state-dir /var/lib/haralick4d
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"haralick4d/internal/autotune"
	"haralick4d/internal/checkpoint"
	"haralick4d/internal/cliflags"
	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/dicom"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/netdesc"
	"haralick4d/internal/pipeline"
)

// dicomStudy abstracts the two dataset formats behind one build call.
type dicomStudy struct {
	dcm *dicom.Study
	raw *dataset.Store
}

func (s *dicomStudy) build(cfg *pipeline.Config, layout *pipeline.Layout) (*filter.Graph, *filters.Results, [4]int, error) {
	if s.dcm != nil {
		return pipeline.BuildDICOM(s.dcm, cfg, layout)
	}
	return pipeline.Build(s.raw, cfg, layout)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "haralick4d: "+format+"\n", args...)
	os.Exit(1)
}

// parseAutoTuneFlags checks the -autotune flag family and resolves the
// sampling interval. The simulated engine replays a virtual clock and never
// runs the live monitor, so tuning there would silently do nothing.
func parseAutoTuneFlags(on bool, intervalS string, seed int64, engine pipeline.Engine) (time.Duration, error) {
	var interval time.Duration
	if intervalS != "" {
		d, err := time.ParseDuration(intervalS)
		if err != nil {
			return 0, fmt.Errorf("invalid -autotune-interval %q: %v", intervalS, err)
		}
		if d <= 0 {
			return 0, fmt.Errorf("-autotune-interval must be positive, got %v", d)
		}
		interval = d
	}
	if !on {
		if intervalS != "" {
			return 0, fmt.Errorf("-autotune-interval requires -autotune")
		}
		if seed != 0 {
			return 0, fmt.Errorf("-autotune-seed requires -autotune")
		}
		return 0, nil
	}
	if engine == pipeline.EngineSim {
		return 0, fmt.Errorf("-autotune needs a live engine (local or tcp), not sim")
	}
	return interval, nil
}

// validateCountFlags rejects the negative values the flag package happily
// parses; 0 keeps each flag's documented meaning (synchronous reads, all
// CPUs).
func validateCountFlags(readAhead, kernelWorkers int) error {
	if readAhead < 0 {
		return fmt.Errorf("-readahead must be >= 0, got %d", readAhead)
	}
	if kernelWorkers < 0 {
		return fmt.Errorf("-kernel-workers must be >= 0, got %d", kernelWorkers)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		serveMain(os.Args[2:])
		return
	}
	var (
		data     = flag.String("data", "", "dataset directory (see cmd/gendata); required unless -dataset-url is given")
		dataURL  = flag.String("dataset-url", "", "dataset URL: a directory path, file://dir, mem://name, or http(s)://host/prefix for a remote range-read server (overrides -data)")
		cacheBl  = flag.Int("cache-blocks", 0, "block-cache budget between the backend and the readers, in blocks (0 = no cache)")
		cacheBS  = flag.Int("cache-block-size", 0, "block-cache granularity in bytes (default 128KiB; requires -cache-blocks)")
		graph    = flag.String("graph", "", "XML pipeline description (overrides the analysis/layout flags)")
		dicomIn  = flag.Bool("dicom", false, "the dataset directory is a DICOM study (see internal/dicom)")
		out      = flag.String("out", "", "output directory (required unless -format none)")
		format   = flag.String("format", "jpeg", "output format: jpeg (HIC+JIW), uso (unstitched), none (collect only)")
		implS    = flag.String("impl", "hmp", "texture implementation: hmp or split")
		repS     = flag.String("rep", "full", "matrix representation: full, full-noskip, sparse")
		policyS  = flag.String("policy", "demand-driven", "buffer scheduling: round-robin or demand-driven")
		engineS  = flag.String("engine", "local", "execution engine: local, tcp, sim")
		rdAhead  = flag.Int("readahead", 4, "I/O windows the dataset readers fetch ahead of the pipeline (0 = synchronous reads)")
		codecS   = flag.String("wire-codec", "binary", "TCP wire codec: binary or gob")
		retryS   = flag.String("retry", "", "TCP link retry policy \"attempts[,base[,max]]\", e.g. \"5,10ms,1s\" (empty = single-shot sends)")
		faultS   = flag.String("fault-policy", "fail-fast", "degraded-slice handling: fail-fast or skip-degraded")
		brkS     = flag.String("breaker", "", "circuit breaker \"consec[,open-for[,window,error-rate]]\" for backend calls and TCP links, e.g. \"5,2s\" (empty = off)")
		budgetS  = flag.String("retry-budget", "", "shared retry budget \"tokens[,ratio]\" capping total retries against a sick dependency, e.g. \"10,0.1\" (empty = unbounded)")
		hedgeS   = flag.String("hedge-after", "", "launch a second backend range read if the first has not answered within this duration, e.g. 200ms (empty = off)")
		staleF   = flag.Bool("serve-stale", false, "while the backend breaker is open, degrade unavailable slices instead of failing the run (requires -fault-policy skip-degraded)")
		deadS    = flag.String("deadline", "", "wall-clock budget for the whole run, e.g. 10m; propagated as a context deadline into every backend read (empty = none)")
		texture  = flag.Int("texture", 4, "texture filter copies (HMP, or HCC+HPC pairs for split)")
		kworkers = flag.Int("kernel-workers", 1, "intra-chunk kernel workers per texture filter copy (0 = all CPUs, 1 = sequential reference kernel)")
		iic      = flag.Int("iic", 1, "explicit IIC copies")
		roiS     = flag.String("roi", "16x16x3x3", "ROI window XxYxZxT")
		chunkS   = flag.String("chunk", "", "IIC-to-TEXTURE chunk shape XxYxZxT (default: auto)")
		gray     = flag.Int("gray", 32, "gray levels G")
		featS    = flag.String("features", "", "comma-separated feature names (default: the paper's four)")
		ndim     = flag.Int("ndim", 4, "direction-set dimensionality (1-4)")
		dist     = flag.Int("distance", 1, "displacement distance")
		ckptS    = flag.String("checkpoint", "", "durable progress journal path; makes the run resumable after a crash (formats uso/none)")
		ckptIntS = flag.String("checkpoint-interval", "", "journal fsync cadence, e.g. 500ms (default 1s; requires -checkpoint)")
		resumeF  = flag.Bool("resume", false, "resume from the -checkpoint journal of an interrupted run of the same configuration")
		stallS   = flag.String("stall-timeout", "", "fail the run if no filter makes progress for this long, e.g. 2m (default: wait forever)")
		tuneF    = flag.Bool("autotune", false, "tune read-ahead depth and texture admission live from run metrics (engines local/tcp)")
		tuneIntS = flag.String("autotune-interval", "", "autotune sampling cadence, e.g. 250ms (default 100ms; requires -autotune)")
		tuneSeed = flag.Int64("autotune-seed", 0, "autotune tie-break seed, 0 = default (requires -autotune)")
		crashN   = flag.Int("crash-after", 0, "TESTING: crash texture copy 0 after receiving this many buffers (0 = never)")
		stats    = flag.Bool("stats", false, "print per-filter runtime statistics")
		metricsF = flag.Bool("metrics", false, "print the structured run report (per-filter spans, streams, critical path)")
		metJSON  = flag.String("metrics-json", "", "write the run report as JSON to this file (\"-\" for stdout)")
		pprofAt  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the run's duration")
	)
	flag.Parse()
	if *data == "" && *dataURL == "" {
		fmt.Fprintln(os.Stderr, "haralick4d: -data or -dataset-url is required")
		flag.Usage()
		os.Exit(2)
	}
	if *dataURL == "" {
		*dataURL = *data
	}

	impl, err := pipeline.ParseImpl(*implS)
	if err != nil {
		fail("%v", err)
	}
	rep, err := core.ParseRepresentation(*repS)
	if err != nil {
		fail("%v", err)
	}
	policy, err := filter.ParsePolicy(*policyS)
	if err != nil {
		fail("%v", err)
	}
	engine, err := pipeline.ParseEngine(*engineS)
	if err != nil {
		fail("%v", err)
	}
	codec, err := filter.ParseCodec(*codecS)
	if err != nil {
		fail("%v", err)
	}
	retry, err := filter.ParseRetry(*retryS)
	if err != nil {
		fail("%v", err)
	}
	faultPolicy, err := fault.ParsePolicy(*faultS)
	if err != nil {
		fail("%v", err)
	}
	if err := validateCountFlags(*rdAhead, *kworkers); err != nil {
		fmt.Fprintf(os.Stderr, "haralick4d: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	ckptInterval, stallTimeout, err := cliflags.ParseRestartFlags(*ckptS, *resumeF, *ckptIntS, *stallS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haralick4d: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	uopts, err := cliflags.ParseBackendFlags(*dataURL, *cacheBl, *cacheBS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haralick4d: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	respol, deadline, err := cliflags.ParseResilienceFlags(*brkS, *budgetS, *hedgeS, *deadS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haralick4d: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	if *staleF && faultPolicy != fault.SkipDegraded {
		fmt.Fprintln(os.Stderr, "haralick4d: -serve-stale requires -fault-policy skip-degraded (stale reads surface as degraded slices)")
		flag.Usage()
		os.Exit(2)
	}
	uopts.ResiliencePolicy = respol
	uopts.ServeStale = *staleF
	if respol != nil && retry != nil {
		// The same flag-level policy arms the TCP links: each ordered node
		// pair gets its own breaker and retry budget.
		retry.PairBudget = respol.Budget
		retry.PairBreaker = respol.Breaker
	}
	tuneInterval, err := parseAutoTuneFlags(*tuneF, *tuneIntS, *tuneSeed, engine)
	if err != nil {
		fmt.Fprintf(os.Stderr, "haralick4d: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	var roi [4]int
	if _, err := fmt.Sscanf(*roiS, "%dx%dx%dx%d", &roi[0], &roi[1], &roi[2], &roi[3]); err != nil {
		fail("invalid -roi %q", *roiS)
	}
	var chunk [4]int
	if *chunkS != "" {
		if _, err := fmt.Sscanf(*chunkS, "%dx%dx%dx%d", &chunk[0], &chunk[1], &chunk[2], &chunk[3]); err != nil {
			fail("invalid -chunk %q", *chunkS)
		}
	}
	var feats []features.Feature
	if *featS != "" {
		for _, name := range strings.Split(*featS, ",") {
			f, err := features.Parse(name)
			if err != nil {
				fail("%v", err)
			}
			feats = append(feats, f)
		}
	}

	var (
		cfg    *pipeline.Config
		layout *pipeline.Layout
	)
	var dims [4]int
	var storageNodes int
	var study *dicomStudy
	if *dicomIn {
		if *data == "" {
			fail("-dicom requires a local -data directory")
		}
		s, err := dicom.OpenStudy(*data)
		if err != nil {
			fail("%v", err)
		}
		study = &dicomStudy{dcm: s}
		dims, storageNodes = s.Dims, s.Nodes
	} else {
		st, err := dataset.OpenURL(context.Background(), *dataURL, uopts)
		if err != nil {
			fail("%v", err)
		}
		defer st.Close()
		study = &dicomStudy{raw: st}
		dims, storageNodes = st.Meta.Dims, st.Meta.Nodes
	}

	if *graph != "" {
		doc, err := netdesc.ParseFile(*graph)
		if err != nil {
			fail("%v", err)
		}
		if cfg, layout, err = doc.Build(); err != nil {
			fail("%v", err)
		}
		if *out != "" {
			cfg.OutDir = *out
		}
	} else {
		cfg = &pipeline.Config{
			Analysis: core.Config{
				ROI:            roi,
				GrayLevels:     *gray,
				NDim:           *ndim,
				Distance:       *dist,
				Features:       feats,
				Representation: rep,
				Workers:        *kworkers,
			},
			ChunkShape: chunk,
			Impl:       impl,
			Policy:     policy,
			OutDir:     *out,
		}
		switch *format {
		case "jpeg":
			cfg.Output = pipeline.OutputJPEG
		case "uso":
			cfg.Output = pipeline.OutputUSO
		case "none":
			cfg.Output = pipeline.OutputCollect
		default:
			fail("unknown -format %q", *format)
		}
		// Placement: storage nodes first, then IIC, output, texture nodes.
		next := storageNodes
		take := func(n int) []int {
			ids := make([]int, n)
			for i := range ids {
				ids[i] = next
				next++
			}
			return ids
		}
		layout = &pipeline.Layout{
			IICNodes:    take(*iic),
			OutputNodes: take(1),
		}
		tex := take(*texture)
		switch impl {
		case pipeline.HMPImpl:
			layout.HMPNodes = tex
		case pipeline.SplitImpl:
			layout.HCCNodes = tex
			layout.HPCNodes = tex // co-located pairs (the paper's best layout)
		}
	}
	cfg.ReadAhead = *rdAhead
	cfg.FaultPolicy = faultPolicy
	var ctrl *autotune.Controller
	if *tuneF {
		acfg := autotune.Config{Seed: *tuneSeed, Interval: tuneInterval}
		if st := study.raw; st != nil {
			acfg.CacheStats = func() (hits, misses int64) {
				s := st.Stats()
				return s.CacheHits, s.CacheMisses
			}
		}
		ctrl = autotune.New(acfg)
	}
	cfg.AutoTune = ctrl
	if cfg.Output != pipeline.OutputCollect {
		if cfg.OutDir == "" {
			fail("an output directory is required (use -out)")
		}
		if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
			fail("%v", err)
		}
	}
	var journal *checkpoint.Journal
	if *ckptS != "" {
		j, restart, err := pipeline.PrepareCheckpoint(dims, cfg, *ckptS, *resumeF, ckptInterval)
		if err != nil {
			fail("%v", err)
		}
		journal = j
		if *resumeF {
			fmt.Println(restart)
		}
	}

	if *pprofAt != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAt, nil); err != nil {
				fmt.Fprintf(os.Stderr, "haralick4d: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof listening on http://%s/debug/pprof/\n", *pprofAt)
	}

	g, sink, outDims, err := study.build(cfg, layout)
	if err != nil {
		fail("%v", err)
	}
	if *crashN > 0 {
		// Fault-injection hook for the restart smoke test: kill the first
		// texture copy while it holds an in-flight buffer.
		name := "HMP"
		if cfg.Impl == pipeline.SplitImpl {
			name = "HCC"
		}
		if spec, ok := g.Filter(name); ok {
			spec.New = fault.CrashAfter(spec.New, 0, *crashN)
		}
	}
	fmt.Printf("dataset %v, ROI %v, G=%d, %s/%s/%s on %s engine\n",
		dims, cfg.Analysis.ROI, cfg.Analysis.GrayLevels, cfg.Impl, cfg.Analysis.Representation, cfg.Policy, engine)
	// SIGTERM is what containers and orchestrators send first: treat it
	// like ^C so the run cancels cleanly and the checkpoint journal is
	// flushed instead of dying mid-frame.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if deadline > 0 {
		// The -deadline budget rides the same context as ^C/SIGTERM, so an
		// overrunning run cancels exactly like an interrupted one.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	rs, err := pipeline.RunContext(ctx, g, engine, &pipeline.RunOptions{
		WireCodec:    codec,
		Retry:        retry,
		Failover:     faultPolicy == fault.SkipDegraded,
		StallTimeout: stallTimeout,
		AutoTune:     ctrl,
	})
	if journal != nil {
		// Close regardless of the run's outcome: the journal is the artifact
		// a later -resume trusts, so whatever landed must reach the disk.
		if cerr := journal.Close(); cerr != nil && err == nil {
			fail("%v", cerr)
		}
	}
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("done in %v; output dims %v\n", rs.Elapsed, outDims)
	ctrl.Attach(rs.Report)
	pipeline.AttachBackendStats(rs.Report, study.raw)
	if *stats {
		fmt.Print(rs.String())
	}
	if *metricsF || *metJSON != "" {
		if err := rs.Report.Validate(); err != nil {
			fail("run report: %v", err)
		}
	}
	if *metricsF {
		fmt.Print(rs.Report.String())
	}
	if *metJSON != "" {
		data, err := rs.Report.JSON()
		if err != nil {
			fail("run report: %v", err)
		}
		if *metJSON == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else if err := os.WriteFile(*metJSON, append(data, '\n'), 0o644); err != nil {
			fail("%v", err)
		}
	}
	if sink != nil {
		if slices, rois, voxels := sink.Degraded(); voxels > 0 {
			fmt.Printf("degraded: skipped %d slices poisoning %d chunks (%d output voxels left zero); lost slice ids %v\n",
				len(slices), len(rois), voxels, slices)
		}
		fmt.Println("results collected in memory (use -format jpeg or uso to persist)")
	}
}
