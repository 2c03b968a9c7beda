// Command perfbench is the repository benchmark: four workloads that drive
// the same public calls as the CLI and the serve daemon, an output check
// against the workers=1 oracle, end-to-end metrics from an untraced run and
// per-layer metrics from a traced one. See README.md in this directory.
//
//	bash perfbench/run.sh --workload local-paper --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one entry of the benchmark. run measures for env.seconds and
// fills the result's end-to-end metrics, or the per-layer ones when env.tr
// is set.
type workload struct {
	name string
	why  string
	run  func(env *env) (*result, error)
}

var workloads = []workload{
	{"local-paper", "paper analysis (ROI 16x16x3x3, G=32, 40 4D directions, full matrices) on the local engine: HMP compute is nearly all of the wall time, so kernel changes show here", runLocalPaper},
	{"http-cached", "cheap analysis over loopback HTTP with 10 ms responses, 1% 503s and a block cache smaller than the data: the readers, cache and retries set the pace", runHTTPCached},
	{"tcp-split", "split HCC/HPC implementation on the TCP engine, every filter on its own node, JPEG output: matrix batches cross the wire and HIC/JIW stitch and encode", runTCPSplit},
	{"serve-jobs", "in-process serve daemon driven over HTTP by 2 closed-loop clients, USO output with checkpoint journals: admission, governor, job lifecycle and writes", runServeJobs},
}

// env is what a workload run gets from the command line.
type env struct {
	seed    int64
	seconds time.Duration
	work    string  // scratch directory inside the checkout, removed at exit
	tr      *tracer // nil for an untraced run
}

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	metrics           map[string]metricOut
	notes             []string
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: map[string]metricOut{}} }

// set records a metric under its BENCHMARK.json unit.
func (r *result) set(name string, v float64) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				r.metrics[name] = metricOut{v, d.Unit}
				return
			}
		}
	}
	panic("perfbench: metric " + name + " is not in the metric table")
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload name, or \"all\"")
		seed      = flag.Int64("seed", 1, "seed for the phantom noise, the oracle sample and the fault schedule")
		seconds   = flag.Float64("seconds", runSeconds, "measurement time per workload")
		traceF    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		writeSpec = flag.Bool("write-spec", false, "write BENCHMARK.json from the metric table and exit")
	)
	flag.Parse()
	if *writeSpec {
		data, err := marshalSpec()
		if err != nil {
			return err
		}
		return os.WriteFile("BENCHMARK.json", data, 0o644)
	}
	if *traceF != 0 && *traceF != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || w.name == *name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	fmt.Println(hostLine())

	work, err := filepath.Abs(filepath.Join(".bench_build", "work", fmt.Sprintf("%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	// With "all", metrics are keyed workload:metric.
	combined := newResult()
	for i, w := range todo {
		if i > 0 {
			// Each workload reports its own peak resident set.
			if err := resetPeakRSS(); err != nil {
				return err
			}
		}
		e := &env{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), work: filepath.Join(work, w.name)}
		if *traceF == 1 {
			e.tr = newTracer()
		}
		res, err := w.run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		if e.tr == nil {
			mib, err := peakRSS()
			if err != nil {
				return err
			}
			res.set("peak_rss_mb", mib)
		} else if err := writeTrace(e, w.name); err != nil {
			return fmt.Errorf("%s: trace: %w", w.name, err)
		}
		printHuman(w.name, res)
		if err := checkSpec("BENCHMARK.json", *traceF == 1, res.metrics); err != nil {
			return fmt.Errorf("%s: self-check: %w", w.name, err)
		}
		if len(todo) == 1 {
			combined = res
			break
		}
		combined.attempted += res.attempted
		combined.failed += res.failed
		for k, v := range res.metrics {
			combined.metrics[w.name+":"+k] = v
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{combined.failed == 0, combined.attempted, combined.failed, combined.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if combined.failed > 0 {
		return fmt.Errorf("%d of %d operations failed or produced wrong output", combined.failed, combined.attempted)
	}
	return nil
}

const (
	setupMinReps = 9                       // set-ups per run at least; setup_s is their median
	setupMaxReps = 41                      // set-ups per run at most
	setupMinTime = 1500 * time.Millisecond // set-up time per run that more reps fill
)

// repeatSetup calls setUp, which replaces the previous set-up with a new
// one and returns its timed part, at least setupMinReps times and then
// until setupMinTime of timed set-up has passed or setupMaxReps ran. A
// cheap set-up lasts tens of milliseconds, where one scheduling delay on a
// shared host moves it by a third; more reps steady the median. It returns
// every set-up's time in seconds.
func repeatSetup(setUp func() (time.Duration, error)) ([]float64, error) {
	var setups []float64
	var total time.Duration
	for len(setups) < setupMinReps || (total < setupMinTime && len(setups) < setupMaxReps) {
		d, err := setUp()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		total += d
	}
	return setups, nil
}

func setupNote(setups []float64) string {
	return fmt.Sprintf("%d set-ups min/p50/max %.4f/%.4f/%.4f s", len(setups), quantile(setups, 0), median(setups), quantile(setups, 1))
}

// hostLine records the host every result was measured on.
func hostLine() string {
	model := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("host: nproc=%d gomaxprocs=%d cpu=%q go=%s", runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// peakRSS returns the process's resident-set high-water mark in MiB
// (VmHWM), set-up included.
func peakRSS() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %v", err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// resetPeakRSS returns the previous workload's heap to the system and
// restarts the high-water mark at the current resident set.
func resetPeakRSS() error {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	_, err = f.WriteString("5")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func printHuman(name string, r *result) {
	fmt.Printf("workload %s: attempted %d, failed %d, error_rate %.4g\n", name, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, n := range r.notes {
		fmt.Printf("  # %s\n", n)
	}
	keys := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-34s %16.6g %s\n", k, r.metrics[k].Value, r.metrics[k].Unit)
	}
}

// writeTrace writes the run's spans and each layer's self time under
// .bench_build/traces.
func writeTrace(e *env, name string) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := e.tr.writeJSONL(base + ".spans.jsonl.gz"); err != nil {
		return err
	}
	self := map[string]float64{}
	for layer, d := range e.tr.selfTimes(func(s *span) string { return s.Layer }) {
		self[layer] = d.Seconds()
	}
	data, err := json.MarshalIndent(map[string]any{"host": hostLine(), "self_s": self}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".self.json", append(data, '\n'), 0o644)
}
