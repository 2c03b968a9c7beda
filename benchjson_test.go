package haralick4d

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
)

// TestWriteKernelBenchJSON runs the kernel microbenchmarks and writes their
// results, machine-readable, to the path in HARALICK4D_BENCH_OUT; used to
// produce the committed BENCH_kernels.json:
//
//	HARALICK4D_BENCH_OUT=$PWD/BENCH_kernels.json go test -run TestWriteKernelBenchJSON
func TestWriteKernelBenchJSON(t *testing.T) {
	out := os.Getenv("HARALICK4D_BENCH_OUT")
	if out == "" {
		t.Skip("set HARALICK4D_BENCH_OUT to regenerate BENCH_kernels.json")
	}
	type entry struct {
		Name        string  `json:"name"`
		Kernel      string  `json:"kernel"`
		Iterations  int     `json:"iterations"`
		NsPerOp     float64 `json:"ns_per_op"`
		PairsPerSec float64 `json:"pairs_per_sec"`
	}
	run := func(name, kernel string, fn func(*testing.B)) entry {
		r := testing.Benchmark(fn)
		e := entry{Name: name, Kernel: kernel, Iterations: r.N, NsPerOp: float64(r.NsPerOp()), PairsPerSec: r.Extra["pairs/s"]}
		t.Logf("%-26s %-8s %12.0f ns/op %14.0f pairs/s", e.Name, e.Kernel, e.NsPerOp, e.PairsPerSec)
		return e
	}
	entries := []entry{
		run("ComputeFull", "reference", BenchmarkComputeFull),
		run("ComputeSparse", "reference", BenchmarkComputeSparse),
		run("BlockedRow", "blocked", BenchmarkBlockedRow),
		run("BlockedSparseRow", "blocked", BenchmarkBlockedSparseRow),
		run("BlockedPlane", "blocked", BenchmarkBlockedPlane),
		run("AnalyzeRegionPaperChunk", "blocked", BenchmarkAnalyzeRegionPaperChunk),
	}
	byWorkers := map[int]entry{}
	for _, w := range []int{1, 2, 4, 8} {
		// Workers>1 run the blocked kernel; workers=1 is the sequential
		// reference.
		kernel := "blocked"
		if w == 1 {
			kernel = "reference"
		}
		e := run(fmt.Sprintf("AnalyzeRegionWorkers/%d", w), kernel, benchAnalyzeRegion(w))
		byWorkers[w] = e
		entries = append(entries, e)
	}
	doc := struct {
		GeneratedBy string             `json:"generated_by"`
		Host        map[string]any     `json:"host"`
		Unit        string             `json:"unit"`
		Benchmarks  []entry            `json:"benchmarks"`
		Speedups    map[string]float64 `json:"speedups"`
		Notes       []string           `json:"notes"`
	}{
		GeneratedBy: "go test -run TestWriteKernelBenchJSON (HARALICK4D_BENCH_OUT)",
		Host: map[string]any{
			"goos":       runtime.GOOS,
			"goarch":     runtime.GOARCH,
			"cpus":       runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
		},
		Unit:       "pairs_per_sec counts logical voxel-pair accumulations (pairsPerROI x ROIs) per second",
		Benchmarks: entries,
		Speedups: map[string]float64{
			"blocked_row_vs_compute_full":   entries[2].PairsPerSec / entries[0].PairsPerSec,
			"blocked_plane_vs_blocked_row":  entries[4].PairsPerSec / entries[2].PairsPerSec,
			"analyze_region_workers_2_vs_1": byWorkers[2].PairsPerSec / byWorkers[1].PairsPerSec,
			"analyze_region_workers_4_vs_1": byWorkers[4].PairsPerSec / byWorkers[1].PairsPerSec,
			"analyze_region_workers_8_vs_1": byWorkers[8].PairsPerSec / byWorkers[1].PairsPerSec,
		},
		Notes: []string{
			"host metadata (cpus, gomaxprocs) is captured at bench time on the generating machine via runtime.NumCPU()/runtime.GOMAXPROCS(0)",
			"the kernel field distinguishes reference rows (per-direction dense recompute of compute.go) from blocked rows (direction-batched kernel of blocked.go)",
			"workers=1 is the sequential reference kernel: full recompute per ROI, no goroutines, no window reuse",
			"workers>1 stripe raster rows across a worker pool running the blocked kernel",
			"BlockedRow/BlockedSparseRow/BlockedPlane pay a merging snapshot per position, so the comparison with ComputeFull is honest",
			"BlockedPlane scans a whole (z,t) plane through the resident row (later rows stepped from the row above, not slid); blocked_plane_vs_blocked_row is measured in the same run",
			"AnalyzeRegionPaperChunk is one 48x48x6x6 paper-geometry chunk through the whole parallel path (2 workers, features included)",
			"on a single-CPU host (gomaxprocs above) the workers>1 gain comes from kernel efficiency, not hardware parallelism; multi-core hosts stack both",
			"outputs are bit-identical at every worker count (internal/core TestParallelMatchesSequential)",
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
