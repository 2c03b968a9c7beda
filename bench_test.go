package haralick4d

// The benchmark harness regenerates every figure of the paper's evaluation
// section (there are no tables): Figures 7a, 7b, 8, 9, 10 and 11, the two
// quantified in-text claims (sparse density, zero-skip speedup), the IIC
// replication observation, and the design-choice ablations from DESIGN.md.
// Each figure bench executes its complete experiment on the simulated
// cluster at the tiny scale and logs the regenerated series (run with
// `go test -bench=. -benchmem -v` to see them); cmd/experiments regenerates
// the same figures at larger scales.

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"haralick4d/internal/core"
	"haralick4d/internal/experiments"
	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

var (
	benchEnvOnce sync.Once
	benchEnv     *experiments.Env
	benchEnvErr  error
	benchEnvDir  string
)

func figureEnv(b *testing.B) *experiments.Env {
	b.Helper()
	benchEnvOnce.Do(func() {
		benchEnvDir, benchEnvErr = os.MkdirTemp("", "haralick4d-bench")
		if benchEnvErr != nil {
			return
		}
		benchEnv, benchEnvErr = experiments.Setup(experiments.TinyScale(), benchEnvDir)
		if benchEnv != nil {
			benchEnv.Repeats = 1
		}
	})
	if benchEnvErr != nil {
		b.Fatal(benchEnvErr)
	}
	return benchEnv
}

func benchFigure(b *testing.B, id string) {
	env := figureEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.ByID(env, id)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + fig.String())
		}
	}
}

// BenchmarkFig7aHMPFullVsSparse regenerates Figure 7(a): HMP implementation
// execution time, full vs sparse matrix representation, 1–16 processors.
func BenchmarkFig7aHMPFullVsSparse(b *testing.B) { benchFigure(b, "7a") }

// BenchmarkFig7bSplitFullVsSparse regenerates Figure 7(b): split HCC+HPC
// implementation, full vs sparse representation.
func BenchmarkFig7bSplitFullVsSparse(b *testing.B) { benchFigure(b, "7b") }

// BenchmarkFig8Colocation regenerates Figure 8: HCC+HPC co-located vs on
// separate processors vs the HMP implementation.
func BenchmarkFig8Colocation(b *testing.B) { benchFigure(b, "8") }

// BenchmarkFig9PerFilterTime regenerates Figure 9: the processing time of
// each filter of the split implementation as processors are added.
func BenchmarkFig9PerFilterTime(b *testing.B) { benchFigure(b, "9") }

// BenchmarkFig10Heterogeneous regenerates Figure 10: HMP vs split HCC+HPC
// across the heterogeneous PIII+XEON environment.
func BenchmarkFig10Heterogeneous(b *testing.B) { benchFigure(b, "10") }

// BenchmarkFig11Scheduling regenerates Figure 11: round-robin vs
// demand-driven buffer scheduling on the XEON+OPTERON environment.
func BenchmarkFig11Scheduling(b *testing.B) { benchFigure(b, "11") }

// BenchmarkSparseDensity regenerates the §4.4.1 sparsity statistic (the
// paper's "10.7 non-zero entries per matrix, about 1%").
func BenchmarkSparseDensity(b *testing.B) { benchFigure(b, "density") }

// BenchmarkZeroSkipAblation regenerates the §4.4.1 zero-skip claim (the
// paper's "one-fourth the time").
func BenchmarkZeroSkipAblation(b *testing.B) { benchFigure(b, "zeroskip") }

// BenchmarkIICScaling regenerates the §5.2 explicit-IIC-replication
// observation.
func BenchmarkIICScaling(b *testing.B) { benchFigure(b, "iic") }

// BenchmarkDirectionsAblation sweeps the direction-set size (DESIGN.md
// ablation).
func BenchmarkDirectionsAblation(b *testing.B) { benchFigure(b, "dirs") }

// BenchmarkChunkSizeAblation sweeps the IIC-to-TEXTURE chunk size (the
// §5.1 overlap/distribution tradeoff).
func BenchmarkChunkSizeAblation(b *testing.B) { benchFigure(b, "chunk") }

// BenchmarkDeclusteringAblation compares slice declustering policies (§4.2).
func BenchmarkDeclusteringAblation(b *testing.B) { benchFigure(b, "decluster") }

// ----- kernel microbenchmarks -----

func phantomGrid(b *testing.B, dims [4]int, g int) *volume.Grid {
	b.Helper()
	v := GeneratePhantom(PhantomConfig{Dims: dims, Seed: 3})
	return volume.Requantize(v, g)
}

// BenchmarkGLCMFull measures dense co-occurrence accumulation for one paper
// ROI (16×16×3×3, 40 directions, G=32).
func BenchmarkGLCMFull(b *testing.B) {
	grid := phantomGrid(b, [4]int{32, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	m := glcm.NewFull(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		glcm.ComputeFull(grid.Data, grid.Strides(), [4]int{}, [4]int{16, 16, 3, 3}, dirs, m)
	}
}

// BenchmarkGLCMSparseScratch measures the production sparse build (dense
// scratch + touched list) for the same ROI.
func BenchmarkGLCMSparseScratch(b *testing.B) {
	grid := phantomGrid(b, [4]int{32, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	bu := glcm.NewSparseBuilder(32)
	s := glcm.NewSparse(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		glcm.ComputeSparseScratch(grid.Data, grid.Strides(), [4]int{}, [4]int{16, 16, 3, 3}, dirs, bu)
		bu.Flush(s)
	}
}

// BenchmarkGLCMSparseInsertion measures the direct sorted-insertion sparse
// build (the build-strategy ablation baseline).
func BenchmarkGLCMSparseInsertion(b *testing.B) {
	grid := phantomGrid(b, [4]int{32, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	s := glcm.NewSparse(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Reset()
		glcm.ComputeSparse(grid.Data, grid.Strides(), [4]int{}, [4]int{16, 16, 3, 3}, dirs, s)
	}
}

func benchMatrices(b *testing.B) ([]*glcm.Full, []*glcm.Sparse) {
	b.Helper()
	grid := phantomGrid(b, [4]int{32, 32, 8, 8}, 32)
	cfg := &core.Config{ROI: [4]int{16, 16, 3, 3}, GrayLevels: 32}
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, grid.Dims), Data: grid.Data}
	var fulls []*glcm.Full
	err := core.ScanRegion(region, volume.BoxAt([4]int{2, 2, 1, 1}, [4]int{8, 8, 2, 2}), cfg, nil,
		func(_ [4]int, m *glcm.Full, _ *glcm.Sparse) error {
			fulls = append(fulls, &glcm.Full{G: m.G, Counts: append([]uint32(nil), m.Counts...), Total: m.Total})
			return nil
		})
	if err != nil {
		b.Fatal(err)
	}
	sparses := make([]*glcm.Sparse, len(fulls))
	for i, m := range fulls {
		sparses[i] = m.Sparse()
	}
	return fulls, sparses
}

// BenchmarkFeaturesFullNoSkip measures parameter calculation over the dense
// matrix without the zero test.
func BenchmarkFeaturesFullNoSkip(b *testing.B) {
	fulls, _ := benchMatrices(b)
	calc := features.NewCalculator(32, features.PaperSet())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calc.FromFull(fulls[i%len(fulls)], false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturesFullZeroSkip measures the paper's zero-skip optimization.
func BenchmarkFeaturesFullZeroSkip(b *testing.B) {
	fulls, _ := benchMatrices(b)
	calc := features.NewCalculator(32, features.PaperSet())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calc.FromFull(fulls[i%len(fulls)], true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturesSparse measures parameter calculation directly from the
// sparse form.
func BenchmarkFeaturesSparse(b *testing.B) {
	_, sparses := benchMatrices(b)
	calc := features.NewCalculator(32, features.PaperSet())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calc.FromSparse(sparses[i%len(sparses)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFeaturesAllFourteen measures the full f1–f14 set including the
// maximal correlation coefficient's eigenproblem.
func BenchmarkFeaturesAllFourteen(b *testing.B) {
	fulls, _ := benchMatrices(b)
	calc := features.NewCalculator(32, features.All())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := calc.FromFull(fulls[i%len(fulls)], true); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- sliding-window and worker-pool kernel benchmarks -----
//
// These probe the parallel intra-chunk kernel (internal/core/parallel.go,
// internal/glcm/sliding.go). Every benchmark reports pairs/s — voxel-pair
// accumulations per second, counting *logical* pairs (pairsPerROI × ROIs) so
// the sliding kernel's savings show up as higher throughput rather than a
// different workload. TestWriteKernelBenchJSON records them in
// BENCH_kernels.json.

// reportPairs attaches the logical voxel-pair throughput of the timed
// section.
func reportPairs(b *testing.B, pairsPerOp uint64) {
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(pairsPerOp)*float64(b.N)/sec, "pairs/s")
	}
}

// BenchmarkComputeFull measures the full-recompute dense kernel for one
// paper ROI (16×16×3×3, 40 directions, G=32) — the per-ROI cost the sliding
// kernel avoids.
func BenchmarkComputeFull(b *testing.B) {
	grid := phantomGrid(b, [4]int{32, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	roi := [4]int{16, 16, 3, 3}
	m := glcm.NewFull(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		glcm.ComputeFull(grid.Data, grid.Strides(), [4]int{}, roi, dirs, m)
	}
	reportPairs(b, glcm.PairCount(roi, dirs))
}

// BenchmarkComputeSparse measures the full-recompute sparse kernel (dense
// scratch + touched list, then Flush) for the same ROI.
func BenchmarkComputeSparse(b *testing.B) {
	grid := phantomGrid(b, [4]int{32, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	roi := [4]int{16, 16, 3, 3}
	bu := glcm.NewSparseBuilder(32)
	s := glcm.NewSparse(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		glcm.ComputeSparseScratch(grid.Data, grid.Strides(), [4]int{}, roi, dirs, bu)
		bu.Flush(s)
	}
	reportPairs(b, glcm.PairCount(roi, dirs))
}

// BenchmarkSlidingWindow measures one whole raster row scanned with the
// sliding-window kernel: a full accumulation at the row start, then one
// incremental SlideFull per remaining origin. The grid is 256 voxels wide —
// the paper dataset's row length — so the row-start cost amortizes as it
// does in a real scan. pairs/s counts logical pairs (pairsPerROI ×
// positions), so it is directly comparable to BenchmarkComputeFull — the
// gap is the overlapping-window reuse win.
func BenchmarkSlidingWindow(b *testing.B) {
	grid := phantomGrid(b, [4]int{256, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	roi := [4]int{16, 16, 3, 3}
	if !glcm.Reusable(roi, 1, dirs) {
		b.Fatal("paper ROI should be reusable at stride 1")
	}
	nx := grid.Dims[0] - roi[0] + 1
	m := glcm.NewFull(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Reset()
		glcm.ComputeFull(grid.Data, grid.Strides(), [4]int{}, roi, dirs, m)
		for x := 0; x+1 < nx; x++ {
			glcm.SlideFull(grid.Data, grid.Strides(), [4]int{x, 0, 0, 0}, roi, 1, dirs, m)
		}
	}
	reportPairs(b, glcm.PairCount(roi, dirs)*uint64(nx))
}

// BenchmarkBlockedRow measures the same whole-raster-row scan as
// BenchmarkSlidingWindow on the blocked, direction-batched kernel — one
// Accumulate at the row start, one Slide per remaining origin — including a
// merging SnapshotFull at every position (the legacy kernel's matrix is live
// incrementally, so the snapshot is the blocked kernel's honest per-position
// cost). pairs/s counts the same logical pairs over the same grid, so the
// two rows compare directly.
func BenchmarkBlockedRow(b *testing.B) {
	grid := phantomGrid(b, [4]int{256, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	roi := [4]int{16, 16, 3, 3}
	nx := grid.Dims[0] - roi[0] + 1
	k := glcm.NewBlocked(32)
	if !k.Plan(grid.Strides(), roi, dirs, 1, 0) {
		b.Fatal("paper geometry should be supported by the blocked planner")
	}
	m := glcm.NewFull(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset()
		k.Accumulate(grid.Data, 0)
		k.SnapshotFull(m)
		for x := 0; x+1 < nx; x++ {
			k.Slide(grid.Data, x)
			k.SnapshotFull(m)
		}
	}
	reportPairs(b, glcm.PairCount(roi, dirs)*uint64(nx))
}

// BenchmarkBlockedSparseRow is BenchmarkBlockedRow extracting the sparse
// representation at every position: the blocked scratch emits the sorted
// entry list directly, with no touched-key tracking or sort.
func BenchmarkBlockedSparseRow(b *testing.B) {
	grid := phantomGrid(b, [4]int{256, 32, 8, 8}, 32)
	dirs := glcm.Directions(4, 1)
	roi := [4]int{16, 16, 3, 3}
	nx := grid.Dims[0] - roi[0] + 1
	k := glcm.NewBlocked(32)
	if !k.Plan(grid.Strides(), roi, dirs, 1, 0) {
		b.Fatal("paper geometry should be supported by the blocked planner")
	}
	s := glcm.NewSparse(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Reset()
		k.Accumulate(grid.Data, 0)
		k.SnapshotSparse(s)
		for x := 0; x+1 < nx; x++ {
			k.Slide(grid.Data, x)
			k.SnapshotSparse(s)
		}
	}
	reportPairs(b, glcm.PairCount(roi, dirs)*uint64(nx))
}

// benchAnalyzeRegion returns an AnalyzeRegion benchmark pinned to one
// intra-chunk worker count and kernel mode (shared by
// BenchmarkAnalyzeRegionWorkers and the BENCH_kernels.json writer).
func benchAnalyzeRegion(workers int, kernel core.KernelMode) func(*testing.B) {
	return func(b *testing.B) {
		grid := phantomGrid(b, [4]int{24, 24, 6, 6}, 32)
		cfg := &core.Config{ROI: [4]int{8, 8, 3, 3}, GrayLevels: 32, Representation: core.SparseMatrix, Workers: workers, Kernel: kernel}
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		outDims, err := volume.OutputDims(grid.Dims, cfg.ROI)
		if err != nil {
			b.Fatal(err)
		}
		region := &volume.Region{Box: volume.BoxAt([4]int{}, grid.Dims), Data: grid.Data}
		origins := volume.BoxAt([4]int{}, outDims)
		pairs := glcm.PairCount(cfg.ROI, cfg.DirectionSet()) * uint64(origins.NumVoxels())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.AnalyzeRegion(region, origins, cfg, nil); err != nil {
				b.Fatal(err)
			}
		}
		reportPairs(b, pairs)
	}
}

// BenchmarkAnalyzeRegionWorkers sweeps the Workers knob over a full region
// scan (matrices + paper parameters). Workers=1 is the sequential
// full-recompute reference; workers>1 stripe raster rows across a pool
// running the blocked direction-batched kernel (the default), so throughput
// rises even on a single-CPU host. Outputs are bit-identical at every
// setting (see internal/core TestParallelMatchesSequential and
// TestKernelModesAgree).
func BenchmarkAnalyzeRegionWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%d", w), benchAnalyzeRegion(w, core.KernelAuto))
	}
}

// BenchmarkAnalyzeRegionLegacy is the same sweep with the legacy sliding
// per-direction kernels forced — the A/B baseline for the blocked kernel.
func BenchmarkAnalyzeRegionLegacy(b *testing.B) {
	for _, w := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("%d", w), benchAnalyzeRegion(w, core.KernelLegacy))
	}
}

// BenchmarkAnalyzeRegionPaperChunk measures one chunk of the paper's
// analysis as the texture filter runs it: a 48×48×6×6 chunk, ROI 16×16×3×3,
// G=32, all 40 4D directions, full matrices with zero-skip, the paper's four
// features, 2 intra-chunk workers. It covers the whole parallel path —
// row-start accumulation, slides, the merging flush and the feature pass —
// so it moves with every part of the blocked kernel, not just the slide.
func BenchmarkAnalyzeRegionPaperChunk(b *testing.B) {
	grid := phantomGrid(b, [4]int{48, 48, 6, 6}, 32)
	cfg := core.DefaultConfig()
	cfg.Workers = 2
	if err := cfg.Validate(); err != nil {
		b.Fatal(err)
	}
	outDims, err := volume.OutputDims(grid.Dims, cfg.ROI)
	if err != nil {
		b.Fatal(err)
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, grid.Dims), Data: grid.Data}
	origins := volume.BoxAt([4]int{}, outDims)
	out := make([]*volume.FloatRegion, len(cfg.Features))
	for i := range out {
		out[i] = volume.NewFloatRegion(origins)
	}
	pairs := glcm.PairCount(cfg.ROI, cfg.DirectionSet()) * uint64(origins.NumVoxels())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.AnalyzeRegionInto(region, origins, &cfg, nil, out); err != nil {
			b.Fatal(err)
		}
	}
	reportPairs(b, pairs)
}

// BenchmarkAnalyzeParallel measures end-to-end in-memory analysis through
// the local pipeline with all CPUs.
func BenchmarkAnalyzeParallel(b *testing.B) {
	v := GeneratePhantom(PhantomConfig{Dims: [4]int{32, 32, 6, 6}, Seed: 5})
	opts := &Options{ROI: [4]int{6, 6, 2, 2}, GrayLevels: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(v, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRequantize measures the intensity requantization pass.
func BenchmarkRequantize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	v := NewVolume([4]int{64, 64, 8, 8})
	for i := range v.Data {
		v.Data[i] = uint16(rng.Intn(4096))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		volume.Requantize(v, 32)
	}
}
