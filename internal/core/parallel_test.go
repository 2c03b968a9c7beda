package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

func randRegion(rng *rand.Rand, g int) (*volume.Region, [4]int) {
	dims := [4]int{8 + rng.Intn(20), 6 + rng.Intn(10), 3 + rng.Intn(4), 3 + rng.Intn(4)}
	data := make([]uint8, dims[0]*dims[1]*dims[2]*dims[3])
	for i := range data {
		data[i] = uint8(rng.Intn(g))
	}
	return &volume.Region{Box: volume.BoxAt([4]int{}, dims), Data: data}, dims
}

func randConfig(rng *rand.Rand, dims [4]int) Config {
	cfg := Config{
		ROI: [4]int{
			2 + rng.Intn(dims[0]-2),
			2 + rng.Intn(dims[1]-2),
			1 + rng.Intn(dims[2]-1),
			1 + rng.Intn(dims[3]-1),
		},
		GrayLevels:     2 + rng.Intn(30),
		NDim:           1 + rng.Intn(4),
		Distance:       1,
		Representation: Representation(rng.Intn(3)),
		Features:       randFeatures(rng),
	}
	if rng.Intn(2) == 0 {
		cfg.Directions = glcm.AxisDirections(4, 1)
	}
	return cfg
}

// randFeatures draws a feature set that selects a different part of the
// calculator's work: everything, the paper's four (no entropy sum), the
// entropy sum alone, the HXY pass (f12/f13) and the Q eigenproblem (f14).
func randFeatures(rng *rand.Rand) []features.Feature {
	sets := [][]features.Feature{
		features.All(),
		features.PaperSet(),
		{features.Entropy},
		{features.InfoCorrelation1, features.InfoCorrelation2},
		{features.MaxCorrelationCoeff},
	}
	return sets[rng.Intn(len(sets))]
}

// statsArg returns stats for odd runs and nil for even ones. The property
// tests alternate it over their worker counts, so every draw runs both with
// and without stats collection, which must not change the path taken or its
// results.
func statsArg(stats *Stats, run int) *Stats {
	if run%2 == 1 {
		return stats
	}
	return nil
}

// TestParallelMatchesSequential is the property test of the parallel path:
// for randomized dims, ROI, gray levels, direction set, representation and
// feature set, every worker count must produce bit-identical feature values
// and identical Stats to the sequential reference (Workers = 1), with and
// without stats collection.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 25; iter++ {
		cfg := Config{}
		var region *volume.Region
		var dims [4]int
		for {
			region, dims = randRegion(rng, 32)
			cfg = randConfig(rng, dims)
			if err := cfg.Validate(); err == nil {
				break
			}
		}
		for i := range region.Data {
			region.Data[i] %= uint8(cfg.GrayLevels)
		}
		outDims, err := volume.OutputDims(dims, cfg.ROI)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		origins := volume.BoxAt([4]int{}, outDims)

		ref := cfg
		ref.Workers = 1
		var refStats Stats
		want, err := AnalyzeRegion(region, origins, &ref, &refStats)
		if err != nil {
			t.Fatalf("iter %d: sequential: %v", iter, err)
		}
		if wantPairs := refStats.Pairs; wantPairs != uint64(refStats.ROIs)*glcm.PairCount(cfg.ROI, cfg.DirectionSet()) {
			t.Fatalf("iter %d: stats pairs %d inconsistent with %d ROIs", iter, wantPairs, refStats.ROIs)
		}

		for run, workers := range []int{2, 3, 4, 8} {
			pcfg := cfg
			pcfg.Workers = workers
			var stats Stats
			st := statsArg(&stats, run)
			got, err := AnalyzeRegion(region, origins, &pcfg, st)
			if err != nil {
				t.Fatalf("iter %d workers %d: %v", iter, workers, err)
			}
			if st != nil && stats != refStats {
				t.Fatalf("iter %d workers %d: stats %+v, want %+v", iter, workers, stats, refStats)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i].Data, want[i].Data) {
					t.Fatalf("iter %d workers %d stats %v: feature %v (%v) diverged from sequential reference",
						iter, workers, st != nil, cfg.Features[i], cfg.Representation)
				}
			}
		}
	}
}

// TestBatchesMatchSequential checks that the batch builders produce
// value-identical matrices (and Stats) at every worker count, with and
// without stats collection, and that features computed from the batch
// matrices — as the split implementation's HPC filter does — match the
// sequential AnalyzeRegion for the drawn feature set.
func TestBatchesMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 15; iter++ {
		cfg := Config{}
		var region *volume.Region
		var dims [4]int
		for {
			region, dims = randRegion(rng, 32)
			cfg = randConfig(rng, dims)
			if err := cfg.Validate(); err == nil {
				break
			}
		}
		for i := range region.Data {
			region.Data[i] %= uint8(cfg.GrayLevels)
		}
		outDims, err := volume.OutputDims(dims, cfg.ROI)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		origins := volume.BoxAt([4]int{}, outDims)

		ref := cfg
		ref.Workers = 1
		var refStats Stats
		wantS, err := SparseBatch(region, origins, &ref, &refStats)
		if err != nil {
			t.Fatalf("iter %d: sparse reference: %v", iter, err)
		}
		var refFullStats Stats
		wantF, err := FullBatch(region, origins, &ref, &refFullStats)
		if err != nil {
			t.Fatalf("iter %d: full reference: %v", iter, err)
		}
		wantVals, err := AnalyzeRegion(region, origins, &ref, nil)
		if err != nil {
			t.Fatalf("iter %d: analysis reference: %v", iter, err)
		}

		for run, workers := range []int{2, 4, 7} {
			pcfg := cfg
			pcfg.Workers = workers
			var stats, fullStats Stats
			gotS, err := SparseBatch(region, origins, &pcfg, statsArg(&stats, run))
			if err != nil {
				t.Fatalf("iter %d workers %d: sparse: %v", iter, workers, err)
			}
			if run%2 == 1 && stats != refStats {
				t.Fatalf("iter %d workers %d: sparse stats %+v, want %+v", iter, workers, stats, refStats)
			}
			if len(gotS) != len(wantS) {
				t.Fatalf("iter %d workers %d: %d sparse matrices, want %d", iter, workers, len(gotS), len(wantS))
			}
			for k := range wantS {
				if err := gotS[k].Validate(); err != nil {
					t.Fatalf("iter %d workers %d: matrix %d invalid: %v", iter, workers, k, err)
				}
				if gotS[k].Total != wantS[k].Total || !reflect.DeepEqual(gotS[k].Entries, wantS[k].Entries) {
					t.Fatalf("iter %d workers %d: sparse matrix %d diverged", iter, workers, k)
				}
			}
			gotF, err := FullBatch(region, origins, &pcfg, statsArg(&fullStats, run))
			if err != nil {
				t.Fatalf("iter %d workers %d: full: %v", iter, workers, err)
			}
			if run%2 == 1 && fullStats != refFullStats {
				t.Fatalf("iter %d workers %d: full stats %+v, want %+v", iter, workers, fullStats, refFullStats)
			}
			if len(gotF) != len(wantF) {
				t.Fatalf("iter %d workers %d: %d full matrices, want %d", iter, workers, len(gotF), len(wantF))
			}
			for k := range wantF {
				if gotF[k].Total != wantF[k].Total || !reflect.DeepEqual(gotF[k].Counts, wantF[k].Counts) {
					t.Fatalf("iter %d workers %d: full matrix %d diverged", iter, workers, k)
				}
			}
			calc := features.NewCalculator(cfg.GrayLevels, cfg.Features)
			for k := range gotF {
				var sparse *glcm.Sparse
				if cfg.Representation == SparseMatrix {
					sparse = gotS[k]
				}
				vals, err := calcValues(calc, gotF[k], sparse, cfg.Representation == FullMatrix)
				if err != nil {
					t.Fatalf("iter %d workers %d: matrix %d: %v", iter, workers, k, err)
				}
				for i, v := range vals {
					if w := wantVals[i].Data[k]; math.Float64bits(v) != math.Float64bits(w) {
						t.Fatalf("iter %d workers %d: feature %v of matrix %d is %v, sequential analysis %v",
							iter, workers, cfg.Features[i], k, v, w)
					}
				}
			}
		}
	}
}

// TestRowBlocksCrossPlanes pins where the parallel scan may step rows: 13
// ROI rows per (z,t) plane over 2 planes split among 3 workers gives blocks
// of rows 0–8, 9–17 and 18–25, so the second block starts mid-plane (a row
// step would have no mark) and crosses into the next plane (the row step
// must not carry over), and the third starts mid-plane too. Every
// representation must match the sequential reference bit for bit.
func TestRowBlocksCrossPlanes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dims := [4]int{9, 15, 3, 2}
	data := make([]uint8, dims[0]*dims[1]*dims[2]*dims[3])
	for i := range data {
		data[i] = uint8(rng.Intn(16))
	}
	region := &volume.Region{Box: volume.BoxAt([4]int{}, dims), Data: data}
	for _, rep := range []Representation{FullMatrix, FullMatrixNoSkip, SparseMatrix} {
		cfg := Config{ROI: [4]int{4, 3, 2, 2}, GrayLevels: 16, NDim: 4, Distance: 1, Representation: rep, Features: features.All()}
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		outDims, err := volume.OutputDims(dims, cfg.ROI)
		if err != nil {
			t.Fatal(err)
		}
		if outDims[1] != 13 || outDims[2]*outDims[3] != 2 {
			t.Fatalf("origin box %v: want 13 rows per plane over 2 planes", outDims)
		}
		origins := volume.BoxAt([4]int{}, outDims)
		ref := cfg
		ref.Workers = 1
		var refStats Stats
		want, err := AnalyzeRegion(region, origins, &ref, &refStats)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workers = 3
		var stats Stats
		got, err := AnalyzeRegion(region, origins, &cfg, &stats)
		if err != nil {
			t.Fatal(err)
		}
		if stats != refStats {
			t.Fatalf("%v: stats %+v, want %+v", rep, stats, refStats)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Data, want[i].Data) {
				t.Fatalf("%v: feature %v diverged from sequential reference", rep, cfg.Features[i])
			}
		}
		wantF, err := FullBatch(region, origins, &ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotF, err := FullBatch(region, origins, &cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k := range wantF {
			if !reflect.DeepEqual(gotF[k].Counts, wantF[k].Counts) {
				t.Fatalf("%v: full batch matrix %d diverged", rep, k)
			}
		}
	}
}

// TestAnalyzeRegionIntoReuse checks that pooled output regions are refilled
// correctly on reuse (stale values must be overwritten).
func TestAnalyzeRegionIntoReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	region, dims := randRegion(rng, 8)
	cfg := Config{ROI: [4]int{4, 4, 2, 2}, GrayLevels: 8, NDim: 2, Distance: 1, Workers: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	outDims, err := volume.OutputDims(dims, cfg.ROI)
	if err != nil {
		t.Fatal(err)
	}
	origins := volume.BoxAt([4]int{}, outDims)
	want, err := AnalyzeRegion(region, origins, &cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*volume.FloatRegion, len(cfg.Features))
	for i := range out {
		out[i] = volume.NewFloatRegion(origins)
		for j := range out[i].Data {
			out[i].Data[j] = -1 // stale garbage that must be overwritten
		}
	}
	if err := AnalyzeRegionInto(region, origins, &cfg, nil, out); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !reflect.DeepEqual(out[i].Data, want[i].Data) {
			t.Fatalf("feature %v: reused output region diverged", cfg.Features[i])
		}
	}

	if err := AnalyzeRegionInto(region, origins, &cfg, nil, out[:1]); err == nil {
		t.Error("expected error for wrong output region count")
	}
	bad := []*volume.FloatRegion{volume.NewFloatRegion(volume.BoxAt([4]int{}, [4]int{1, 1, 1, 1}))}
	badCfg := cfg
	badCfg.Features = cfg.Features[:1]
	if err := AnalyzeRegionInto(region, origins, &badCfg, nil, bad); err == nil {
		t.Error("expected error for mismatched output region box")
	}
}

// TestValidateWorkersAndPairs covers the new Validate rejections and the
// CheckRegion helper.
func TestValidateWorkersAndPairs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for negative workers")
	}
	cfg = DefaultConfig()
	cfg.ROI = [4]int{1, 1, 1, 1}
	if err := cfg.Validate(); err == nil {
		t.Error("expected error for ROI admitting no voxel pairs")
	}
	cfg = DefaultConfig()
	cfg.ROI = [4]int{2, 1, 1, 1}
	cfg.Distance = 2
	if err := cfg.Validate(); err == nil {
		t.Error("expected error when every displacement exceeds the ROI")
	}
	cfg = DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := cfg.CheckRegion([4]int{256, 256, 32, 32}); err != nil {
		t.Errorf("CheckRegion rejected a containing region: %v", err)
	}
	if err := cfg.CheckRegion([4]int{8, 256, 32, 32}); err == nil {
		t.Error("CheckRegion accepted a region smaller than the ROI")
	}
	if cfg.EffectiveWorkers() < 1 {
		t.Error("EffectiveWorkers must be at least 1")
	}
	cfg.Workers = 6
	if cfg.EffectiveWorkers() != 6 {
		t.Error("explicit worker count not honored")
	}
}
