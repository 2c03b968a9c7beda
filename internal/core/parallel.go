package core

import (
	"fmt"
	"runtime"
	"sync"

	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/volume"
)

// This file implements the parallel intra-chunk compute path. The unit of
// work distribution is one ROI raster row (fixed y, z, t — all origins along
// x): rows are split into contiguous blocks, one block per worker, so the
// per-worker results concatenate back into global raster order. Each worker
// owns its own scratch matrix, sparse builder and feature calculator, so the
// hot loop performs no allocation and shares no mutable state. Workers run
// the blocked kernel (glcm.Blocked): only the first ROI of each worker's
// (z,t) plane is accumulated from scratch, and the rest of that plane's
// first raster row is slid along x. Every further row is built from the
// row above: where the planner keeps a resident row, each position's
// histogram is stepped one row along y (glcm.Blocked.StepSlot); otherwise
// the row's first ROI is stepped and the rest slid along x again.
// Geometries the blocked planner rejects fall back to a dense recompute of
// every ROI (glcm.ComputeFull / glcm.ComputeSparseScratch).
//
// Workers == 1 never enters this file's machinery: it runs the untouched
// sequential kernel (ScanRegion), which remains the verification oracle.
// Because co-occurrence counts are integers and each matrix's features are
// computed independently, the results are bit-identical across worker
// counts.

// EffectiveWorkers resolves the Workers knob to a concrete worker count:
// the knob itself when positive, GOMAXPROCS when zero.
func (c *Config) EffectiveWorkers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// spanWorkers bounds the effective worker count by the number of ROI raster
// rows in the origin box, the grain of work distribution.
func spanWorkers(cfg *Config, origins volume.Box) int {
	shape := origins.Shape()
	rows := shape[1] * shape[2] * shape[3]
	w := cfg.EffectiveWorkers()
	if w > rows {
		w = rows
	}
	if w < 1 {
		w = 1
	}
	return w
}

// blockRange splits n units into parts contiguous blocks and returns the
// half-open range of block i.
func blockRange(n, parts, i int) (lo, hi int) {
	base, rem := n/parts, n%parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// runRows executes fn over contiguous row blocks: inline for a single
// worker, on one goroutine per block otherwise. It returns the first
// non-nil error in block order.
func runRows(rows, workers int, fn func(w, r0, r1 int) error) error {
	if workers <= 1 {
		return fn(0, 0, rows)
	}
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		r0, r1 := blockRange(rows, workers, w)
		if r0 >= r1 {
			continue
		}
		wg.Add(1)
		go func(w, r0, r1 int) {
			defer wg.Done()
			errs[w] = fn(w, r0, r1)
		}(w, r0, r1)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// rowScanner is one worker's kernel state: the scan geometry plus its own
// scratch matrix or builder. Matrices handed to the visitor are reused
// across calls and must not be retained, exactly like ScanRegion.
type rowScanner struct {
	cfg      *Config
	dirs     []glcm.Direction
	data     []uint8
	strides  [4]int
	lo       [4]int // origins.Lo
	regionLo [4]int
	sy, sz   int
	nx       int
	pairs    uint64 // logical pairs per matrix (Total/2)
	full     *glcm.Full
	sparse   *glcm.Sparse
	builder  *glcm.SparseBuilder
	blocked  *glcm.Blocked // non-nil when the blocked kernel is planned
}

// newRowScanner builds a scanner for the given scan; sparseRep selects the
// matrix representation (independently of cfg.Representation, because the
// batch builders fix the representation by API).
//
// When blocked is set the scanner plans the cache-blocked, direction-batched
// kernel (pooled across chunks via glcm.GetBlocked) with a slide stride of
// 1, the distance between consecutive raster origins; geometries the
// planner rejects, and scanners built without blocked, recompute every ROI
// with the dense reference kernels. Callers must release() the scanner when
// done so the pooled scratch is recycled.
func newRowScanner(region *volume.Region, origins volume.Box, cfg *Config, sparseRep, blocked bool) *rowScanner {
	shape := origins.Shape()
	dirs := cfg.DirectionSet()
	s := &rowScanner{
		cfg:      cfg,
		dirs:     dirs,
		data:     region.Data,
		strides:  volume.Strides(region.Box.Shape()),
		lo:       origins.Lo,
		regionLo: region.Box.Lo,
		sy:       shape[1],
		sz:       shape[2],
		nx:       shape[0],
		pairs:    glcm.PairCount(cfg.ROI, dirs),
	}
	if blocked {
		k := glcm.GetBlocked(cfg.GrayLevels)
		if k.Plan(s.strides, cfg.ROI, dirs, 1) {
			s.blocked = k
		} else {
			glcm.PutBlocked(k)
		}
	}
	if sparseRep {
		s.sparse = glcm.NewSparse(cfg.GrayLevels)
		if s.blocked == nil {
			s.builder = glcm.NewSparseBuilder(cfg.GrayLevels)
		}
	} else {
		s.full = glcm.NewFull(cfg.GrayLevels)
	}
	return s
}

// release returns the scanner's pooled kernel state; the scanner must not
// be used afterwards.
func (s *rowScanner) release() {
	if s.blocked != nil {
		glcm.PutBlocked(s.blocked)
		s.blocked = nil
	}
}

// scan visits the origins of rows [r0, r1) in raster order. Stats counts
// the pairs each matrix represents, not the accumulations performed — the
// blocked kernel performs far fewer, and that gap is the optimization.
func (s *rowScanner) scan(r0, r1 int, stats *Stats, visit ROIVisitor) error {
	for r := r0; r < r1; r++ {
		p := [4]int{
			s.lo[0],
			s.lo[1] + r%s.sy,
			s.lo[2] + (r/s.sy)%s.sz,
			s.lo[3] + r/(s.sy*s.sz),
		}
		for i := 0; i < s.nx; i++ {
			p[0] = s.lo[0] + i
			rel := [4]int{p[0] - s.regionLo[0], p[1] - s.regionLo[1], p[2] - s.regionLo[2], p[3] - s.regionLo[3]}
			if s.blocked != nil {
				// The planner guarantees strides[0] == 1, so the flat origin
				// of the previous window is base-1, and that of the same
				// window one row up base-strides[1].
				base := rel[0] + rel[1]*s.strides[1] + rel[2]*s.strides[2] + rel[3]*s.strides[3]
				s.blockedAt(r > r0 && r%s.sy != 0, i, base, stats)
			} else if s.sparse != nil {
				s.builder.Clear()
				glcm.ComputeSparseScratch(s.data, s.strides, rel, s.cfg.ROI, s.dirs, s.builder)
				s.builder.Snapshot(s.sparse)
				if stats != nil {
					stats.StoredEntries += int64(s.sparse.NonZero())
				}
			} else {
				s.full.Reset()
				glcm.ComputeFull(s.data, s.strides, rel, s.cfg.ROI, s.dirs, s.full)
				if stats != nil {
					stats.StoredEntries += int64(s.full.NonZero())
				}
			}
			if stats != nil {
				stats.ROIs++
				stats.Pairs += s.pairs
			}
			if err := visit(p, s.full, s.sparse); err != nil {
				return err
			}
		}
	}
	return nil
}

// blockedAt brings the blocked kernel to the ROI at x position i of the
// current raster row, whose flat origin is base, and snapshots it into the
// visitor's matrix. step says the row above is resident in this worker: it
// is false on a (z,t) plane's first row and on the first row of a worker
// block that starts mid-plane, which accumulate at the row start and slide
// along x, storing every position (or, without a resident row, just the
// first). On later rows a resident kernel steps every slot one row along
// y; otherwise slot 0 is stepped, loaded and slid along x as before.
func (s *rowScanner) blockedAt(step bool, i, base int, stats *Stats) {
	k := s.blocked
	resident := k.Resident()
	switch {
	case step && (resident || i == 0):
		k.StepSlot(s.data, base-s.strides[1], i)
		if !resident {
			k.Load()
		}
	case i > 0:
		k.Slide(s.data, base-1)
	default:
		k.Reset()
		k.Accumulate(s.data, base)
	}
	if !step && (resident || i == 0) {
		k.Store(i)
	}
	if s.sparse != nil {
		if resident {
			k.SnapshotSlotSparse(i, s.sparse)
		} else {
			k.SnapshotSparse(s.sparse)
		}
		if stats != nil {
			stats.StoredEntries += int64(s.sparse.NonZero())
		}
		return
	}
	if resident {
		k.SnapshotSlotFull(i, s.full)
	} else {
		k.SnapshotFull(s.full)
	}
	if stats != nil {
		stats.StoredEntries += int64(s.full.NonZero())
	}
}

// mergeStats folds per-worker counters into stats (nil-safe).
func mergeStats(stats *Stats, local []Stats) {
	if stats == nil {
		return
	}
	for i := range local {
		stats.ROIs += local[i].ROIs
		stats.Pairs += local[i].Pairs
		stats.StoredEntries += local[i].StoredEntries
	}
}

// AnalyzeRegionInto is AnalyzeRegion writing into caller-provided output
// regions — one per configured feature, each spanning exactly the origin
// box — so callers can pool the float backing across chunks. With an
// effective worker count above one, the ROI raster rows are striped across
// a worker pool running the blocked kernel; at one, it runs the sequential
// reference path (ScanRegion), the verification oracle.
func AnalyzeRegionInto(region *volume.Region, origins volume.Box, cfg *Config, stats *Stats, out []*volume.FloatRegion) error {
	if region == nil {
		return ErrNilRegion
	}
	if len(out) != len(cfg.Features) {
		return fmt.Errorf("core: %d output regions for %d features", len(out), len(cfg.Features))
	}
	for i, fr := range out {
		if fr == nil || fr.Box != origins || len(fr.Data) != origins.NumVoxels() {
			return fmt.Errorf("core: output region %d does not span origins %v", i, origins)
		}
	}
	zeroSkip := cfg.Representation == FullMatrix
	workers := spanWorkers(cfg, origins)
	if workers <= 1 {
		calc := features.NewCalculator(cfg.GrayLevels, cfg.Features)
		return ScanRegion(region, origins, cfg, stats, func(origin [4]int, full *glcm.Full, sparse *glcm.Sparse) error {
			vals, err := calcValues(calc, full, sparse, zeroSkip)
			if err != nil {
				return err
			}
			for i, v := range vals {
				out[i].Set(origin, v)
			}
			return nil
		})
	}
	if err := checkOrigins(region, origins, cfg); err != nil {
		return err
	}
	shape := origins.Shape()
	rows := shape[1] * shape[2] * shape[3]
	local := make([]Stats, workers)
	err := runRows(rows, workers, func(w, r0, r1 int) error {
		sc := newRowScanner(region, origins, cfg, cfg.Representation == SparseMatrix, true)
		defer sc.release()
		calc := features.NewCalculator(cfg.GrayLevels, cfg.Features)
		var st *Stats
		if stats != nil {
			st = &local[w]
		}
		return sc.scan(r0, r1, st, func(origin [4]int, full *glcm.Full, sparse *glcm.Sparse) error {
			vals, err := calcValues(calc, full, sparse, zeroSkip)
			if err != nil {
				return err
			}
			// Workers write disjoint elements of the shared backing: every
			// origin maps to a unique index.
			for i, v := range vals {
				out[i].Set(origin, v)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	mergeStats(stats, local)
	return nil
}

func calcValues(calc *features.Calculator, full *glcm.Full, sparse *glcm.Sparse, zeroSkip bool) ([]float64, error) {
	if sparse != nil {
		return calc.FromSparse(sparse)
	}
	return calc.FromFull(full, zeroSkip)
}
