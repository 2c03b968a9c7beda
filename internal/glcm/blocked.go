package glcm

import (
	"math"
	"slices"
	"sync"
)

// This file contains the cache-blocked, direction-batched accumulation
// kernel — the production hot path for parallel scans. It restructures the
// per-direction kernels of compute.go around three ideas the CUDA
// GLCM literature gets its wins from, all of which translate to Go:
//
//   - Direction batching: all canonical directions accumulate into one
//     private scratch per raster pass over the ROI. Each direction's
//     validity along x/y/z/t is a contiguous interval precomputed at plan
//     time, so the accumulation loop is a branch-free interval sweep per
//     direction over an L1-resident ROI, and the incremental moves — the
//     slide along x, and the step from one raster row's first ROI to the
//     next's along y — are compiled into flat pair programs (precomputed
//     offset arrays) with no per-row dispatch at all.
//
//   - Privatized asymmetric scratch: pairs are accumulated into a private
//     dense histogram with a single write per pair — scratch[a·G+c] counts
//     the pair as observed, without the mirror write or the per-pair Total
//     update of Full.Add. The scratch is split into two banks and the hot
//     loops alternate banks between consecutive pairs: smooth images hit
//     the same cell repeatedly, and alternation breaks the resulting
//     store-to-load dependency chain (uint32 addition is mod 2^32, so bank
//     assignment — including transient per-bank underflow during slides —
//     cannot change the merged sum). The symmetric matrix the rest of the
//     system expects is produced once per ROI by a merging snapshot that
//     folds the banks and the two mirror cells together with additive row
//     decoding (no '/' or '%'). The snapshot also derives the sparse entry
//     list directly from the scratch scan, eliminating the touched-key
//     bookkeeping (two data-dependent branches per pair) of SparseBuilder
//     entirely.
//
//   - Quantization lookup table: the row-base product a·G is read from a
//     256-entry LUT filled once per kernel, so the inner loop performs no
//     multiplies. The LUT is exact (mul[v] = v·G), so out-of-range gray
//     levels still panic on the scratch bounds check exactly like the
//     reference kernels.
//
// The inner loops are written flat over precomputed neighbor strides with
// slice headers re-sliced to a common length so the compiler's bounds-check
// elimination fires for the voxel and LUT loads (verified with
// -gcflags=-d=ssa/check_bce; the scratch store keeps its check because its
// index is data-dependent — same as the reference kernels). All counts are
// integers, so every snapshot is bit-identical to the reference kernels'
// output; the sequential workers=1 path never uses this file and remains
// the verification oracle.

// dirPlan is one direction's precomputed geometry: the neighbor offset and
// the valid pair-anchor interval per coordinate (from pairBounds).
type dirPlan struct {
	off    int    // flat offset to the d-neighbor (strides[0] == 1)
	lo, hi [4]int // anchor bounds per coordinate: anchor and neighbor in the ROI
}

// Blocked is the blocked kernel's reusable state: the asymmetric scratch
// histogram, the multiplication LUT, the per-scan direction plan, and the
// compiled slide program. A Blocked is built for one gray-level count and
// planned for one (strides, ROI shape, direction set, stride) geometry;
// Accumulate/Slide/Snapshot may then be called for any number of ROIs.
// Values are pooled across chunks via GetBlocked/PutBlocked. Not safe for
// concurrent use — each worker owns one.
type Blocked struct {
	g      int
	counts []uint32 // 2 banks of G×G asymmetric scratch: counts[b*g*g+a*g+c] pairs observed as (a, c)
	mul    []uint16 // mul[v] = v*g, 256 entries ((g-1)*g+255 fits uint16 at g=256)
	pairs  uint64   // pairs currently accumulated (matrix Total is 2·pairs)

	strides [4]int
	plans   []dirPlan

	// The compiled programs, replayed as flat loops: the x slide removes
	// the departing x-slab's pairs and adds the entering one's; the row
	// step does the same for the y-slab one row down. The slabs are tiny
	// next to the ROI, so loop-nest and dispatch overhead would otherwise
	// dominate them. Built once per Plan.
	slideSub, slideAdd pairProgram
	stepSub, stepAdd   pairProgram
	pk                 []int64 // plan-time pair gathering scratch

	// The marked scratch (2 banks, like counts): the pairs of the ROI at
	// the start of the current raster row, which StepRow advances to the
	// next row's start while the working scratch slides along x.
	mark      []uint32
	markPairs uint64
}

// pairProgram is a compiled pair list grouped by anchor voxel: group gi
// pairs anchor data[base+anchor[gi]] against neighbors data[base+nbr[j]]
// for j in [start[gi], start[gi+1]), all offsets relative to the origin the
// program is replayed at. A slab voxel pairs with every direction valid in
// its row, so grouping lets one anchor load and one LUT lookup serve the
// whole direction batch.
type pairProgram struct {
	anchor, start, nbr []int32
}

// NewBlocked returns an unplanned blocked kernel for g gray levels.
func NewBlocked(g int) *Blocked {
	if g < 1 || g > 256 {
		panic("glcm: gray levels must be in [1, 256]")
	}
	k := &Blocked{g: g, counts: make([]uint32, 2*g*g), mark: make([]uint32, 2*g*g), mul: make([]uint16, 256)}
	for v := range k.mul {
		k.mul[v] = uint16(v * g)
	}
	return k
}

// G returns the kernel's gray-level count.
func (k *Blocked) G() int { return k.g }

// Pairs returns the number of voxel pairs currently accumulated.
func (k *Blocked) Pairs() uint64 { return k.pairs }

// Plan prepares the kernel for scans of ROIs with the given shape on a grid
// with the given strides, accumulating the given directions, sliding by
// stride voxels along x and stepping by one row along y.
//
// Plan reports whether the geometry is supported: the grid must be laid out
// x-fastest (strides[0] == 1, which every volume/chunk view in this system
// is), the flat voxel offsets must fit the programs' int32 entries, and the
// direction set must be no larger than the canonical families (oversized
// sets gain nothing from batching). When it returns false the caller
// recomputes each ROI with the dense reference kernels (ComputeFull /
// ComputeSparseScratch), which accept anything.
func (k *Blocked) Plan(strides, shape [4]int, dirs []Direction, stride int) bool {
	if strides[0] != 1 || stride < 1 || len(dirs) > 64 {
		return false
	}
	k.strides = strides
	k.plans = k.plans[:0]
	sy, sz, st := strides[1], strides[2], strides[3]
	for _, d := range dirs {
		lo, hi, ok := pairBounds(shape, d)
		if !ok {
			continue // no valid pairs; direction dropped from the plan
		}
		off := d[0]*strides[0] + d[1]*strides[1] + d[2]*strides[2] + d[3]*strides[3]
		// Every program entry is a flat offset within one ROI extent grown
		// by the slide stride along x and one row along y; the extremes
		// bound them all.
		if maxFlat := (hi[3]-1)*st + (hi[2]-1)*sz + hi[1]*sy + hi[0] + stride; maxFlat+off > math.MaxInt32 || maxFlat > math.MaxInt32 {
			return false
		}
		k.plans = append(k.plans, dirPlan{off: off, lo: lo, hi: hi})
	}
	// The x slide's slabs are stride columns of each direction's anchor
	// box, the row step's one row; slabX does the arithmetic on either axis.
	for _, pr := range []struct {
		p        *pairProgram
		axis     int
		stride   int
		entering bool
	}{
		{&k.slideSub, 0, stride, false},
		{&k.slideAdd, 0, stride, true},
		{&k.stepSub, 1, 1, false},
		{&k.stepAdd, 1, 1, true},
	} {
		k.pk = k.gather(k.pk[:0], pr.axis, pr.stride, pr.entering)
		if len(k.pk) > math.MaxInt32 {
			return false
		}
		pr.p.compile(k.pk)
	}
	return true
}

// slabX returns the half-open ranges (relative to the ROI origin) of the
// departing and entering slabs when a pair box spanning [lo0, hi0) along
// one axis is shifted by stride: the old box is [lo0, hi0), the new box is
// [lo0+stride, hi0+stride), so [lo0, min(hi0, lo0+stride)) departs and
// [max(hi0, lo0+stride), hi0+stride) enters. The two slabs always have
// equal width, so the matrix total is invariant across a move.
func slabX(lo0, hi0, stride int) (subLo, subHi, addLo, addHi int) {
	subLo, subHi = lo0, lo0+stride
	if subHi > hi0 {
		subHi = hi0
	}
	addLo, addHi = hi0, hi0+stride
	if addLo < lo0+stride {
		addLo = lo0 + stride
	}
	return
}

// gather appends every planned direction's (anchor, neighbor) offset pairs,
// packed anchor<<32|neighbor, whose anchor lies in the direction's
// departing — or, with entering, its entering — slab for a move of stride
// voxels along axis (0 = x, 1 = y).
func (k *Blocked) gather(pk []int64, axis, stride int, entering bool) []int64 {
	sy, sz, st := k.strides[1], k.strides[2], k.strides[3]
	for _, p := range k.plans {
		lo, hi := p.lo, p.hi
		subLo, subHi, addLo, addHi := slabX(lo[axis], hi[axis], stride)
		if entering {
			lo[axis], hi[axis] = addLo, addHi
		} else {
			lo[axis], hi[axis] = subLo, subHi
		}
		for t := lo[3]; t < hi[3]; t++ {
			for z := lo[2]; z < hi[2]; z++ {
				rz := t*st + z*sz
				for y := lo[1]; y < hi[1]; y++ {
					row := rz + y*sy
					for x := lo[0]; x < hi[0]; x++ {
						pk = append(pk, int64(row+x)<<32|int64(row+x+p.off))
					}
				}
			}
		}
	}
	return pk
}

// compile turns gathered (anchor, neighbor) offset pairs — packed
// anchor<<32|neighbor, both non-negative — into the grouped program form:
// sorted unique anchors, a CSR-style start index, and the flat neighbor
// list. The program is rebuilt in place, reusing its capacity.
func (p *pairProgram) compile(pk []int64) {
	slices.Sort(pk)
	p.anchor, p.start, p.nbr = p.anchor[:0], p.start[:0], p.nbr[:0]
	prev := int32(-1)
	for _, q := range pk {
		a := int32(q >> 32)
		if a != prev {
			p.anchor = append(p.anchor, a)
			p.start = append(p.start, int32(len(p.nbr)))
			prev = a
		}
		p.nbr = append(p.nbr, int32(uint32(q)))
	}
	p.start = append(p.start, int32(len(p.nbr)))
}

// apply adds delta — 1, or ^uint32(0) to remove — to the scratch cell of
// every pair in the program, replayed at the origin dd[0], alternating the
// two banks of counts between consecutive pairs. Each group's anchor voxel
// is loaded and LUT-translated once for its whole direction batch.
func (p *pairProgram) apply(counts []uint32, g int, mul []uint16, dd []uint8, delta uint32) {
	gg := g * g
	c0, c1 := counts[:gg], counts[gg:2*gg]
	mul = mul[:256]
	starts, nbrs := p.start, p.nbr
	for gi, a := range p.anchor {
		ma := int(mul[dd[a]])
		grp := nbrs[starts[gi]:starts[gi+1]]
		for len(grp) >= 2 {
			c0[ma+int(dd[grp[0]])] += delta
			c1[ma+int(dd[grp[1]])] += delta
			grp = grp[2:]
		}
		if len(grp) >= 1 {
			c0[ma+int(dd[grp[0]])] += delta
		}
	}
}

// Reset discards all accumulated pairs. The plan is retained.
func (k *Blocked) Reset() {
	clear(k.counts)
	k.pairs = 0
}

// Accumulate rasters the ROI at flat offset base once, accumulating every
// planned direction's pairs: per direction, a branch-free interval sweep
// over its valid rows, each row one flat x run against the neighbor stride.
// The ROI rows stay L1-resident across the per-direction sweeps.
func (k *Blocked) Accumulate(data []uint8, base int) {
	sy, sz, st := k.strides[1], k.strides[2], k.strides[3]
	gg := k.g * k.g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	mul := k.mul[:256]
	for pi := range k.plans {
		p := &k.plans[pi]
		off := p.off
		lo0 := p.lo[0]
		w := p.hi[0] - lo0
		rows := 0
		for t := p.lo[3]; t < p.hi[3]; t++ {
			rt := base + t*st
			for z := p.lo[2]; z < p.hi[2]; z++ {
				rz := rt + z*sz
				for y := p.lo[1]; y < p.hi[1]; y++ {
					i0 := rz + y*sy + lo0
					av := data[i0 : i0+w]
					cv := data[i0+off : i0+off+w]
					cv = cv[:len(av)]
					for len(av) >= 2 && len(cv) >= 2 {
						c0[int(mul[av[0]])+int(cv[0])]++
						c1[int(mul[av[1]])+int(cv[1])]++
						av, cv = av[2:], cv[2:]
					}
					if len(av) >= 1 && len(cv) >= 1 {
						c0[int(mul[av[0]])+int(cv[0])]++
					}
					rows++
				}
			}
		}
		k.pairs += uint64(w) * uint64(rows)
	}
}

// Slide updates the scratch — which must hold the pairs of the ROI at flat
// offset base — to hold the pairs of the ROI slid by the planned stride
// along x, by replaying the compiled slide program: the departing slab's
// pairs are removed and the entering slab's added. The slabs have equal
// width, so the pair total is invariant. Exact integer update: the result
// is bit-identical to Reset + Accumulate at the new origin.
func (k *Blocked) Slide(data []uint8, base int) {
	// Rebase once so the hot loops index the program offsets directly.
	dd := data[base:]
	k.slideSub.apply(k.counts, k.g, k.mul, dd, ^uint32(0))
	k.slideAdd.apply(k.counts, k.g, k.mul, dd, 1)
}

// Mark records the scratch as the row anchor that StepRow advances from:
// call it after accumulating the first ROI of a raster row.
func (k *Blocked) Mark() {
	copy(k.mark, k.counts)
	k.markPairs = k.pairs
}

// StepRow advances the marked scratch — which must hold the pairs of the
// ROI at flat offset base — by one row along y, by replaying the compiled
// row-step program (the departing and entering y-slabs have equal size, so
// the pair total is invariant), and loads the result as the working
// scratch, still marked for the next step. The working scratch may have
// slid anywhere in between. Exact integer update: the result is
// bit-identical to Reset + Accumulate at base + strides[1], at the cost of
// two slabs instead of the whole ROI.
func (k *Blocked) StepRow(data []uint8, base int) {
	dd := data[base:]
	k.stepSub.apply(k.mark, k.g, k.mul, dd, ^uint32(0))
	k.stepAdd.apply(k.mark, k.g, k.mul, dd, 1)
	copy(k.counts, k.mark)
	k.pairs = k.markPairs
}

// SnapshotFull merges the asymmetric scratch into m, replacing its contents
// with the symmetric dense matrix: cell (i, j) = scratch(i, j) +
// scratch(j, i) for i ≠ j and 2·scratch(i, i) on the diagonal — exactly the
// counts the mirror-writing kernels would have produced. Row indexes are
// carried additively; the scratch is retained so sliding can continue.
func (k *Blocked) SnapshotFull(m *Full) {
	if m.G != k.g {
		panic("glcm: snapshot into a matrix of different gray-level count")
	}
	g := k.g
	gg := g * g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	out := m.Counts
	for i, ri := 0, 0; i < g; i, ri = i+1, ri+g {
		r0 := c0[ri : ri+g]
		r1 := c1[ri : ri+g]
		r1 = r1[:len(r0)]
		rowO := out[ri : ri+g]
		rowO[i] = 2 * (r0[i] + r1[i])
		for j, ji := i+1, ri+g+i; j < g; j, ji = j+1, ji+g {
			c := r0[j] + r1[j] + c0[ji] + c1[ji]
			rowO[j] = c
			out[ji] = c
		}
	}
	m.Total = 2 * k.pairs
}

// SnapshotSparse extracts the sparse matrix from the scratch, replacing s's
// contents: one (i ≤ j)-ordered scan over the scratch emits the non-zero
// merged cells directly, already sorted, with no touched-key tracking or
// key division. The scratch is retained so sliding can continue.
func (k *Blocked) SnapshotSparse(s *Sparse) {
	g := k.g
	gg := g * g
	s.Reset()
	s.G = g
	c0, c1 := k.counts[:gg], k.counts[gg:]
	for i, ri := 0, 0; i < g; i, ri = i+1, ri+g {
		r0 := c0[ri : ri+g]
		r1 := c1[ri : ri+g]
		r1 = r1[:len(r0)]
		if c := r0[i] + r1[i]; c != 0 {
			s.Entries = append(s.Entries, Entry{I: uint8(i), J: uint8(i), Count: 2 * c})
		}
		for j, ji := i+1, ri+g+i; j < g; j, ji = j+1, ji+g {
			if c := r0[j] + r1[j] + c0[ji] + c1[ji]; c != 0 {
				s.Entries = append(s.Entries, Entry{I: uint8(i), J: uint8(j), Count: c})
			}
		}
	}
	s.Total = 2 * k.pairs
}

// blockedPool recycles kernels — and with them the large G×G scratch
// histograms and compiled slide programs — across chunks and workers
// instead of reallocating per scan.
var blockedPool sync.Pool

// GetBlocked returns a pooled kernel for g gray levels (allocating one when
// the pool is empty or holds a kernel of a different size). The kernel's
// scratch is zeroed; Plan must be called before use.
func GetBlocked(g int) *Blocked {
	if v := blockedPool.Get(); v != nil {
		k := v.(*Blocked)
		if k.g == g {
			k.Reset()
			return k
		}
	}
	return NewBlocked(g)
}

// PutBlocked returns a kernel to the pool for reuse.
func PutBlocked(k *Blocked) {
	if k != nil {
		blockedPool.Put(k)
	}
}
