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
//     slide along x, the step of a row's first ROI along y, and the
//     corners that carry that step along the row — are compiled into flat
//     pair programs (precomputed offset arrays) with no per-row dispatch at
//     all.
//
//   - A resident raster row: where Plan's cost rule says it pays, one
//     merged histogram per x position of the current raster row is kept,
//     and each next row is built from the row above by an exact y-step
//     delta per position (StepSlot) instead of being slid along x again.
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
// histogram, the multiplication LUT, the per-scan direction plan, the
// compiled pair programs and the resident row. A Blocked is built for one
// gray-level count and planned for one (strides, ROI shape, direction set,
// stride) geometry; Accumulate/Slide/Store/StepSlot and the snapshots may
// then be called for any number of ROIs. Values are pooled across chunks
// via GetBlocked/PutBlocked. Not safe for concurrent use — each worker owns
// one.
type Blocked struct {
	g      int
	counts []uint32 // 2 banks of G×G asymmetric scratch: counts[b*g*g+a*g+c] pairs observed as (a, c)
	mul    []uint16 // mul[v] = v*g, 256 entries ((g-1)*g+255 fits uint16 at g=256)
	pairs  uint64   // pairs currently accumulated (matrix Total is 2·pairs)

	strides [4]int
	stride  int // x slide stride
	plans   []dirPlan

	// The compiled programs, replayed as flat loops: the x slide removes
	// the departing x-slab's pairs and adds the entering one's; the row
	// step does the same for the y-slab one row down; the corners are the
	// four one-column, one-row intersections of those slabs, which turn the
	// row step's delta at one x position into the next one's (StepSlot).
	// The slabs are tiny next to the ROI, so loop-nest and dispatch
	// overhead would otherwise dominate them. Built once per Plan.
	slideSub, slideAdd   pairProgram
	stepSub, stepAdd     pairProgram
	cornerSub, cornerAdd pairProgram
	pk                   []int64 // plan-time pair gathering scratch

	// The resident row: slots[x·G² : (x+1)·G²] holds the merged (single
	// bank) scratch of the ROI at x position x of the current raster row.
	// With resident unset — Plan's cost rule found the dense per-position
	// add dearer than the slide it saves — only slot 0 is kept: it marks
	// the row start the next row steps from, and the row is slid along x.
	// delta (2 banks, like counts) holds the y-step delta of the slot
	// stepped last.
	resident bool
	slots    []uint32
	delta    []uint32
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
	k := &Blocked{g: g, counts: make([]uint32, 2*g*g), delta: make([]uint32, 2*g*g), mul: make([]uint16, 256)}
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
// Plan also decides, once per geometry and from counted work, whether the
// scan keeps a resident row (see Resident): a resident position costs the
// corner programs' pairs plus one dense G² add, a slid one the slide
// program's pairs, so the row is kept when G² < slide pairs − corner
// pairs.
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
	k.stride = stride
	// The x slide's slabs are stride columns of each direction's anchor
	// box, the row step's one row; the corners are where a column and a row
	// slab cross. slabX does the arithmetic on either axis.
	for _, pr := range []struct {
		p   *pairProgram
		sel [][2]int // (x, y) slab selectors, one gather each
	}{
		{&k.slideSub, [][2]int{{departing, whole}}},
		{&k.slideAdd, [][2]int{{entering, whole}}},
		{&k.stepSub, [][2]int{{whole, departing}}},
		{&k.stepAdd, [][2]int{{whole, entering}}},
		{&k.cornerSub, [][2]int{{departing, entering}, {entering, departing}}},
		{&k.cornerAdd, [][2]int{{entering, entering}, {departing, departing}}},
	} {
		k.pk = k.pk[:0]
		for _, sel := range pr.sel {
			k.pk = k.gather(k.pk, sel[0], sel[1], stride)
		}
		if len(k.pk) > math.MaxInt32 {
			return false
		}
		pr.p.compile(k.pk)
	}
	slide := len(k.slideSub.nbr) + len(k.slideAdd.nbr)
	corner := len(k.cornerSub.nbr) + len(k.cornerAdd.nbr)
	k.setResident(k.g*k.g < slide-corner, shape[0])
	return true
}

// setResident records whether scans keep a resident row for ROIs roiX
// voxels wide, and sizes the slots for it: one per position of a grid row
// (strides[1] voxels, the grid being x-fastest), or slot 0 alone.
func (k *Blocked) setResident(resident bool, roiX int) {
	k.resident = resident
	n := 1
	if resident {
		n = max(1, (k.strides[1]-roiX)/k.stride+1)
	}
	n *= k.g * k.g
	k.slots = slices.Grow(k.slots[:0], n)[:n]
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

// Slab selectors for gather, per axis: the direction's whole anchor
// interval, or the departing or entering slab of a move along that axis.
const (
	whole = iota
	departing
	entering
)

// gather appends every planned direction's (anchor, neighbor) offset pairs,
// packed anchor<<32|neighbor, whose anchor lies in the direction's anchor
// box cut to the selected slab along x (for a move of stride voxels) and
// along y (for a move of one row).
func (k *Blocked) gather(pk []int64, xsel, ysel, stride int) []int64 {
	sy, sz, st := k.strides[1], k.strides[2], k.strides[3]
	for _, p := range k.plans {
		lo, hi := p.lo, p.hi
		for axis, sel := range [2]int{xsel, ysel} {
			step := stride
			if axis == 1 {
				step = 1
			}
			subLo, subHi, addLo, addHi := slabX(lo[axis], hi[axis], step)
			switch sel {
			case departing:
				lo[axis], hi[axis] = subLo, subHi
			case entering:
				lo[axis], hi[axis] = addLo, addHi
			}
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

// Resident reports whether Plan chose the resident row for this geometry.
// With it, a scan Stores every position of a plane's first raster row and
// then StepSlots every position of each later row; without it, only slot
// 0 is stored and stepped, and the working scratch is reloaded from it and
// slid along x.
func (k *Blocked) Resident() bool { return k.resident }

// Store folds the working scratch — which must hold the pairs of the ROI at
// x position x of the current raster row — into slot x.
func (k *Blocked) Store(x int) {
	gg := k.g * k.g
	s := k.slots[x*gg : (x+1)*gg]
	c0, c1 := k.counts[:gg], k.counts[gg:2*gg]
	c0, c1 = c0[:len(s)], c1[:len(s)]
	for i := range s {
		s[i] = c0[i] + c1[i]
	}
}

// Load replaces the working scratch with slot 0, the row start a scan
// without a resident row steps, so that sliding can continue from it.
func (k *Blocked) Load() {
	gg := k.g * k.g
	copy(k.counts[:gg], k.slots[:gg])
	clear(k.counts[gg:])
}

// StepSlot advances slot x — which must hold the pairs of the ROI at flat
// offset base — by one row along y. Exact integer update: the result is
// bit-identical to Reset + Accumulate + Store at base + strides[1].
//
// With Dy(x) = H(x, y+1) − H(x, y) the y-step delta at x position x,
// Dy(0) is the row-step program replayed into a zeroed delta scratch, and
// Dy(x) = Dy(x−1) + corners(x−1): by inclusion–exclusion on each
// direction's anchor box, the pairs anchored where the entering x column
// meets the entering y row, or the departing column the departing row, are
// added, and those where a departing slab meets an entering one removed.
// So for x > 0, slot x−1 must have been stepped immediately before, and
// the positions of a row are stepped in order. The delta is then added to
// the slot, one dense G² pass. The pair total is invariant.
func (k *Blocked) StepSlot(data []uint8, base, x int) {
	if x == 0 {
		clear(k.delta)
		dd := data[base:]
		k.stepSub.apply(k.delta, k.g, k.mul, dd, ^uint32(0))
		k.stepAdd.apply(k.delta, k.g, k.mul, dd, 1)
	} else {
		// The corners are relative to the previous position's origin.
		dd := data[base-k.stride:]
		k.cornerSub.apply(k.delta, k.g, k.mul, dd, ^uint32(0))
		k.cornerAdd.apply(k.delta, k.g, k.mul, dd, 1)
	}
	gg := k.g * k.g
	s := k.slots[x*gg : (x+1)*gg]
	d0, d1 := k.delta[:gg], k.delta[gg:2*gg]
	d0, d1 = d0[:len(s)], d1[:len(s)]
	for i := range s {
		s[i] += d0[i] + d1[i]
	}
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

// SnapshotSlotFull is SnapshotFull reading slot x instead of the working
// scratch: cell (i, j) = slot(i, j) + slot(j, i), the diagonal doubled.
func (k *Blocked) SnapshotSlotFull(x int, m *Full) {
	if m.G != k.g {
		panic("glcm: snapshot into a matrix of different gray-level count")
	}
	g := k.g
	gg := g * g
	c := k.slots[x*gg : (x+1)*gg]
	out := m.Counts
	for i, ri := 0, 0; i < g; i, ri = i+1, ri+g {
		r := c[ri : ri+g]
		rowO := out[ri : ri+g]
		rowO[i] = 2 * r[i]
		for j, ji := i+1, ri+g+i; j < g; j, ji = j+1, ji+g {
			v := r[j] + c[ji]
			rowO[j] = v
			out[ji] = v
		}
	}
	m.Total = 2 * k.pairs
}

// SnapshotSlotSparse is SnapshotSparse reading slot x instead of the
// working scratch.
func (k *Blocked) SnapshotSlotSparse(x int, s *Sparse) {
	g := k.g
	gg := g * g
	s.Reset()
	s.G = g
	c := k.slots[x*gg : (x+1)*gg]
	for i, ri := 0, 0; i < g; i, ri = i+1, ri+g {
		r := c[ri : ri+g]
		if v := r[i]; v != 0 {
			s.Entries = append(s.Entries, Entry{I: uint8(i), J: uint8(i), Count: 2 * v})
		}
		for j, ji := i+1, ri+g+i; j < g; j, ji = j+1, ji+g {
			if v := r[j] + c[ji]; v != 0 {
				s.Entries = append(s.Entries, Entry{I: uint8(i), J: uint8(j), Count: v})
			}
		}
	}
	s.Total = 2 * k.pairs
}

// blockedPool recycles kernels — and with them the large G×G scratch
// histograms, resident rows and compiled pair programs — across chunks and
// workers instead of reallocating per scan.
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
