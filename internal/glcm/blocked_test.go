package glcm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func randData(rng *rand.Rand, dims [4]int, g int) []uint8 {
	n := dims[0] * dims[1] * dims[2] * dims[3]
	d := make([]uint8, n)
	for i := range d {
		d[i] = uint8(rng.Intn(g))
	}
	return d
}

// oracleFull computes the ROI's dense matrix with the sequential reference
// kernel — the bit-exactness baseline for every blocked-kernel test.
func oracleFull(data []uint8, strides [4]int, origin, shape [4]int, dirs []Direction, g int) *Full {
	m := NewFull(g)
	ComputeFull(data, strides, origin, shape, dirs, m)
	return m
}

// checkBlockedRow plans a blocked kernel and walks a full raster row of ROI
// origins (accumulate at the row start, slide afterwards), checking every
// position's dense and sparse snapshots against the reference oracles.
func checkBlockedRow(t *testing.T, tag string, data []uint8, dims [4]int, origin, shape [4]int, dirs []Direction, g, stride int) {
	t.Helper()
	strides := Strides(dims)
	k := GetBlocked(g)
	defer PutBlocked(k)
	if !k.Plan(strides, shape, dirs, stride) {
		t.Fatalf("%s: Plan rejected a supported geometry", tag)
	}
	full := NewFull(g)
	sparse := NewSparse(g)
	builder := NewSparseBuilder(g)
	wantSparse := NewSparse(g)
	for first := true; origin[0]+shape[0] <= dims[0]; origin[0] += stride {
		base := origin[0]*strides[0] + origin[1]*strides[1] + origin[2]*strides[2] + origin[3]*strides[3]
		if first {
			k.Reset()
			k.Accumulate(data, base)
			first = false
		} else {
			k.Slide(data, base-stride*strides[0])
		}
		want := oracleFull(data, strides, origin, shape, dirs, g)
		k.SnapshotFull(full)
		if full.Total != want.Total || !reflect.DeepEqual(full.Counts, want.Counts) {
			t.Fatalf("%s: dense snapshot at %v diverged from ComputeFull (total %d vs %d)", tag, origin, full.Total, want.Total)
		}
		if k.Pairs()*2 != want.Total {
			t.Fatalf("%s: kernel pair count %d inconsistent with oracle total %d", tag, k.Pairs(), want.Total)
		}
		k.SnapshotSparse(sparse)
		if err := sparse.Validate(); err != nil {
			t.Fatalf("%s: sparse snapshot at %v invalid: %v", tag, origin, err)
		}
		builder.Clear()
		ComputeSparseScratch(data, strides, origin, shape, dirs, builder)
		builder.Flush(wantSparse)
		if sparse.Total != wantSparse.Total || !reflect.DeepEqual(sparse.Entries, wantSparse.Entries) {
			t.Fatalf("%s: sparse snapshot at %v diverged from SparseBuilder.Flush", tag, origin)
		}
	}
}

// TestBlockedMatchesOracleProperty drives the blocked kernel over random
// geometries — every gray-level count the system supports including the
// G=256 edge, direction sets of 2–4 dimensions at distances 1 and 2, random
// ROI shapes and slide strides — and requires bit-identical matrices at
// every raster position.
func TestBlockedMatchesOracleProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	gs := []int{8, 16, 32, 256}
	for iter := 0; iter < 80; iter++ {
		g := gs[iter%len(gs)]
		ndim := 2 + rng.Intn(3)
		distance := 1 + rng.Intn(2)
		dirs := Directions(ndim, distance)
		dims := [4]int{5 + rng.Intn(12), 3 + rng.Intn(6), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		data := randData(rng, dims, g)
		if g == 256 {
			// Touch the top gray level so the packed uint16 key i*g+j can
			// reach its maximum value 65535 (i = j = 255).
			for i := 0; i < len(data)/3; i++ {
				data[rng.Intn(len(data))] = 255
			}
		}
		shape := [4]int{
			1 + rng.Intn(dims[0]),
			1 + rng.Intn(dims[1]),
			1 + rng.Intn(dims[2]),
			1 + rng.Intn(dims[3]),
		}
		if PairCount(shape, dirs) == 0 {
			continue
		}
		origin := [4]int{
			0,
			rng.Intn(dims[1] - shape[1] + 1),
			rng.Intn(dims[2] - shape[2] + 1),
			rng.Intn(dims[3] - shape[3] + 1),
		}
		stride := 1 + rng.Intn(2)
		checkBlockedRow(t, "property", data, dims, origin, shape, dirs, g, stride)
	}
}

// checkResidentPlane walks every raster row of the (z,t) plane at origin
// the way the parallel scan does — the first row accumulated, slid and
// stored, every later row stepped from the row above (all slots with a
// resident row, otherwise slot 0, then reloaded and slid) — and checks
// every position's dense and sparse snapshots against ComputeFull and
// ComputeSparseScratch.
func checkResidentPlane(t *testing.T, tag string, k *Blocked, data []uint8, dims, origin, shape [4]int, dirs []Direction) {
	t.Helper()
	g, stride := k.G(), k.stride
	strides := Strides(dims)
	flat := func(o [4]int) int {
		return o[0]*strides[0] + o[1]*strides[1] + o[2]*strides[2] + o[3]*strides[3]
	}
	full, want := NewFull(g), NewFull(g)
	sparse, wantSparse := NewSparse(g), NewSparse(g)
	builder := NewSparseBuilder(g)
	for y := 0; origin[1]+shape[1] <= dims[1]; y, origin[1] = y+1, origin[1]+1 {
		o := origin
		for x := 0; o[0]+shape[0] <= dims[0]; x, o[0] = x+1, o[0]+stride {
			base := flat(o)
			switch {
			case y > 0 && (k.resident || x == 0):
				k.StepSlot(data, base-strides[1], x)
				if !k.resident {
					k.Load()
				}
			case x > 0:
				k.Slide(data, base-stride)
			default:
				k.Reset()
				k.Accumulate(data, base)
			}
			if y == 0 && (k.resident || x == 0) {
				k.Store(x)
			}
			if k.resident {
				k.SnapshotSlotFull(x, full)
				k.SnapshotSlotSparse(x, sparse)
			} else {
				k.SnapshotFull(full)
				k.SnapshotSparse(sparse)
			}
			want.Reset()
			ComputeFull(data, strides, o, shape, dirs, want)
			if full.Total != want.Total || !reflect.DeepEqual(full.Counts, want.Counts) {
				t.Fatalf("%s: dense snapshot at %v (resident %v) diverged from ComputeFull (total %d vs %d)", tag, o, k.resident, full.Total, want.Total)
			}
			if err := sparse.Validate(); err != nil {
				t.Fatalf("%s: sparse snapshot at %v invalid: %v", tag, o, err)
			}
			builder.Clear()
			ComputeSparseScratch(data, strides, o, shape, dirs, builder)
			builder.Flush(wantSparse)
			if sparse.Total != wantSparse.Total || !reflect.DeepEqual(sparse.Entries, wantSparse.Entries) {
				t.Fatalf("%s: sparse snapshot at %v (resident %v) diverged from ComputeSparseScratch", tag, o, k.resident)
			}
		}
	}
}

// TestBlockedResidentRowProperty drives the row-to-row step over random
// geometries — every gray-level count the system supports, direction
// families of 2–4 dims at distances 1–2, random ROI shapes including
// y-extent 1 (where the departing and entering y-slabs are the whole
// anchor box), x or y extent 2, a single position per row, and slide
// strides 1 and 2 — down whole planes. Every geometry is walked twice,
// with the resident row forced on (also where Plan's cost rule refuses
// it) and forced off (slot 0 stepped and slid), and every position must
// match the reference kernels bit for bit.
func TestBlockedResidentRowProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	gs := []int{8, 16, 32, 256}
	for iter := 0; iter < 80; iter++ {
		g := gs[iter%len(gs)]
		dirs := Directions(2+rng.Intn(3), 1+rng.Intn(2))
		dims := [4]int{5 + rng.Intn(12), 3 + rng.Intn(8), 1 + rng.Intn(4), 1 + rng.Intn(4)}
		data := randData(rng, dims, g)
		shape := [4]int{
			1 + rng.Intn(dims[0]),
			1 + rng.Intn(dims[1]),
			1 + rng.Intn(dims[2]),
			1 + rng.Intn(dims[3]),
		}
		switch iter % 5 {
		case 0:
			shape[1] = 1
		case 1:
			shape[iter/5%2] = 2
		case 2:
			shape[0] = dims[0] // one position per row
		}
		if PairCount(shape, dirs) == 0 {
			continue
		}
		origin := [4]int{0, 0, rng.Intn(dims[2] - shape[2] + 1), rng.Intn(dims[3] - shape[3] + 1)}
		stride := 1 + rng.Intn(2)
		k := NewBlocked(g)
		if !k.Plan(Strides(dims), shape, dirs, stride) {
			t.Fatalf("iter %d: Plan rejected a supported geometry", iter)
		}
		for _, resident := range []bool{true, false} {
			k.setResident(resident, shape[0])
			checkResidentPlane(t, fmt.Sprintf("iter %d (ROI %v, G=%d, stride %d)", iter, shape, g, stride), k, data, dims, origin, shape, dirs)
		}
	}
}

// TestBlockedResidentCostRule pins Plan's choice at the benchmark
// geometries: the paper's (ROI 16×16×3×3, 40 directions) keeps a resident
// row at G=32, where one position's corners and dense add cost 864 pairs
// and 1,024 cells against a 6,618-pair slide; the cheap 2D analysis (ROI
// 4×4×2×2, 4 directions) does not at G=8 or G=16, where the dense add
// costs more than the slide it saves.
func TestBlockedResidentCostRule(t *testing.T) {
	for _, tc := range []struct {
		shape         [4]int
		ndim, g       int
		slide, corner int
		resident      bool
	}{
		{[4]int{16, 16, 3, 3}, 4, 32, 6618, 864, true},
		{[4]int{4, 4, 2, 2}, 2, 8, 104, 64, false},
		{[4]int{4, 4, 2, 2}, 2, 16, 104, 64, false},
	} {
		dims := [4]int{tc.shape[0] + 8, tc.shape[1] + 8, tc.shape[2] + 2, tc.shape[3] + 2}
		k := NewBlocked(tc.g)
		if !k.Plan(Strides(dims), tc.shape, Directions(tc.ndim, 1), 1) {
			t.Fatalf("%v: Plan rejected a supported geometry", tc.shape)
		}
		slide := len(k.slideSub.nbr) + len(k.slideAdd.nbr)
		corner := len(k.cornerSub.nbr) + len(k.cornerAdd.nbr)
		if slide != tc.slide || corner != tc.corner || k.Resident() != tc.resident {
			t.Errorf("ROI %v G=%d: slide %d, corner %d pairs, resident %v; want %d, %d, %v",
				tc.shape, tc.g, slide, corner, k.Resident(), tc.slide, tc.corner, tc.resident)
		}
	}
}

// TestBlockedPaperGeometry pins the paper's exact configuration: 16×16×3×3
// ROI, G=32, all 40 canonical 4D directions at distance 1, slide stride 1.
func TestBlockedPaperGeometry(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dims := [4]int{24, 20, 4, 4}
	data := randData(rng, dims, 32)
	checkBlockedRow(t, "paper", data, dims, [4]int{0, 1, 0, 1}, [4]int{16, 16, 3, 3}, Directions(4, 1), 32, 1)
}

// TestBlockedPlanFallback covers the geometries Plan must refuse: y-fastest
// strides, a non-positive stride and direction sets that overflow the 64-bit
// row masks. Refusal is what routes the scan to the dense recompute.
func TestBlockedPlanFallback(t *testing.T) {
	k := NewBlocked(16)
	dims := [4]int{8, 8, 2, 2}
	shape := [4]int{4, 4, 2, 2}
	if k.Plan([4]int{8, 1, 64, 128}, shape, Directions(2, 1), 1) {
		t.Error("Plan accepted a grid that is not x-fastest")
	}
	if k.Plan(Strides(dims), shape, Directions(2, 1), 0) {
		t.Error("Plan accepted stride 0")
	}
	wide := AllDirections(4, 1) // 80 directions > 64 mask bits
	if k.Plan(Strides(dims), shape, wide, 1) {
		t.Error("Plan accepted a direction set wider than the row masks")
	}
	if !k.Plan(Strides(dims), shape, Directions(4, 1), 1) {
		t.Error("Plan rejected the canonical 40-direction set")
	}
}

// TestBlockedPoolReuse checks that pooled kernels come back zeroed and that
// a gray-level mismatch allocates a fresh kernel instead of corrupting the
// scratch size.
func TestBlockedPoolReuse(t *testing.T) {
	k := GetBlocked(16)
	dims := [4]int{6, 4, 1, 1}
	data := make([]uint8, 24)
	for i := range data {
		data[i] = uint8(i % 16)
	}
	if !k.Plan(Strides(dims), [4]int{3, 2, 1, 1}, Directions(2, 1), 1) {
		t.Fatal("Plan failed")
	}
	k.Accumulate(data, 0)
	if k.Pairs() == 0 {
		t.Fatal("accumulate recorded no pairs")
	}
	PutBlocked(k)
	k2 := GetBlocked(16)
	if k2.Pairs() != 0 {
		t.Error("pooled kernel not reset")
	}
	for _, c := range k2.counts {
		if c != 0 {
			t.Error("pooled kernel scratch not zeroed")
			break
		}
	}
	PutBlocked(k2)
	k3 := GetBlocked(256)
	if k3.G() != 256 || len(k3.counts) != 2*256*256 {
		t.Errorf("pool returned a kernel of the wrong size: g=%d len=%d", k3.G(), len(k3.counts))
	}
	PutBlocked(k3)
}

// TestBuilderMaxKeyG256 pins the G=256 edge of the reference sparse builder
// used as the comparison oracle: the packed uint16 touched key for the
// (255, 255) cell is exactly 65535, the type's maximum value.
func TestBuilderMaxKeyG256(t *testing.T) {
	b := NewSparseBuilder(256)
	b.Add(255, 255)
	b.Add(255, 255)
	b.Add(0, 255)
	s := NewSparse(256)
	b.Flush(s)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.At(255, 255); got != 4 {
		t.Errorf("cell (255,255) = %d, want 4", got)
	}
	if got := s.At(0, 255); got != 1 {
		t.Errorf("cell (0,255) = %d, want 1", got)
	}
}

// FuzzBlockedKernel fuzzes the blocked kernel against the dense oracle:
// arbitrary bytes pick the geometry and fill the grid, and every raster
// position's snapshot must match ComputeFull bit for bit.
func FuzzBlockedKernel(f *testing.F) {
	f.Add([]byte{3, 2, 1, 1, 2, 2, 1, 1, 0, 1, 2, 3, 4, 5, 6, 7}, uint8(3), uint8(1))
	f.Add([]byte{16, 4, 2, 2, 1, 1, 1, 1, 9, 9, 9}, uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, gsel, dsel uint8) {
		if len(raw) < 8 {
			return
		}
		gs := []int{8, 16, 32, 256}
		g := gs[int(gsel)%len(gs)]
		dims := [4]int{2 + int(raw[0])%8, 2 + int(raw[1])%5, 1 + int(raw[2])%3, 1 + int(raw[3])%3}
		shape := [4]int{
			1 + int(raw[4])%dims[0],
			1 + int(raw[5])%dims[1],
			1 + int(raw[6])%dims[2],
			1 + int(raw[7])%dims[3],
		}
		ndim := 2 + int(dsel)%3
		distance := 1 + int(dsel/3)%2
		dirs := Directions(ndim, distance)
		if PairCount(shape, dirs) == 0 {
			return
		}
		n := dims[0] * dims[1] * dims[2] * dims[3]
		data := make([]uint8, n)
		seed := raw[8:]
		if len(seed) == 0 {
			seed = []byte{1}
		}
		// Deterministic fill from the fuzz payload, clamped to the gray range.
		var h uint64 = 1469598103934665603
		for i := range data {
			h ^= uint64(seed[i%len(seed)]) + uint64(i)
			h *= 1099511628211
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], h)
			data[i] = uint8(int(buf[0]) % g)
		}
		checkBlockedRow(t, "fuzz", data, dims, [4]int{}, shape, dirs, g, 1)
	})
}
