package pipeline

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/dataset"
	"haralick4d/internal/fault"
	"haralick4d/internal/features"
	"haralick4d/internal/filter"
	"haralick4d/internal/filters"
	"haralick4d/internal/resilience"
	"haralick4d/internal/synthetic"
	"haralick4d/internal/volume"
)

// brownoutOracle computes the clean sequential reference for the brownout
// runs.
func brownoutOracle(t *testing.T, dir string) map[features.Feature]*volume.FloatGrid {
	t.Helper()
	clean, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Sequential(clean, testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// assertCleanVoxels checks every output voxel outside the reported degraded
// ROIs against the oracle, bit for bit.
func assertCleanVoxels(t *testing.T, res *filters.Results, ref map[features.Feature]*volume.FloatGrid, feats []features.Feature) {
	t.Helper()
	_, rois, _ := res.Degraded()
	inROI := func(p [4]int) bool {
		for _, b := range rois {
			if b.Contains(p) {
				return true
			}
		}
		return false
	}
	outDims := ref[feats[0]].Dims
	for _, f := range feats {
		got, want := res.Grid(f), ref[f]
		if got == nil {
			t.Fatalf("%v: grid missing", f)
		}
		for tt := 0; tt < outDims[3]; tt++ {
			for z := 0; z < outDims[2]; z++ {
				for y := 0; y < outDims[1]; y++ {
					for x := 0; x < outDims[0]; x++ {
						if inROI([4]int{x, y, z, tt}) {
							continue
						}
						if g, w := got.At(x, y, z, tt), want.At(x, y, z, tt); g != w {
							t.Fatalf("%v: clean voxel (%d,%d,%d,%d) = %v, want %v", f, x, y, z, tt, g, w)
						}
					}
				}
			}
		}
	}
}

// runBrownout executes one serve-stale pipeline run against a blacked-out
// HTTP backend and returns the collected results and final backend stats.
// readAhead 0 serializes each reader's fetches (outputs are identical either
// way); texNodes places the texture copies. afterChunks > 0 holds the
// blackout closed until the sink has assembled that many chunks, and gives
// every stream a single buffer: backpressure then keeps the readers a few
// chunks ahead of the sink at most, so reads remain when the window opens.
func runBrownout(t *testing.T, dir string, bo *fault.BlackoutTransport, pol *resilience.Policy, readAhead int, texNodes []int, afterChunks int) (*filters.Results, dataset.Stats) {
	t.Helper()
	cfg := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin)
	cfg.ReadAhead = readAhead
	cfg.FaultPolicy = fault.SkipDegraded
	// Armed before the dataset is opened: opening makes requests too.
	var sink atomic.Pointer[filters.Results]
	if afterChunks > 0 {
		first := cfg.Analysis.Features[0]
		bo.Ready = func() bool {
			res := sink.Load()
			return res != nil && res.Portions(first) >= afterChunks
		}
	}
	srv := httptest.NewServer(http.FileServer(http.Dir(dir)))
	defer srv.Close()
	st, err := dataset.OpenURL(context.Background(), srv.URL, &dataset.URLOptions{
		HTTPClient:       &http.Client{Transport: bo},
		ResiliencePolicy: pol,
		ServeStale:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	g, res, _, err := Build(st, cfg, &Layout{HMPNodes: texNodes})
	if err != nil {
		t.Fatal(err)
	}
	sink.Store(res)
	depth := 8
	if afterChunks > 0 {
		depth = 1
	}
	rs, err := Run(g, EngineLocal, &RunOptions{QueueDepth: depth, Failover: true})
	if err != nil {
		t.Fatalf("brownout run: %v", err)
	}
	if err := res.Complete(cfg.Analysis.Features); err != nil {
		t.Fatalf("degraded accounting: %v", err)
	}
	// The resilience counters must flow into the run report's backend row.
	AttachBackendStats(rs.Report, st)
	if len(rs.Report.Backends) != 1 {
		t.Fatalf("report has %d backend entries, want 1", len(rs.Report.Backends))
	}
	be := rs.Report.Backends[0]
	if be.BreakerTrips < 1 || be.BreakerState == "" {
		t.Errorf("report backend breaker state %q trips %d, want a tripped breaker", be.BreakerState, be.BreakerTrips)
	}
	if be.StaleReads < 1 {
		t.Errorf("report backend stale reads = %d, want >= 1", be.StaleReads)
	}
	return res, st.Stats()
}

// TestBrownoutHTTPBackend is the chaos acceptance run for the resilience
// layer. Two phases of the same brownout:
//
// "bounded": the backend goes dark mid-run and never recovers. The breaker
// must open, the shared retry budget must cap the total traffic sent into
// the dead backend, serve-stale must convert the unavailable reads into
// degraded slices, and every voxel outside the reported ROIs must stay
// bit-identical to the clean oracle.
//
// "recovers": the blackout lifts after a fixed number of failed requests.
// Deterministic half-open probes must discover the recovery and close the
// breaker, and requests must flow again after the window.
//
// All fault scheduling is request-count based (fixed seeds, no wall-clock
// windows), so the run is reproducible under -race.
func TestBrownoutHTTPBackend(t *testing.T) {
	feats := testConfig(HMPImpl, core.FullMatrix, filter.RoundRobin).Analysis.Features

	t.Run("bounded", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := dataset.Write(dir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 3); err != nil {
			t.Fatal(err)
		}
		ref := brownoutOracle(t, dir)
		// tokens below the per-read retry allowance (attempts-1 = 2): the
		// first failing read's second retry is denied no matter how the
		// readers interleave, so the denied counter is deterministic.
		const (
			consec = 3
			tokens = 1
		)
		// The backend goes dark once the sink holds the first chunks' output
		// (of 16), so the bit-identical check always has clean voxels to
		// verify, wherever read scheduling puts the remaining requests.
		const cleanChunks = 3
		bo := &fault.BlackoutTransport{FailN: 1 << 30} // permanent
		pol := &resilience.Policy{
			// OpenFor far beyond the run: once open, the breaker stays open,
			// so every failure the backend sees is pre-trip traffic.
			Breaker: &resilience.BreakerConfig{ConsecFails: consec, OpenFor: time.Hour},
			Budget:  &resilience.BudgetConfig{Tokens: tokens, Ratio: 0},
		}
		res, stats := runBrownout(t, dir, bo, pol, 2, []int{4, 5, 6}, cleanChunks)

		_, _, voxels := res.Degraded()
		if voxels == 0 {
			t.Fatal("blackout degraded no voxels — the fault window never opened")
		}
		if n := res.Portions(feats[0]); n < cleanChunks {
			t.Fatalf("%d chunks assembled, want >= %d clean ones", n, cleanChunks)
		}
		assertCleanVoxels(t, res, ref, feats)
		if stats.BreakerTrips < 1 {
			t.Errorf("breaker trips = %d, want >= 1", stats.BreakerTrips)
		}
		if stats.RetryBudgetDenied < 1 {
			t.Errorf("budget denied = %d, want >= 1 (some retry must have been refused)", stats.RetryBudgetDenied)
		}
		// The storm-proofing bound: traffic into the dead backend is at most
		// the consecutive-failure trip threshold, plus the whole retry
		// budget, plus one in-flight first attempt per reader that raced the
		// trip. Without breaker + budget this would be hundreds of requests
		// (every slice read times every retry attempt).
		const readers = 3
		limit := int64(consec + tokens + 2*readers)
		if got := bo.Failures(); got > limit {
			t.Errorf("blacked-out backend saw %d requests, want <= %d (budget-bounded)", got, limit)
		}
	})

	t.Run("recovers", func(t *testing.T) {
		// A single storage node + synchronous reads make the request stream
		// strictly sequential, and an injected counting clock (one tick per
		// open-state Allow) makes the probe schedule call-count-based, so the
		// whole failure schedule is deterministic: the blacked-out read fails
		// its 3 attempts (= FailN, consuming the blackout; = ConsecFails,
		// tripping the breaker), a fixed handful of reads fast-fail while the
		// clock ticks off OpenFor, then the half-open probe finds the
		// recovered backend and closes the circuit.
		dir := t.TempDir()
		if _, err := dataset.Write(dir, synthetic.Generate(synthetic.Config{Dims: degradedDims, Seed: 17}), 1); err != nil {
			t.Fatal(err)
		}
		ref := brownoutOracle(t, dir)
		const failN = 3
		bo := &fault.BlackoutTransport{StartAfter: 30, FailN: failN}
		var ticks atomic.Int64
		clock := func() time.Time {
			return time.Unix(0, 0).Add(time.Duration(ticks.Add(1)) * 100 * time.Microsecond)
		}
		pol := &resilience.Policy{
			Breaker: &resilience.BreakerConfig{ConsecFails: 3, OpenFor: time.Millisecond, Clock: clock},
			Budget:  &resilience.BudgetConfig{Tokens: 2, Ratio: 0.1},
		}
		res, stats := runBrownout(t, dir, bo, pol, 0, []int{2, 3, 4}, 0)

		_, _, voxels := res.Degraded()
		if voxels == 0 {
			t.Fatal("blackout degraded no voxels — the fault window never opened")
		}
		assertCleanVoxels(t, res, ref, feats)
		if stats.BreakerProbes < 1 {
			t.Errorf("breaker probes = %d, want >= 1 (half-open must have probed)", stats.BreakerProbes)
		}
		if got := bo.Failures(); got < failN {
			t.Errorf("blackout consumed %d/%d failures — the backend never recovered in-run", got, failN)
		}
		if got := bo.OKs(); got <= bo.StartAfter {
			t.Errorf("backend answered %d requests, want > %d (traffic must resume after recovery)", got, bo.StartAfter)
		}
	})
}
