package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestCachedReadsMatchDirect(t *testing.T) {
	v := randomVolume(31, [4]int{16, 12, 5, 3})
	direct, _ := writeTemp(t, v, 2)
	// 15 slice files, one default-size block each: 32 blocks hold them all.
	cached, err := direct.WithCache(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	indexes := make([][]SliceRef, 2)
	for node := 0; node < 2; node++ {
		refs, err := cached.NodeIndexContext(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		indexes[node] = refs
		for _, ref := range refs {
			got, err := cached.ReadSliceContext(context.Background(), node, ref)
			if err != nil {
				t.Fatal(err)
			}
			want := v.Slice(ref.Z, ref.T)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("node %d slice t%d z%d voxel %d: %d != %d",
						node, ref.T, ref.Z, i, got[i], want[i])
				}
			}
		}
	}
	s := cached.Stats()
	if s.CacheMisses == 0 {
		t.Error("cold pass recorded no cache misses")
	}
	if s.CacheHits != 0 {
		t.Errorf("cold pass recorded %d cache hits", s.CacheHits)
	}
	if s.CacheFetchBytes == 0 {
		t.Error("cold pass fetched no bytes")
	}

	// Second pass: the whole dataset is resident, so all reads hit and the
	// backing store sees no new slice reads.
	readsBefore := s.Reads
	for node := 0; node < 2; node++ {
		for _, ref := range indexes[node] {
			got, err := cached.ReadSliceContext(context.Background(), node, ref)
			if err != nil {
				t.Fatal(err)
			}
			want := v.Slice(ref.Z, ref.T)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("warm read mismatch at voxel %d", i)
				}
			}
		}
	}
	s = cached.Stats()
	if s.CacheHits == 0 {
		t.Error("warm pass recorded no cache hits")
	}
	if s.Reads != readsBefore {
		t.Errorf("warm pass issued %d backing reads, want 0", s.Reads-readsBefore)
	}
	if s.CacheEvictions != 0 {
		t.Errorf("evictions = %d with ample capacity", s.CacheEvictions)
	}
}

func TestCachedRegionReads(t *testing.T) {
	v := randomVolume(32, [4]int{20, 15, 4, 2})
	direct, _ := writeTemp(t, v, 1)
	cached, err := direct.WithCache(64, 16) // tiny blocks force multi-block rows
	if err != nil {
		t.Fatal(err)
	}
	refs, err := cached.NodeIndexContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range refs {
		got, err := cached.ReadSliceRegionContext(context.Background(), 0, ref, 3, 17, 2, 13)
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.ReadSliceRegionContext(context.Background(), 0, ref, 3, 17, 2, 13)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("region voxel %d: %d != %d", i, got[i], want[i])
			}
		}
	}
	if s := cached.Stats(); s.CacheHits == 0 {
		t.Error("overlapping region rows produced no cache hits")
	}
}

func TestCacheEviction(t *testing.T) {
	v := randomVolume(33, [4]int{16, 16, 6, 2})
	direct, _ := writeTemp(t, v, 1)
	// Each slice is 16*16*2 = 512 bytes = 4 blocks of 128; cap the cache at
	// 2 blocks so every slice read cycles the whole cache.
	cached, err := direct.WithCache(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	refs, err := cached.NodeIndexContext(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		for _, ref := range refs {
			got, err := cached.ReadSliceContext(context.Background(), 0, ref)
			if err != nil {
				t.Fatal(err)
			}
			want := v.Slice(ref.Z, ref.T)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass %d slice t%d z%d voxel %d: %d != %d",
						pass, ref.T, ref.Z, i, got[i], want[i])
				}
			}
		}
	}
	s := cached.Stats()
	if s.CacheEvictions == 0 {
		t.Error("2-block cache over a 48-block working set recorded no evictions")
	}
	if s.CacheMisses <= s.CacheHits {
		// With a cache far smaller than the working set and sequential
		// sweeps, nearly every block lookup misses.
		t.Logf("misses %d, hits %d (informational)", s.CacheMisses, s.CacheHits)
	}
}

// TestCacheConcurrency hammers one shared block cache from many goroutines
// with a fixed seed; run under -race it checks the LRU's locking, and every
// read is verified against the source volume.
func TestCacheConcurrency(t *testing.T) {
	v := randomVolume(34, [4]int{24, 18, 4, 3})
	direct, _ := writeTemp(t, v, 3)
	cached, err := direct.WithCache(256, 4) // small enough to evict constantly
	if err != nil {
		t.Fatal(err)
	}
	type task struct {
		node int
		ref  SliceRef
	}
	var tasks []task
	for node := 0; node < 3; node++ {
		refs, err := cached.NodeIndexContext(context.Background(), node)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range refs {
			tasks = append(tasks, task{node, ref})
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				tk := tasks[rng.Intn(len(tasks))]
				got, err := cached.ReadSliceContext(context.Background(), tk.node, tk.ref)
				if err != nil {
					errs <- err
					return
				}
				want := v.Slice(tk.ref.Z, tk.ref.T)
				for j := range want {
					if got[j] != want[j] {
						errs <- fmt.Errorf("worker %d slice t%d z%d voxel %d: %d != %d",
							seed, tk.ref.T, tk.ref.Z, j, got[j], want[j])
						return
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := cached.Stats()
	if s.CacheHits+s.CacheMisses == 0 {
		t.Error("no cache traffic recorded")
	}
	t.Logf("concurrent stats: hits=%d misses=%d evictions=%d fetch=%dB",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheFetchBytes)
}

func TestNewCachedBackendValidation(t *testing.T) {
	be := NewMemBackend()
	if _, err := NewCachedBackend(be, 0, 0); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := NewCachedBackend(be, 0, -1); err == nil {
		t.Error("negative capacity accepted")
	}
	if _, err := NewCachedBackend(be, -5, 4); err == nil {
		t.Error("negative block size accepted")
	}
	cb, err := NewCachedBackend(be, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cb.blockSize != DefaultCacheBlockSize {
		t.Errorf("default block size = %d, want %d", cb.blockSize, DefaultCacheBlockSize)
	}
}
