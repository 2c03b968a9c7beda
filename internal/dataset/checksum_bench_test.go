package dataset

import (
	"context"
	"testing"
)

func benchDir(b *testing.B) string {
	b.Helper()
	v := randomVolume(21, [4]int{256, 256, 4, 2})
	dir := b.TempDir()
	if _, err := Write(dir, v, 1); err != nil {
		b.Fatal(err)
	}
	return dir
}

func benchStore(b *testing.B) *Store {
	b.Helper()
	st, err := Open(benchDir(b))
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// Benchmarks verified vs unverified whole-slice reads to bound the CRC cost.
func BenchmarkReadSliceVerified(b *testing.B) {
	st := benchStore(b)
	refs, err := st.NodeIndexContext(context.Background(), 0)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]uint16, 256*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.ReadSliceIntoContext(context.Background(), 0, refs[i%len(refs)], out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadSliceUnverified(b *testing.B) {
	st := benchStore(b)
	refs, err := st.NodeIndexContext(context.Background(), 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := range refs {
		refs[i].HasCRC = false
	}
	out := make([]uint16, 256*256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.ReadSliceIntoContext(context.Background(), 0, refs[i%len(refs)], out); err != nil {
			b.Fatal(err)
		}
	}
}

// Benchmarks the local backend's bounded FD cache against open-per-read:
// the cached variant pays os.Open once per file, the uncached variant on
// every ReadSlice — the per-node handle-reuse claim from the redesign.
func BenchmarkReadSliceFDCache(b *testing.B) {
	for _, tc := range []struct {
		name    string
		maxOpen int
	}{
		{"handle-reuse", 0},   // default bounded cache (128 handles)
		{"open-per-read", -1}, // historical behaviour: open, read, close
	} {
		b.Run(tc.name, func(b *testing.B) {
			dir := benchDir(b)
			st, err := OpenBackend(context.Background(), NewLocalBackend(dir, tc.maxOpen))
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			refs, err := st.NodeIndexContext(context.Background(), 0)
			if err != nil {
				b.Fatal(err)
			}
			out := make([]uint16, 256*256)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.ReadSliceIntoContext(context.Background(), 0, refs[i%len(refs)], out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.Stats().Opens)/float64(b.N), "opens/op")
		})
	}
}
