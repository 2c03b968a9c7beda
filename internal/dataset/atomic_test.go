package dataset

import (
	"context"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"haralick4d/internal/synthetic"
)

func writeTestDataset(t *testing.T, dir string) {
	t.Helper()
	v := synthetic.Generate(synthetic.Config{Dims: [4]int{8, 8, 3, 2}, Seed: 5})
	if _, err := Write(dir, v, 2); err != nil {
		t.Fatal(err)
	}
}

// TestWriteLeavesNoTemporaries: every artifact goes through write-temp →
// fsync → rename, and a completed generation must leave none of the
// temporaries behind.
func TestWriteLeavesNoTemporaries(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if strings.HasSuffix(path, ".tmp") {
			t.Errorf("leftover temporary %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPartialGenerationRejected simulates a generator crash by copying a
// strict prefix of a finished dataset — everything written before the
// header. Because dataset.json is published last (and atomically), the
// truncated copy must be rejected by Open rather than served as a smaller
// dataset.
func TestPartialGenerationRejected(t *testing.T) {
	src := t.TempDir()
	writeTestDataset(t, src)
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if rel == "dataset.json" {
			return nil // the crash happened before the header write
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dst); err == nil {
		t.Fatal("Open accepted a dataset whose generation crashed before the header write")
	}
}

// TestStrayTemporaryIgnored: an orphaned .tmp from a crashed earlier
// generation must not disturb a later complete one.
func TestStrayTemporaryIgnored(t *testing.T) {
	dir := t.TempDir()
	writeTestDataset(t, dir)
	stray := filepath.Join(dir, "node000", SliceFileName(0, 0)+".tmp")
	if err := os.WriteFile(stray, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.ReadVolumeContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}
