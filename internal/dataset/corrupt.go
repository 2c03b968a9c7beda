package dataset

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// CorruptSlices damages a seeded fraction of a written dataset's slice
// files for chaos tests and `gendata -corrupt-frac`: the victims cycle
// through a byte flip, a truncation, and a deletion, while the index
// checksums are left stale so every kind of damage is detectable on read
// (flips by checksum mismatch, truncations by the size check, deletions by
// the missing file). It returns the damaged files as node-relative paths
// like "node000/slice_t0000_z0003.raw", sorted.
//
// frac is clamped per dataset to at least one slice when positive; the same
// (dir, frac, seed) triple always damages the same slices the same way.
func CorruptSlices(dir string, frac float64, seed int64) ([]string, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("dataset: corrupt fraction %v outside [0, 1]", frac)
	}
	if frac == 0 {
		return nil, nil
	}
	s, err := Open(dir)
	if err != nil {
		return nil, err
	}
	// Collect every slice in a deterministic global order.
	type victim struct {
		node int
		ref  SliceRef
	}
	var all []victim
	for node := 0; node < s.Meta.Nodes; node++ {
		refs, err := s.NodeIndexContext(context.TODO(), node)
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			all = append(all, victim{node: node, ref: ref})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		return SliceID(&s.Meta, all[i].ref.Z, all[i].ref.T) < SliceID(&s.Meta, all[j].ref.Z, all[j].ref.T)
	})
	n := int(frac * float64(len(all)))
	if n < 1 {
		n = 1
	}
	if n > len(all) {
		n = len(all)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	var out []string
	for i, v := range all[:n] {
		path := filepath.Join(s.NodeDir(v.node), v.ref.File)
		switch i % 3 {
		case 0: // flip one byte mid-file: only a checksum catches this
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("dataset: corrupting %s: %w", v.ref.File, err)
			}
			raw[rng.Intn(len(raw))] ^= 0xFF
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				return nil, fmt.Errorf("dataset: corrupting %s: %w", v.ref.File, err)
			}
		case 1: // truncate to a partial row
			st, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("dataset: corrupting %s: %w", v.ref.File, err)
			}
			if err := os.Truncate(path, st.Size()/2+1); err != nil {
				return nil, fmt.Errorf("dataset: corrupting %s: %w", v.ref.File, err)
			}
		case 2: // delete outright
			if err := os.Remove(path); err != nil {
				return nil, fmt.Errorf("dataset: corrupting %s: %w", v.ref.File, err)
			}
		}
		out = append(out, filepath.Join(nodeDirName(v.node), v.ref.File))
	}
	sort.Strings(out)
	return out, nil
}
