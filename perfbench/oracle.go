package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/volume"
)

// oracle holds the sequential reference (core.AnalyzeRegion at Workers=1)
// at a seeded sample of output positions.
type oracle struct {
	feats []features.Feature
	pos   [][4]int
	want  [][]float64 // want[i][k]: feature k at pos[i]
}

func newOracle(grid *volume.Grid, acfg core.Config, outDims [4]int, n int, rng *rand.Rand) (*oracle, error) {
	acfg.Workers = 1
	if err := acfg.Validate(); err != nil {
		return nil, err
	}
	o := &oracle{feats: acfg.Features}
	one := [4]int{1, 1, 1, 1}
	for i := 0; i < n; i++ {
		var p [4]int
		for k := range p {
			p[k] = rng.Intn(outDims[k])
		}
		region := volume.ExtractRegion(grid, volume.BoxAt(p, acfg.ROI))
		out, err := core.AnalyzeRegion(region, volume.BoxAt(p, one), &acfg, nil)
		if err != nil {
			return nil, err
		}
		vals := make([]float64, len(out))
		for k, fr := range out {
			vals[k] = fr.Data[0]
		}
		o.pos = append(o.pos, p)
		o.want = append(o.want, vals)
	}
	return o, nil
}

// mismatches counts sampled values that differ bit-for-bit from the
// reference; a missing grid counts every sample of its feature.
func (o *oracle) mismatches(grid func(features.Feature) *volume.FloatGrid) int {
	bad := 0
	for k, f := range o.feats {
		g := grid(f)
		for i, p := range o.pos {
			if g == nil || math.Float64bits(g.At(p[0], p[1], p[2], p[3])) != math.Float64bits(o.want[i][k]) {
				bad++
			}
		}
	}
	return bad
}

// readTree maps every regular file under dir (by relative path) to its
// bytes.
func readTree(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		out[rel] = data
		return nil
	})
	return out, err
}

// sameTree reports how the files under dir differ from ref; nil when they
// match byte for byte.
func sameTree(dir string, ref map[string][]byte) error {
	got, err := readTree(dir)
	if err != nil {
		return err
	}
	if len(got) != len(ref) {
		return fmt.Errorf("%d files, reference has %d", len(got), len(ref))
	}
	for name, want := range ref {
		if !bytes.Equal(got[name], want) {
			return fmt.Errorf("%s differs from the reference", name)
		}
	}
	return nil
}
