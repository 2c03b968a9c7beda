package main

import (
	"math/rand"
	"time"

	"haralick4d/internal/core"
	"haralick4d/internal/features"
	"haralick4d/internal/glcm"
	"haralick4d/internal/metrics"
	"haralick4d/internal/pipeline"
	"haralick4d/internal/volume"
)

// zeroLayers reports every per-layer metric as 0 until a source fills it:
// a layer the workload does not exercise reads 0.
func zeroLayers(res *result) {
	for _, d := range perLayer {
		res.set(d.Name, 0)
	}
}

// reportLayers adds the per-layer metrics the RunReport of every run or job
// already carries, averaged per run.
func reportLayers(res *result, reps []*metrics.RunReport) {
	n := float64(len(reps))
	var compute, computeCap, hpc, read, wait, assemble, write, emit float64
	var busy, recv, stall, copySeconds float64
	var reads, hits, misses, denied, trips float64
	for _, r := range reps {
		el := r.Elapsed().Seconds()
		for _, f := range r.Filters {
			switch f.Name {
			case "HMP", "HCC":
				compute += f.Spans[metrics.SpanCompute].Total().Seconds()
				computeCap += el * float64(len(f.Copies))
			case "HPC":
				hpc += f.Spans[metrics.SpanCompute].Total().Seconds()
			case "RFR":
				read += f.Spans[metrics.SpanRead].Total().Seconds()
				wait += f.Spans[metrics.SpanReadWait].Total().Seconds()
			}
			assemble += f.Spans[metrics.SpanAssemble].Total().Seconds()
			write += f.Spans[metrics.SpanWrite].Total().Seconds()
			emit += f.Spans[metrics.SpanEmit].Total().Seconds()
			busy += float64(f.BusyNS) / 1e9
			recv += float64(f.BlockedRecvNS) / 1e9
			stall += float64(f.StalledSendNS) / 1e9
			copySeconds += el * float64(len(f.Copies))
		}
		for _, b := range r.Backends {
			reads += float64(b.Reads)
			hits += float64(b.CacheHits)
			misses += float64(b.CacheMisses)
			denied += float64(b.RetryBudgetDenied)
			trips += float64(b.BreakerTrips)
		}
	}
	res.set("core.compute_s", compute/n)
	if computeCap > 0 {
		res.set("core.compute_share", compute/computeCap)
	}
	res.set("features.hpc_compute_s", hpc/n)
	res.set("dataset.reads", reads/n)
	res.set("dataset.read_s", read/n)
	res.set("dataset.cache_hits", hits/n)
	res.set("dataset.cache_misses", misses/n)
	if hits+misses > 0 {
		res.set("dataset.cache_hit_ratio", hits/(hits+misses))
	}
	res.set("resilience.budget_denied", denied/n)
	res.set("resilience.breaker_trips", trips/n)
	res.set("readahead.wait_s", wait/n)
	if read > 0 {
		res.set("readahead.hidden_share", 1-wait/read)
	}
	res.set("filters.assemble_s", assemble/n)
	res.set("filters.write_s", write/n)
	res.set("filters.emit_s", emit/n)
	res.set("filter.recv_blocked_s", recv/n)
	res.set("filter.send_stalled_s", stall/n)
	if copySeconds > 0 {
		res.set("filter.accounted_share", (busy+recv+stall)/copySeconds)
	}
}

// replayLayers re-runs the public core, glcm and features calls on a
// seeded sample of the workload's chunks: AnalyzeRegionInto at the
// workload's worker count against Workers=1 (the sequential baseline), and
// the Calculator on the sampled matrices. One z-t plane of ROI origins per
// chunk keeps the replay short. glcm.pairs is the pairs one run
// accumulates over all outDims positions.
func replayLayers(res *result, grid *volume.Grid, acfg core.Config, chunkShape [4]int, outDims [4]int, rng *rand.Rand) error {
	pc := &pipeline.Config{Analysis: acfg, ChunkShape: chunkShape}
	if err := pc.Validate(grid.Dims); err != nil {
		return err
	}
	acfg = pc.Analysis
	ck, err := volume.NewChunker(grid.Dims, pc.ChunkShape, acfg.ROI)
	if err != nil {
		return err
	}
	seq := acfg
	seq.Workers = 1
	var stats core.Stats
	var tPar, tSeq, tFeat time.Duration
	matrices := 0
	calc := features.NewCalculator(acfg.GrayLevels, acfg.Features)
	for i := 0; i < 2; i++ {
		c := ck.Chunk(rng.Intn(ck.Count()))
		org := c.Origins
		org.Hi[2], org.Hi[3] = org.Lo[2]+1, org.Lo[3]+1
		region := volume.ExtractRegion(grid, c.Voxels)
		outs := make([]*volume.FloatRegion, len(acfg.Features))
		for k := range outs {
			outs[k] = volume.NewFloatRegion(org)
		}
		t0 := time.Now()
		if err := core.AnalyzeRegionInto(region, org, &acfg, &stats, outs); err != nil {
			return err
		}
		tPar += time.Since(t0)
		t0 = time.Now()
		if err := core.AnalyzeRegionInto(region, org, &seq, nil, outs); err != nil {
			return err
		}
		tSeq += time.Since(t0)

		var batch core.MatrixBatch
		if acfg.Representation == core.SparseMatrix {
			if err := core.SparseBatchInto(region, org, &acfg, nil, &batch); err != nil {
				return err
			}
			t0 = time.Now()
			for _, m := range batch.Sparse {
				if _, err := calc.FromSparse(m); err != nil {
					return err
				}
			}
			matrices += len(batch.Sparse)
		} else {
			if err := core.FullBatchInto(region, org, &acfg, nil, &batch); err != nil {
				return err
			}
			t0 = time.Now()
			for _, m := range batch.Full {
				if _, err := calc.FromFull(m, acfg.Representation == core.FullMatrix); err != nil {
					return err
				}
			}
			matrices += len(batch.Full)
		}
		tFeat += time.Since(t0)
	}
	res.set("glcm.pairs", float64(volume.NumVoxels(outDims))*float64(glcm.PairCount(acfg.ROI, acfg.DirectionSet())))
	res.set("glcm.nonzero_per_matrix", stats.MeanEntries())
	res.set("core.pairs_per_s", float64(stats.Pairs)/tPar.Seconds())
	res.set("core.speedup_vs_seq", tSeq.Seconds()/tPar.Seconds())
	res.set("features.ns_per_matrix", float64(tFeat.Nanoseconds())/float64(max(matrices, 1)))
	return nil
}
