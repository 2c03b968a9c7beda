package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// metricDef is one metric of BENCHMARK.json. Bound is set on end-to-end
// metrics only: the share of the parent's median by which the metric may
// worsen before a change counts as a regression.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd are the metrics a user of the system sees, reported on every
// workload with tracing off. For the batch workloads a "job" is one
// open → build → run; for serve-jobs it is one submit → completed.
//
// The failure count is not among them (it is zero on a correct run, and a
// share of zero has no spread); it is the result line's "failed" out of
// "attempted".
//
// The bounds are the largest the format allows. On the 2-CPU reference
// host the medians of whole runs move by up to 20% between minutes as
// other tenants' load comes and goes (README.md has the measured spreads),
// so a tighter bound would flag noise as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", bound(0.25)},
	{"out_vox_per_s", "vox/s", "higher", bound(0.25)},
	{"jobs_per_s", "1/s", "higher", bound(0.25)},
	{"job_p50_s", "s", "lower", bound(0.25)},
	{"job_p90_s", "s", "lower", bound(0.25)},
	{"peak_rss_mb", "MiB", "lower", bound(0.25)},
}

// perLayer are reported on every workload by the traced run. A layer that a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{"glcm.pairs", "count", "lower", nil},
	{"glcm.nonzero_per_matrix", "count", "lower", nil},
	{"core.compute_s", "s", "lower", nil},
	{"core.compute_share", "ratio", "lower", nil},
	{"core.pairs_per_s", "1/s", "higher", nil},
	{"core.speedup_vs_seq", "ratio", "higher", nil},
	{"features.ns_per_matrix", "ns", "lower", nil},
	{"features.hpc_compute_s", "s", "lower", nil},
	{"dataset.requests", "count", "lower", nil},
	{"dataset.fetch_s", "s", "lower", nil},
	{"dataset.fetch_p50_ms", "ms", "lower", nil},
	{"dataset.fetch_p99_ms", "ms", "lower", nil},
	{"dataset.fetch_bytes", "bytes", "lower", nil},
	{"dataset.cache_hits", "count", "higher", nil},
	{"dataset.cache_misses", "count", "lower", nil},
	{"dataset.cache_hit_ratio", "ratio", "higher", nil},
	{"dataset.reads", "count", "lower", nil},
	{"dataset.read_s", "s", "lower", nil},
	{"resilience.retries", "count", "lower", nil},
	{"resilience.budget_denied", "count", "lower", nil},
	{"resilience.breaker_trips", "count", "lower", nil},
	{"readahead.wait_s", "s", "lower", nil},
	{"readahead.hidden_share", "ratio", "higher", nil},
	{"filters.assemble_s", "s", "lower", nil},
	{"filters.write_s", "s", "lower", nil},
	{"filters.emit_s", "s", "lower", nil},
	{"filter.wire_bytes", "bytes", "lower", nil},
	{"filter.conn_write_s", "s", "lower", nil},
	{"filter.recv_blocked_s", "s", "lower", nil},
	{"filter.send_stalled_s", "s", "lower", nil},
	{"filter.accounted_share", "ratio", "higher", nil},
	{"filter.self_s", "s", "lower", nil},
	{"pipeline.open_ms", "ms", "lower", nil},
	{"pipeline.build_ms", "ms", "lower", nil},
	{"checkpoint.journal_bytes_per_job", "bytes", "lower", nil},
	{"server.submit_ms", "ms", "lower", nil},
	{"server.queue_wait_ms", "ms", "lower", nil},
	{"server.overhead_ms", "ms", "lower", nil},
	{"server.shed", "count", "lower", nil},
	{"trace.overhead_pct", "%", "lower", nil},
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkFile is BENCHMARK.json, fields in the file's key order.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

const runSeconds = 20

func specFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, workloadDoc{w.name, w.why})
	}
	return f
}

func marshalSpec() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(specFile()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkSpec is the self-check: BENCHMARK.json in the working directory must
// be the file this program would write, and every metric it names for the
// run's mode must be in the result with its unit.
func checkSpec(path string, trace bool, got map[string]metricOut) error {
	have, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	want, err := marshalSpec()
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(have), bytes.TrimSpace(want)) {
		return fmt.Errorf("%s differs from the metric table in perfbench/spec.go (regenerate with --write-spec)", path)
	}
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s missing from the result", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(defs) {
		return fmt.Errorf("result has %d metrics, BENCHMARK.json lists %d", len(got), len(defs))
	}
	return nil
}
