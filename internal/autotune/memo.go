package autotune

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
)

// Cell is one memoized trial result: the measured elapsed time of a
// parameter cell plus any named metrics the sweep wants to keep (spans,
// rates).
type Cell struct {
	ElapsedNS int64              `json:"elapsed_ns"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
}

// Memo is the cross-run result journal: (config fingerprint, parameter
// cell) → measured Cell, persisted as one JSON file so repeated experiment
// sweeps reuse prior trials instead of recomputing them. Writes are
// write-through with the dataset layer's temp+rename idiom, so a killed
// sweep leaves a valid (if shorter) memo behind.
type Memo struct {
	path string

	mu    sync.Mutex
	cells map[string]Cell
}

// Key builds the canonical memo key from a config fingerprint (see
// checkpoint.Header.Fingerprint) and a cell descriptor ("copies=2,ra=4").
func Key(fingerprint, cell string) string { return fingerprint + "|" + cell }

// FingerprintBytes returns the short stable digest the memo keys use, for
// inputs that are not checkpoint headers (dataset generation configs).
func FingerprintBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// OpenMemo loads the memo at path, or starts an empty one when the file
// does not exist yet. A corrupt file is an error — silently dropping
// memoized results would turn into silent recomputation.
func OpenMemo(path string) (*Memo, error) {
	m := &Memo{path: path, cells: map[string]Cell{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("autotune: read memo: %w", err)
	}
	if err := json.Unmarshal(data, &m.cells); err != nil {
		return nil, fmt.Errorf("autotune: memo %s corrupt: %w", path, err)
	}
	return m, nil
}

// Get returns the memoized cell for key, if present.
func (m *Memo) Get(key string) (Cell, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.cells[key]
	return c, ok
}

// Len returns the number of memoized cells.
func (m *Memo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.cells)
}

// Put stores the cell under key and persists the memo.
func (m *Memo) Put(key string, c Cell) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cells[key] = c
	return m.flushLocked()
}

func (m *Memo) flushLocked() error {
	data, err := json.MarshalIndent(m.cells, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(m.path), 0o755); err != nil {
		return err
	}
	tmp := m.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, m.path)
}
