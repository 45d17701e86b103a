package estimate

import (
	"encoding/json"
	"fmt"
	"io"

	"eslurm/internal/trace"
)

// State persistence: the framework's durable state is its historical job
// queue (the models are cheap to regenerate from it). A master daemon
// snapshots on shutdown and restores on boot, so a restart — the paper's
// production Slurm needed 90+ minutes to reboot — does not reset the
// estimator to cold start.

// stateFile is the serialized form. Versioned so future fields can be
// added compatibly.
type stateFile struct {
	Version int         `json:"version"`
	History []trace.Job `json:"history"`
}

const stateVersion = 1

// SaveState writes the framework's historical job queue.
func (f *Framework) SaveState(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(stateFile{Version: stateVersion, History: f.gen.history})
}

// LoadState replaces the framework's history from a snapshot and
// immediately regenerates the model when enough jobs are present, so the
// first post-restart prediction is already informed.
func (f *Framework) LoadState(r io.Reader) error {
	var sf stateFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sf); err != nil {
		return fmt.Errorf("estimate: corrupt state: %w", err)
	}
	if sf.Version != stateVersion {
		return fmt.Errorf("estimate: state version %d, want %d", sf.Version, stateVersion)
	}
	if f.gen.restore(sf.History) {
		f.adopt()
	}
	return nil
}

// HistoryLen returns the number of completed jobs retained.
func (f *Framework) HistoryLen() int { return len(f.gen.history) }
