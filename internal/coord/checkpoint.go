package coord

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	setconsensus "setconsensus"
	"setconsensus/internal/chaos"
)

// checkpointVersion guards the on-disk schema. Version 2 added the
// embedded checksum and the .bak of the last good file; version 1 files
// carry no integrity evidence, so they are rejected rather than trusted.
const checkpointVersion = 2

// bakSuffix names the last-good copy kept beside the primary
// checkpoint. It is refreshed only by intact writes, so a torn or
// corrupted primary always has a loadable sibling.
const bakSuffix = ".bak"

// The typed checkpoint-load errors. Corrupt is recoverable (the .bak
// fallback engages); version and identity mismatches are deliberate
// hard rejections — the file is intact, it just answers a different
// question.
var (
	// ErrCheckpointCorrupt marks a checkpoint that is unparseable,
	// truncated, or failing its embedded checksum.
	ErrCheckpointCorrupt = errors.New("coord: checkpoint corrupt")
	// ErrCheckpointVersion marks an intact checkpoint written under a
	// different schema version.
	ErrCheckpointVersion = errors.New("coord: checkpoint version mismatch")
	// ErrCheckpointMismatch marks an intact checkpoint written for a
	// different workload, ref set, or range size.
	ErrCheckpointMismatch = errors.New("coord: checkpoint identity mismatch")
)

// checkpointDone is one completed range in the checkpoint file.
type checkpointDone struct {
	Range
	Count   int                   `json:"count"`
	Summary *setconsensus.Summary `json:"summary"`
}

// checkpointPending is one not-yet-completed range. Leases are
// deliberately not persisted: on resume every outstanding range is
// pending again (at-least-once semantics make the re-run harmless), but
// the attempt count survives so a poisoned range still hits MaxAttempts
// across restarts.
type checkpointPending struct {
	Range
	Attempts int `json:"attempts,omitempty"`
}

// checkpoint is the coordinator's durable state. Workload, Refs, and
// RangeSize identify the sweep; resuming under different ones is
// rejected, since ranges from differently-sized partitions don't tile.
// Checksum is the CRC-32 (IEEE) of the file's own JSON with the
// Checksum field emptied — cheap tamper/truncation evidence, relying on
// encoding/json's stable field order and map-key sorting (the same
// byte-stability the resume tests already pin for Summary).
type checkpoint struct {
	Version   int                 `json:"version"`
	Checksum  string              `json:"checksum,omitempty"`
	Workload  string              `json:"workload"`
	Refs      []string            `json:"refs"`
	RangeSize int                 `json:"rangeSize"`
	Next      int                 `json:"nextOffset"`
	Exhausted bool                `json:"exhausted,omitempty"`
	End       int                 `json:"end,omitempty"`
	Done      []checkpointDone    `json:"done"`
	Pending   []checkpointPending `json:"pending"`
}

// sealCheckpoint embeds the checksum and returns the final blob.
func sealCheckpoint(cp *checkpoint) ([]byte, error) {
	cp.Checksum = ""
	bare, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("coord: marshaling checkpoint: %w", err)
	}
	cp.Checksum = fmt.Sprintf("%08x", crc32.ChecksumIEEE(bare))
	blob, err := json.Marshal(cp)
	if err != nil {
		return nil, fmt.Errorf("coord: marshaling checkpoint: %w", err)
	}
	return blob, nil
}

// atomicWrite writes blob to path via a same-directory temp file and
// rename, so readers never observe a partial file.
func atomicWrite(path string, blob []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("coord: checkpoint temp file: %w", err)
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("coord: writing checkpoint: %w", werr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("coord: committing checkpoint: %w", err)
	}
	return nil
}

// writeCheckpointLocked seals the current state — marshal with an
// embedded checksum — and persists it: through Run's background writer
// while one is active, directly otherwise. No-op without a configured
// path.
func (c *Coordinator) writeCheckpointLocked() error {
	if c.params.CheckpointPath == "" {
		return nil
	}
	cp := checkpoint{
		Version:   checkpointVersion,
		Workload:  c.workload,
		Refs:      c.refs,
		RangeSize: c.params.RangeSize,
		Next:      c.next,
		Exhausted: c.exhausted,
		End:       c.end,
		Done:      make([]checkpointDone, 0, len(c.done)),
		Pending:   make([]checkpointPending, 0, len(c.pending)+len(c.leased)),
	}
	offs := make([]int, 0, len(c.done))
	for off := range c.done {
		offs = append(offs, off)
	}
	sort.Ints(offs)
	for _, off := range offs {
		d := c.done[off]
		cp.Done = append(cp.Done, checkpointDone{Range: d.Range, Count: d.Count, Summary: d.Summary})
	}
	// Outstanding = queued + leased: a lease does not survive the
	// process, so it checkpoints as pending work.
	for _, rs := range c.pending {
		cp.Pending = append(cp.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	for _, rs := range c.leased {
		cp.Pending = append(cp.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	sort.Slice(cp.Pending, func(i, j int) bool { return cp.Pending[i].Offset < cp.Pending[j].Offset })

	blob, err := sealCheckpoint(&cp)
	if err != nil {
		return err
	}
	if c.ckptWake != nil {
		c.ckptNext = blob
		select {
		case c.ckptWake <- struct{}{}:
		default: // the writer is already due to wake
		}
		return nil
	}
	return c.persistCheckpoint(blob)
}

// persistCheckpoint atomically replaces the primary with blob, then
// refreshes the .bak with the same bytes. Because the .bak is only ever
// written with a sealed blob, it always holds the last good state even
// if the primary is later torn.
func (c *Coordinator) persistCheckpoint(blob []byte) error {
	if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointTornCheckpoint); fire {
		// Injected torn write: half the blob lands on the primary with no
		// atomic rename and no .bak refresh — the failure the checksum
		// and .bak fallback exist to absorb. The write "succeeds" from
		// the coordinator's point of view, exactly like a real torn write
		// under power loss.
		return os.WriteFile(c.params.CheckpointPath, blob[:len(blob)/2], 0o644)
	}
	if err := atomicWrite(c.params.CheckpointPath, blob); err != nil {
		return err
	}
	return atomicWrite(c.params.CheckpointPath+bakSuffix, blob)
}

// checkpointWriter is Run's background checkpoint writer. Each wake it
// persists the newest sealed blob; states sealed while a write is in
// flight are superseded by the next one rather than queued, so a slow
// disk skips intermediate states instead of stalling completions (and
// the coordinator lock) behind file I/O. Once stop closes it persists
// whatever is left and returns. A failed write is fatal to the run.
func (c *Coordinator) checkpointWriter(wake, stop <-chan struct{}) {
	for {
		stopped := false
		select {
		case <-wake:
		case <-stop:
			stopped = true
		}
		c.mu.Lock()
		blob := c.ckptNext
		c.ckptNext = nil
		c.mu.Unlock()
		if blob != nil {
			if err := c.persistCheckpoint(blob); err != nil {
				c.mu.Lock()
				if c.fatal == nil {
					c.fatal = err
					c.cancel()
				}
				c.mu.Unlock()
			}
		}
		if stopped {
			return
		}
	}
}

// readCheckpoint reads and fully validates one checkpoint file against
// the coordinator's identity. Errors wrap the typed sentinels above;
// a missing file surfaces as os.ErrNotExist.
func (c *Coordinator) readCheckpoint(path string) (*checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("%w: parsing %s: %v", ErrCheckpointCorrupt, path, err)
	}
	if cp.Version != checkpointVersion {
		return nil, fmt.Errorf("%w: %s has version %d, want %d", ErrCheckpointVersion, path, cp.Version, checkpointVersion)
	}
	want := cp.Checksum
	if want == "" {
		return nil, fmt.Errorf("%w: %s has no checksum", ErrCheckpointCorrupt, path)
	}
	cp.Checksum = ""
	bare, err := json.Marshal(&cp)
	if err != nil {
		return nil, fmt.Errorf("coord: remarshaling checkpoint %s: %w", path, err)
	}
	if got := fmt.Sprintf("%08x", crc32.ChecksumIEEE(bare)); got != want {
		return nil, fmt.Errorf("%w: %s checksum %s, file claims %s", ErrCheckpointCorrupt, path, got, want)
	}
	if cp.Workload != c.workload {
		return nil, fmt.Errorf("%w: %s is for workload %q, not %q", ErrCheckpointMismatch, path, cp.Workload, c.workload)
	}
	if !equalStrings(cp.Refs, c.refs) {
		return nil, fmt.Errorf("%w: %s is for refs %v, not %v", ErrCheckpointMismatch, path, cp.Refs, c.refs)
	}
	if cp.RangeSize != c.params.RangeSize {
		return nil, fmt.Errorf("%w: %s uses range size %d, not %d", ErrCheckpointMismatch, path, cp.RangeSize, c.params.RangeSize)
	}
	for i := range cp.Done {
		if cp.Done[i].Summary == nil {
			return nil, fmt.Errorf("%w: %s: done range %s has no summary", ErrCheckpointCorrupt, path, cp.Done[i].Range)
		}
	}
	return &cp, nil
}

// loadCheckpoint resumes the coordinator from path. A missing file is a
// fresh start, not an error. A corrupt or truncated primary falls back
// to the .bak of the last good write; anything else — version or
// identity mismatch, or both copies corrupt — rejects cleanly.
func (c *Coordinator) loadCheckpoint(path string) error {
	cp, err := c.readCheckpoint(path)
	switch {
	case err == nil:
	case errors.Is(err, os.ErrNotExist):
		// No primary. A .bak alone means the last run died between a torn
		// primary being cleaned up and nothing else — resume beats
		// restarting, so try it; absent both, fresh start.
		bak, bakErr := c.readCheckpoint(path + bakSuffix)
		if errors.Is(bakErr, os.ErrNotExist) {
			return nil
		}
		if bakErr != nil {
			return bakErr
		}
		cp = bak
		c.statCkptFallbak++
	case errors.Is(err, ErrCheckpointCorrupt):
		bak, bakErr := c.readCheckpoint(path + bakSuffix)
		if bakErr != nil {
			return fmt.Errorf("%w (and no good backup: %v)", err, bakErr)
		}
		cp = bak
		c.statCkptFallbak++
	default:
		return err
	}
	c.applyCheckpoint(cp)
	return nil
}

// applyCheckpoint installs a validated checkpoint as the coordinator's
// starting state.
func (c *Coordinator) applyCheckpoint(cp *checkpoint) {
	c.next = cp.Next
	c.exhausted = cp.Exhausted
	c.end = cp.End
	for i := range cp.Done {
		d := cp.Done[i]
		c.done[d.Offset] = &doneRange{Range: d.Range, Count: d.Count, Summary: d.Summary}
		c.doneAdv += d.Count
		c.doneRuns += d.Summary.Runs()
	}
	for _, p := range cp.Pending {
		if _, dup := c.done[p.Offset]; dup {
			continue
		}
		c.pending = append(c.pending, &rangeState{Range: p.Range, attempts: p.Attempts})
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
