package coord

import (
	"bytes"
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

// checkpointState is one sealed coordinator state. The header fields
// and the sorted pending list are captured by value; the done ranges
// are their cached encodings in offset order, so capturing a state
// costs O(#done) slice copies and no encoding.
type checkpointState struct {
	head checkpoint // Done is empty: the ranges are in done
	done [][]byte   // one checkpointDone JSON per done range
}

// checksumField is the sealed file's checksum member, with the digits
// left as zeros until the bare form's CRC is known.
const checksumField = `"checksum":"00000000",`

// appendSealed appends the sealed file to buf and returns it. The bytes
// are exactly those of marshaling the whole checkpoint twice — once
// bare (Checksum empty, hence omitted) and once with the bare form's
// CRC-32 embedded — but only the small header and pending list are
// marshaled here: the done ranges are spliced in from their cached
// encodings.
func (st *checkpointState) appendSealed(buf []byte) ([]byte, error) {
	shell, err := json.Marshal(&st.head)
	if err != nil {
		return nil, fmt.Errorf("coord: marshaling checkpoint: %w", err)
	}
	// shell is {"version":V,<header>"done":[],"pending":[...]}. The
	// version is an integer and the pending list holds no strings, so the
	// first comma and the last `],"pending":` are the two cut points.
	version := bytes.IndexByte(shell, ',') + 1
	pending := bytes.LastIndex(shell, []byte(`],"pending":`))
	start := len(buf)
	buf = append(buf, shell[:version]...)
	sumAt := len(buf)
	buf = append(buf, checksumField...)
	rest := len(buf)
	buf = append(buf, shell[version:pending]...)
	for i, d := range st.done {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, d...)
	}
	buf = append(buf, shell[pending:]...)
	crc := crc32.Update(crc32.ChecksumIEEE(buf[start:sumAt]), crc32.IEEETable, buf[rest:])
	digits := sumAt + len(`"checksum":"`)
	copy(buf[digits:digits+8], fmt.Sprintf("%08x", crc))
	return buf, nil
}

// snapshotLocked captures the current state for sealing. A done range
// is encoded the first time it is sealed and the encoding is kept: a
// completed range never changes.
func (c *Coordinator) snapshotLocked() (*checkpointState, error) {
	st := &checkpointState{
		head: checkpoint{
			Version:   checkpointVersion,
			Workload:  c.workload,
			Refs:      c.refs,
			RangeSize: c.params.RangeSize,
			Next:      c.next,
			Exhausted: c.exhausted,
			End:       c.end,
			Done:      []checkpointDone{},
			Pending:   make([]checkpointPending, 0, len(c.pending)+len(c.leased)),
		},
		done: make([][]byte, len(c.done)),
	}
	for i, d := range c.done {
		if d.enc == nil {
			enc, err := json.Marshal(checkpointDone{Range: d.Range, Count: d.Count, Summary: d.Summary})
			if err != nil {
				return nil, fmt.Errorf("coord: marshaling checkpoint: %w", err)
			}
			d.enc = enc
		}
		st.done[i] = d.enc
	}
	// Outstanding = queued + leased: a lease does not survive the
	// process, so it checkpoints as pending work.
	for _, rs := range c.pending {
		st.head.Pending = append(st.head.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	for _, rs := range c.leased {
		st.head.Pending = append(st.head.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	sort.Slice(st.head.Pending, func(i, j int) bool { return st.head.Pending[i].Offset < st.head.Pending[j].Offset })
	return st, nil
}

// writeCheckpointLocked seals the current state and persists it:
// through Run's background writer while one is active, directly
// otherwise. No-op without a configured path.
func (c *Coordinator) writeCheckpointLocked() error {
	if c.params.CheckpointPath == "" {
		return nil
	}
	st, err := c.snapshotLocked()
	if err != nil {
		return err
	}
	if c.ckptWake != nil {
		if c.ckptNext != nil {
			c.statCkptSuperse++
		}
		c.ckptNext = st
		select {
		case c.ckptWake <- struct{}{}:
		default: // the writer is already due to wake
		}
		return nil
	}
	c.statCkptWrites++
	_, err = c.persistCheckpoint(st, nil)
	return err
}

// persistCheckpoint assembles st into buf (reusing its capacity),
// atomically replaces the primary with it, then refreshes the .bak with
// the same bytes, and returns the buffer for the caller's next write.
// Because the .bak is only ever written with a sealed blob, it always
// holds the last good state even if the primary is later torn.
func (c *Coordinator) persistCheckpoint(st *checkpointState, buf []byte) ([]byte, error) {
	blob, err := st.appendSealed(buf[:0])
	if err != nil {
		return buf, err
	}
	if fire, _ := chaos.Fire(c.params.Chaos, chaos.PointTornCheckpoint); fire {
		// Injected torn write: half the blob lands on the primary with no
		// atomic rename and no .bak refresh — the failure the checksum
		// and .bak fallback exist to absorb. The write "succeeds" from
		// the coordinator's point of view, exactly like a real torn write
		// under power loss.
		return blob, os.WriteFile(c.params.CheckpointPath, blob[:len(blob)/2], 0o644)
	}
	if err := atomicWrite(c.params.CheckpointPath, blob); err != nil {
		return blob, err
	}
	return blob, atomicWrite(c.params.CheckpointPath+bakSuffix, blob)
}

// checkpointWriter is Run's background checkpoint writer. Each wake it
// persists the newest sealed state; states sealed while a write is in
// flight are superseded by the next one rather than queued (and never
// assembled), so a slow disk skips intermediate states instead of
// stalling completions (and the coordinator lock) behind file I/O. Once
// stop closes it persists whatever is left and returns. A failed write
// is fatal to the run. The writer owns one assembly buffer, reused
// across its writes.
func (c *Coordinator) checkpointWriter(wake, stop <-chan struct{}) {
	var buf []byte
	for {
		stopped := false
		select {
		case <-wake:
		case <-stop:
			stopped = true
		}
		c.mu.Lock()
		st := c.ckptNext
		c.ckptNext = nil
		if st != nil {
			c.statCkptWrites++
		}
		c.mu.Unlock()
		if st != nil {
			var err error
			if buf, err = c.persistCheckpoint(st, buf); err != nil {
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
	if err := c.checkContent(&cp); err != nil {
		return nil, fmt.Errorf("%w: %s: %v", ErrCheckpointCorrupt, path, err)
	}
	return &cp, nil
}

// checkContent rejects a checkpoint whose checksum holds but whose
// content the coordinator cannot resume from: a frontier or range off
// the range grid, a range recorded twice or past the frontier, an end
// past the frontier, and a done summary with a missing row, a foreign
// ref, or a count its runs disagree with. A checkpoint this package
// wrote never trips these; a hand-edited or hostile one fails typed
// instead of panicking or wedging the sweep.
func (c *Coordinator) checkContent(cp *checkpoint) error {
	size := c.params.RangeSize
	if cp.Next < 0 || cp.Next%size != 0 {
		return fmt.Errorf("frontier %d is not a range boundary", cp.Next)
	}
	if cp.Exhausted && (cp.End < 0 || cp.End > cp.Next) || !cp.Exhausted && cp.End != 0 {
		return fmt.Errorf("end %d (exhausted=%v) does not fit frontier %d", cp.End, cp.Exhausted, cp.Next)
	}
	minted := func(r Range) error {
		if r.Offset < 0 || r.Offset%size != 0 || r.Offset >= cp.Next || r.Limit != size {
			return fmt.Errorf("range %s was never minted", r)
		}
		return nil
	}
	refs := make(map[string]bool, len(c.refs))
	for _, ref := range c.refs {
		refs[ref] = true
	}
	seen := make(map[int]bool, len(cp.Done))
	for _, d := range cp.Done {
		if err := minted(d.Range); err != nil {
			return err
		}
		if seen[d.Offset] {
			return fmt.Errorf("range %s is done twice", d.Range)
		}
		seen[d.Offset] = true
		if err := checkRows(d.Summary, refs); err != nil {
			return fmt.Errorf("done range %s: %v", d.Range, err)
		}
		if d.Count < 0 || d.Count > d.Limit || d.Count != d.Summary.Adversaries() {
			return fmt.Errorf("done range %s claims %d adversaries, its summary %d", d.Range, d.Count, d.Summary.Adversaries())
		}
	}
	clear(seen)
	for _, p := range cp.Pending {
		if err := minted(p.Range); err != nil {
			return err
		}
		if seen[p.Offset] {
			return fmt.Errorf("range %s is pending twice", p.Range)
		}
		seen[p.Offset] = true
	}
	return nil
}

// checkRows requires one non-null row per coordinator ref.
func checkRows(s *setconsensus.Summary, refs map[string]bool) error {
	if s == nil {
		return errors.New("no summary")
	}
	if len(s.Protocols) != len(refs) {
		return fmt.Errorf("%d protocol rows, want %d", len(s.Protocols), len(refs))
	}
	seen := make(map[string]bool, len(refs))
	for _, row := range s.Protocols {
		if row == nil {
			return errors.New("null protocol row")
		}
		if !refs[row.Ref] || seen[row.Ref] {
			return fmt.Errorf("unexpected protocol row %q", row.Ref)
		}
		seen[row.Ref] = true
	}
	return nil
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
// starting state. Checkpoints of earlier releases may record an empty
// range past the end; like a live empty completion, it is not kept.
func (c *Coordinator) applyCheckpoint(cp *checkpoint) {
	c.next = cp.Next
	for i := range cp.Done {
		if d := &cp.Done[i]; d.Count > 0 {
			c.addDoneLocked(&doneRange{Range: d.Range, Count: d.Count, Summary: d.Summary})
		}
	}
	for _, p := range cp.Pending {
		if c.doneAt(p.Offset) != nil {
			continue
		}
		c.pending = append(c.pending, &rangeState{Range: p.Range, attempts: p.Attempts})
	}
	if cp.Exhausted {
		c.setEndLocked(cp.End)
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
