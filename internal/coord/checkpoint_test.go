package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/chaos"
)

// seedCheckpoint runs a fake sweep to completion with a checkpoint
// configured, leaving a valid primary file and its .bak behind, and
// returns the golden summary JSON the resume must reproduce.
func seedCheckpoint(t *testing.T, cp string) string {
	t.Helper()
	p := testParams(5)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background(), []Worker{plainFake("seed")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{cp, cp + bakSuffix} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("seed run left no %s: %v", f, err)
		}
	}
	return summaryJSON(t, sum)
}

// truncate rewrites path with its first third — a torn write's shape.
func truncate(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob[:len(blob)/3], 0o644); err != nil {
		t.Fatal(err)
	}
}

// tamper flips a content field without resealing, so the file stays
// valid JSON of the current version but fails its checksum.
func tamper(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["nextOffset"] = m["nextOffset"].(float64) + 5
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// setVersion rewrites the file's schema version in place.
func setVersion(t *testing.T, path string, v int) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	m["version"] = v
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFailureModes is the failure-mode table: a corrupt or
// truncated primary falls back to the .bak and the resumed sweep still
// produces the golden bytes; an intact file of the wrong version, or
// corruption with no good backup, rejects cleanly with the typed error.
func TestCheckpointFailureModes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		corrupt      func(t *testing.T, cp string)
		wantErr      error // nil: New must succeed
		wantFallback bool
	}{
		{
			name:         "truncated JSON falls back to bak",
			corrupt:      func(t *testing.T, cp string) { truncate(t, cp) },
			wantFallback: true,
		},
		{
			name:         "bad checksum falls back to bak",
			corrupt:      func(t *testing.T, cp string) { tamper(t, cp) },
			wantFallback: true,
		},
		{
			name:         "missing primary falls back to bak",
			corrupt:      func(t *testing.T, cp string) { os.Remove(cp) },
			wantFallback: true,
		},
		{
			name:    "version mismatch rejects even with good bak",
			corrupt: func(t *testing.T, cp string) { setVersion(t, cp, checkpointVersion-1) },
			wantErr: ErrCheckpointVersion,
		},
		{
			name: "truncated primary without bak rejects",
			corrupt: func(t *testing.T, cp string) {
				truncate(t, cp)
				os.Remove(cp + bakSuffix)
			},
			wantErr: ErrCheckpointCorrupt,
		},
		{
			name: "both copies truncated rejects",
			corrupt: func(t *testing.T, cp string) {
				truncate(t, cp)
				truncate(t, cp+bakSuffix)
			},
			wantErr: ErrCheckpointCorrupt,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp := filepath.Join(t.TempDir(), "sweep.ckpt")
			golden := seedCheckpoint(t, cp)
			tc.corrupt(t, cp)

			p := testParams(5)
			p.CheckpointPath = cp
			c, err := New("fake", testRefs, p)
			if tc.wantErr != nil {
				if err == nil {
					t.Fatal("corrupt checkpoint accepted")
				}
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("resume with good bak failed: %v", err)
			}
			if got := c.Stats().CheckpointFallbacks; (got > 0) != tc.wantFallback {
				t.Errorf("CheckpointFallbacks = %d, want fallback=%v", got, tc.wantFallback)
			}
			sum, err := c.Run(context.Background(), []Worker{plainFake("resume")}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := summaryJSON(t, sum); got != golden {
				t.Errorf("resumed summary differs from golden:\n got %s\nwant %s", got, golden)
			}
		})
	}
}

// TestCheckpointVersionOneRejected pins the schema gate against the
// previous on-disk format: a v1 file (no checksum) must reject with the
// version error, never be half-trusted.
func TestCheckpointVersionOneRejected(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	seedCheckpoint(t, cp)
	setVersion(t, cp, 1)
	os.Remove(cp + bakSuffix)
	p := testParams(5)
	p.CheckpointPath = cp
	if _, err := New("fake", testRefs, p); !errors.Is(err, ErrCheckpointVersion) {
		t.Fatalf("v1 checkpoint: err = %v, want %v", err, ErrCheckpointVersion)
	}
}

// TestCheckpointIdentityMismatchTyped: the identity rejections carry
// ErrCheckpointMismatch so callers can branch on them.
func TestCheckpointIdentityMismatchTyped(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	seedCheckpoint(t, cp)
	p := testParams(5)
	p.CheckpointPath = cp
	if _, err := New("other", testRefs, p); !errors.Is(err, ErrCheckpointMismatch) {
		t.Fatalf("workload mismatch: err = %v, want %v", err, ErrCheckpointMismatch)
	}
}

// TestTornWriteInjectionRecovers drives the chaos torn-checkpoint point
// end to end: one completion checkpoints cleanly (refreshing the .bak),
// the next completion's write is torn — a truncated blob lands on the
// primary as if power died mid-write — and the interrupted sweep must
// resume from the .bak, re-sweep only what the torn write lost, and
// still merge to the golden bytes.
func TestTornWriteInjectionRecovers(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(5)
	p.CheckpointPath = cp
	c1, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs1, ok, err := c1.claim(ctx, "w")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	c1.complete(ctx, "w", rs1, fakeSum(rs1.Offset, rs1.Limit), nil) // good write + .bak

	inj := mustSpec(t, "torn#1")
	c1.params.Chaos = inj
	rs2, ok, err := c1.claim(ctx, "w")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	c1.complete(ctx, "w", rs2, fakeSum(rs2.Offset, rs2.Limit), nil) // torn write
	if got := inj.Counts()[chaos.PointTornCheckpoint]; got != 1 {
		t.Fatalf("torn writes fired %d times, want 1", got)
	}
	sealed := referenceSeal(t, c1)
	if torn, err := os.ReadFile(cp); err != nil || !bytes.Equal(torn, sealed[:len(sealed)/2]) {
		t.Fatalf("torn primary holds %d bytes (err %v), want the first half (%d) of the %d sealed bytes",
			len(torn), err, len(sealed)/2, len(sealed))
	}

	// "Process death" here: resume from disk. The torn primary must fall
	// back to the .bak (which knows only the first completion), and the
	// resumed sweep redoes the lost range plus the rest.
	p.Chaos = nil
	c2, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatalf("resume after torn write: %v", err)
	}
	if got := c2.Stats().CheckpointFallbacks; got != 1 {
		t.Errorf("CheckpointFallbacks = %d, want 1", got)
	}
	if len(c2.done) != 1 {
		t.Errorf("resume loaded %d done ranges, want 1 (the pre-torn state)", len(c2.done))
	}
	sum, err := c2.Run(context.Background(), []Worker{plainFake("resume")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryJSON(t, sum); got != goldenFake(t) {
		t.Errorf("post-torn resume summary differs from golden:\n got %s\nwant %s", got, goldenFake(t))
	}
}

// goldenFake is the full synthetic-space summary the fake harness
// sweeps must merge to.
func goldenFake(t *testing.T) string {
	t.Helper()
	s := agg.New("fake", testRefs)
	if err := s.Merge(fakeSum(0, fakeTotal)); err != nil {
		t.Fatal(err)
	}
	return summaryJSON(t, s)
}

// TestRunLeavesFinalCheckpoint: completions during Run hand their
// checkpoint to a background writer, which may skip states superseded
// while a write is in flight, but Run must not return before the final
// state is on disk — primary and .bak byte-identical, every adversary
// in a done range, nothing pending.
func TestRunLeavesFinalCheckpoint(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(2)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), []Worker{plainFake("a"), plainFake("b"), plainFake("c")}, nil); err != nil {
		t.Fatal(err)
	}
	primary, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	bak, err := os.ReadFile(cp + bakSuffix)
	if err != nil {
		t.Fatal(err)
	}
	if string(primary) != string(bak) {
		t.Error(".bak differs from the primary after Run")
	}
	resumed, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.doneAdv != fakeTotal || len(resumed.pending) != 0 || !resumed.exhausted {
		t.Errorf("final checkpoint: %d adversaries done (want %d), %d ranges pending, exhausted=%v",
			resumed.doneAdv, fakeTotal, len(resumed.pending), resumed.exhausted)
	}
}

// TestCheckpointWriterDrainsOnStop: a state sealed after the writer's
// last wake is still written when Run stops the writer.
func TestCheckpointWriterDrainsOnStop(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(5)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceSeal(t, c)
	c.ckptNext, err = c.snapshotLocked()
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	close(stop)
	c.checkpointWriter(make(chan struct{}), stop)
	if got, err := os.ReadFile(cp); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after stop the primary holds %q (err %v), want the last sealed state", got, err)
	}
}

// TestCheckpointWriteErrorFailsRun: a checkpoint write that fails in
// the background writer is as fatal to the run as a synchronous one.
func TestCheckpointWriteErrorFailsRun(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	p := testParams(2)
	p.CheckpointPath = filepath.Join(dir, "sweep.ckpt")
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	// The seed write lands before any worker starts; removing the
	// directory under the first sweep makes every later write fail.
	w := &fakeWorker{name: "w", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		if r.Offset == 0 {
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		return fakeSum(r.Offset, r.Limit), nil
	}}
	if _, err := c.Run(context.Background(), []Worker{w}, nil); err == nil || !strings.Contains(err.Error(), "checkpoint") {
		t.Fatalf("Run after the checkpoint directory vanished: err = %v, want a checkpoint write error", err)
	}
}

// sealCheckpoint is the reference sealing: marshal the whole checkpoint
// bare (Checksum empty), embed the bare form's CRC-32, marshal again.
// Every production seal must match it byte for byte.
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

// referenceSeal builds c's checkpoint the direct way — every done range
// from its Summary, queued and leased ranges as pending, sorted by
// offset — and seals it with the reference.
func referenceSeal(t testing.TB, c *Coordinator) []byte {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	cp := checkpoint{
		Version:   checkpointVersion,
		Workload:  c.workload,
		Refs:      c.refs,
		RangeSize: c.params.RangeSize,
		Next:      c.next,
		Exhausted: c.exhausted,
		End:       c.end,
		Done:      []checkpointDone{},
		Pending:   []checkpointPending{},
	}
	for _, d := range c.done {
		cp.Done = append(cp.Done, checkpointDone{Range: d.Range, Count: d.Count, Summary: d.Summary})
	}
	for _, rs := range c.pending {
		cp.Pending = append(cp.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	for _, rs := range c.leased {
		cp.Pending = append(cp.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	sort.Slice(cp.Pending, func(i, j int) bool { return cp.Pending[i].Offset < cp.Pending[j].Offset })
	blob, err := sealCheckpoint(&cp)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// productionSeal seals c's state the way the checkpoint writer does.
func productionSeal(t testing.TB, c *Coordinator) []byte {
	t.Helper()
	c.mu.Lock()
	st, err := c.snapshotLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := st.appendSealed(nil)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func assertSealMatchesReference(t *testing.T, c *Coordinator) {
	t.Helper()
	got, want := productionSeal(t, c), referenceSeal(t, c)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("seal differs from the reference at byte %d (%d vs %d bytes):\n got …%s\nwant …%s",
			i, len(got), len(want), got[i:min(i+80, len(got))], want[i:min(i+80, len(want))])
	}
}

// TestSealMatchesReference pins the spliced seal to the reference in
// every state a checkpoint is written from: the seed write, mid-run
// with queued, retried and leased ranges, exhausted, and after a resume
// whose done ranges came from the file. Each state's file on disk is
// the reference bytes too.
func TestSealMatchesReference(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(5)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	assertOnDisk := func(t *testing.T, c *Coordinator) {
		t.Helper()
		if got, err := os.ReadFile(cp); err != nil || !bytes.Equal(got, referenceSeal(t, c)) {
			t.Fatalf("checkpoint on disk (err %v) differs from the reference seal", err)
		}
	}
	t.Run("seed", func(t *testing.T) {
		assertSealMatchesReference(t, c)
		c.mu.Lock()
		err := c.writeCheckpointLocked()
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		assertOnDisk(t, c)
	})

	ctx := context.Background()
	var leased []*rangeState
	for range 4 {
		rs, ok, err := c.claim(ctx, "w")
		if err != nil || !ok {
			t.Fatalf("claim: ok=%v err=%v", ok, err)
		}
		leased = append(leased, rs)
	}
	t.Run("mid-run", func(t *testing.T) {
		// [10,15) done first, then [0,5): done ranges arrive out of order.
		c.complete(ctx, "w", leased[2], fakeSum(10, 5), nil)
		c.complete(ctx, "w", leased[0], fakeSum(0, 5), nil)
		c.complete(ctx, "w", leased[1], nil, errors.New("worker fault")) // re-queued with attempts
		if len(c.pending) != 1 || len(c.leased) != 1 || len(c.done) != 2 {
			t.Fatalf("state: %d pending, %d leased, %d done", len(c.pending), len(c.leased), len(c.done))
		}
		assertSealMatchesReference(t, c)
		assertOnDisk(t, c)
	})
	t.Run("exhausted", func(t *testing.T) {
		c.complete(ctx, "w", leased[3], fakeSum(15, 5), nil) // release the lease Run would wait out
		if _, err := c.Run(ctx, []Worker{plainFake("a"), plainFake("b")}, nil); err != nil {
			t.Fatal(err)
		}
		if !c.exhausted || c.end != fakeTotal {
			t.Fatalf("exhausted=%v end=%d", c.exhausted, c.end)
		}
		assertSealMatchesReference(t, c)
		assertOnDisk(t, c)
	})
	t.Run("resumed", func(t *testing.T) {
		r, err := New("fake", testRefs, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.done) == 0 {
			t.Fatal("resume loaded no done ranges")
		}
		assertSealMatchesReference(t, r)
		if got, want := productionSeal(t, r), productionSeal(t, c); !bytes.Equal(got, want) {
			t.Error("resumed state seals differently from the state it was written from")
		}
	})
}

// TestSealEncodesEachRangeOnce: a done range's encoding is produced at
// its first seal and reused by every later one.
func TestSealEncodesEachRangeOnce(t *testing.T) {
	p := testParams(5)
	p.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs, _, _ := c.claim(ctx, "w")
	c.complete(ctx, "w", rs, fakeSum(rs.Offset, rs.Limit), nil)
	first := c.done[0].enc
	if first == nil {
		t.Fatal("completion sealed without encoding the range")
	}
	rs, _, _ = c.claim(ctx, "w")
	c.complete(ctx, "w", rs, fakeSum(rs.Offset, rs.Limit), nil)
	if &c.done[0].enc[0] != &first[0] {
		t.Error("a later seal re-encoded an already encoded range")
	}
}

// TestCheckpointStatsAccountForEverySeal: every sealed state is either
// written or superseded by a newer one before the writer woke.
func TestCheckpointStatsAccountForEverySeal(t *testing.T) {
	p := testParams(1)
	p.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	var sweeps atomic.Int64
	workers := make([]Worker, 3)
	for i := range workers {
		workers[i] = &fakeWorker{name: fmt.Sprint("w", i), sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
			sweeps.Add(1)
			return fakeSum(r.Offset, r.Limit), nil
		}}
	}
	if _, err := c.Run(context.Background(), workers, nil); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	seals := 1 + sweeps.Load() // the seed write, then one per completion
	if st.CheckpointWrites+st.CheckpointsSuperseded != seals || st.CheckpointWrites < 2 {
		t.Errorf("writes %d + superseded %d, want %d seals (and at least the seed and final writes)",
			st.CheckpointWrites, st.CheckpointsSuperseded, seals)
	}
}

// TestFinalCheckpointDeterministic: a worker can mint the empty range
// past the end before the end is known. Whether it completes before or
// after the short range that pins the end, or is never minted at all,
// the final checkpoint is the same bytes and the merge the same Summary.
func TestFinalCheckpointDeterministic(t *testing.T) {
	const size = 5
	final := func(t *testing.T, mintPastEnd, emptyFirst bool) (ckpt []byte, merged string) {
		t.Helper()
		p := testParams(size)
		p.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
		c, err := New("fake", testRefs, p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		claims := fakeTotal/size + 1 // through the short range [20,25)
		if mintPastEnd {
			claims++ // and the empty [25,30)
		}
		var rs []*rangeState
		for range claims {
			r, ok, err := c.claim(ctx, "w")
			if err != nil || !ok {
				t.Fatalf("claim: ok=%v err=%v", ok, err)
			}
			rs = append(rs, r)
		}
		order := rs
		if emptyFirst {
			order = append([]*rangeState{rs[len(rs)-1]}, rs[:len(rs)-1]...)
		}
		for _, r := range order {
			c.complete(ctx, "w", r, fakeSum(r.Offset, r.Limit), nil)
		}
		blob, err := os.ReadFile(p.CheckpointPath)
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		sum, err := c.mergedLocked()
		c.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		return blob, summaryJSON(t, sum)
	}
	wantCkpt, wantSum := final(t, false, false)
	if wantSum != goldenFake(t) {
		t.Fatalf("merged summary differs from golden:\n got %s\nwant %s", wantSum, goldenFake(t))
	}
	for _, tc := range []struct {
		name       string
		emptyFirst bool
	}{{"short range completes first", false}, {"empty range completes first", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt, sum := final(t, true, tc.emptyFirst)
			if !bytes.Equal(ckpt, wantCkpt) {
				t.Errorf("final checkpoint depends on timing:\n got %s\nwant %s", ckpt, wantCkpt)
			}
			if sum != wantSum {
				t.Errorf("merged summary differs:\n got %s\nwant %s", sum, wantSum)
			}
		})
	}
}

// TestCheckpointLoadsWithLeasePastEnd: learning the end moves the
// frontier back to the first range boundary past it, while a worker may
// still hold the empty range it minted there earlier. Every checkpoint
// written in that window must load: the one sealed by the completion
// that pins the end, and the final one a cancelled Run writes while the
// past-end lease is still out (a cancelled completion keeps its lease).
func TestCheckpointLoadsWithLeasePastEnd(t *testing.T) {
	const size = 5
	pastEnd := fakeTotal/size*size + size // [25,30), wholly past the end
	resume := func(t *testing.T, p Params) {
		t.Helper()
		c, err := New("fake", testRefs, p)
		if err != nil {
			t.Fatalf("checkpoint written with a lease past the end does not load: %v", err)
		}
		for _, rs := range c.pending {
			if rs.Offset >= fakeTotal {
				t.Errorf("checkpoint lists %s as pending, past the end %d", rs.Range, fakeTotal)
			}
		}
		sum, err := c.Run(context.Background(), []Worker{plainFake("resume")}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := summaryJSON(t, sum); got != goldenFake(t) {
			t.Errorf("resumed summary differs from golden:\n got %s\nwant %s", got, goldenFake(t))
		}
	}

	t.Run("completion pins the end", func(t *testing.T) {
		p := testParams(size)
		p.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
		c, err := New("fake", testRefs, p)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var short *rangeState
		for {
			rs, ok, err := c.claim(ctx, "w")
			if err != nil || !ok {
				t.Fatalf("claim: ok=%v err=%v", ok, err)
			}
			if rs.Offset == pastEnd {
				break // leased, never completed
			}
			if rs.Offset+rs.Limit > fakeTotal {
				short = rs
				continue
			}
			c.complete(ctx, "w", rs, fakeSum(rs.Offset, rs.Limit), nil)
		}
		c.complete(ctx, "w", short, fakeSum(short.Offset, short.Limit), nil)
		resume(t, p)
	})

	t.Run("cancelled run", func(t *testing.T) {
		p := testParams(size)
		p.CheckpointPath = filepath.Join(t.TempDir(), "sweep.ckpt")
		c, err := New("fake", testRefs, p)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		leased := make(chan struct{})
		sweep := func(ctx context.Context, r Range) (*setconsensus.Summary, error) {
			switch {
			case r.Offset == pastEnd:
				close(leased)
				<-ctx.Done()
				return nil, ctx.Err()
			case r.Offset+r.Limit > fakeTotal:
				// Finish the short range only once the empty one is leased,
				// then cancel: the run stops with that lease outstanding.
				<-leased
				cancel()
			}
			return fakeSum(r.Offset, r.Limit), nil
		}
		workers := []Worker{&fakeWorker{name: "a", sweep: sweep}, &fakeWorker{name: "b", sweep: sweep}}
		if _, err := c.Run(ctx, workers, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("Run: err = %v, want context.Canceled", err)
		}
		resume(t, p)
	})
}

// TestOldCheckpointWithEmptyRangeLoads: a checkpoint written before
// empty ranges were dropped, with the empty range past the end recorded
// as done, still loads, and seals as the current code's final state.
func TestOldCheckpointWithEmptyRangeLoads(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	seedCheckpoint(t, cp)
	want, err := os.ReadFile(cp)
	if err != nil {
		t.Fatal(err)
	}
	old := readRaw(t, cp)
	old.Next += old.RangeSize
	old.Done = append(old.Done, checkpointDone{Range: Range{Offset: old.Next - old.RangeSize, Limit: old.RangeSize}, Count: 0, Summary: fakeSum(0, 0)})
	writeSealed(t, cp, old)
	os.Remove(cp + bakSuffix)

	p := testParams(5)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatalf("old checkpoint rejected: %v", err)
	}
	if got := productionSeal(t, c); !bytes.Equal(got, want) {
		t.Errorf("old checkpoint reseals as\n%s\nwant\n%s", got, want)
	}
}

// readRaw parses a checkpoint file without validating it.
func readRaw(t *testing.T, path string) *checkpoint {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var cp checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		t.Fatal(err)
	}
	return &cp
}

// writeSealed writes cp to path with a valid checksum.
func writeSealed(t *testing.T, path string, cp *checkpoint) {
	t.Helper()
	blob, err := sealCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestHostileCheckpointRejected: a checkpoint whose checksum holds but
// whose content cannot be resumed from fails with ErrCheckpointCorrupt
// instead of panicking (a null protocol row used to crash New).
func TestHostileCheckpointRejected(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(cp *checkpoint)
	}{
		{"null protocol row", func(cp *checkpoint) { cp.Done[0].Summary.Protocols[0] = nil }},
		{"foreign protocol row", func(cp *checkpoint) { cp.Done[0].Summary.Protocols[0].Ref = "upmin" }},
		{"missing protocol row", func(cp *checkpoint) {
			cp.Done[0].Summary.Protocols = cp.Done[0].Summary.Protocols[:1]
		}},
		{"duplicate protocol row", func(cp *checkpoint) {
			cp.Done[0].Summary.Protocols[1] = cp.Done[0].Summary.Protocols[0]
		}},
		{"null summary", func(cp *checkpoint) { cp.Done[0].Summary = nil }},
		{"count disagrees with runs", func(cp *checkpoint) { cp.Done[0].Count++ }},
		{"range done twice", func(cp *checkpoint) { cp.Done = append(cp.Done, cp.Done[0]) }},
		{"range off the grid", func(cp *checkpoint) { cp.Done[0].Offset++ }},
		{"range past the frontier", func(cp *checkpoint) {
			cp.Pending = append(cp.Pending, checkpointPending{Range: Range{Offset: cp.Next, Limit: cp.RangeSize}})
		}},
		{"range pending twice", func(cp *checkpoint) {
			cp.Pending = append(cp.Pending, cp.Pending[0], cp.Pending[0])
		}},
		{"negative frontier", func(cp *checkpoint) { cp.Next = -cp.RangeSize }},
		{"end past the frontier", func(cp *checkpoint) { cp.Exhausted, cp.End = true, cp.Next+1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			p := testParams(5)
			p.CheckpointPath = path
			c, err := New("fake", testRefs, p)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var rs []*rangeState
			for range 3 {
				r, _, _ := c.claim(ctx, "w")
				rs = append(rs, r)
			}
			c.complete(ctx, "w", rs[0], fakeSum(0, 5), nil) // two leased ranges checkpoint as pending
			cp := readRaw(t, path)
			tc.mangle(cp)
			writeSealed(t, path, cp)
			os.Remove(path + bakSuffix)
			if _, err := New("fake", testRefs, p); !errors.Is(err, ErrCheckpointCorrupt) {
				t.Fatalf("New: err = %v, want %v", err, ErrCheckpointCorrupt)
			}
		})
	}
}

// FuzzLoadCheckpoint: whatever bytes sit in the checkpoint files, New
// returns nil or one of the typed checkpoint errors and never panics.
// The input is tried as the primary (the corrupt path), as the .bak
// behind a truncated primary (the fallback path) and, when it parses,
// re-sealed with a valid checksum (the path past the checksum). A
// successful load must seal to the reference bytes and load back to
// the same done ranges, pending ranges and frontier.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := testParams(5)
		p.CheckpointPath = filepath.Join(dir, "sweep.ckpt")
		write := func(path string, blob []byte) {
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		write(p.CheckpointPath, data)
		checkLoad(t, p)

		write(p.CheckpointPath, []byte("{"))
		write(p.CheckpointPath+bakSuffix, data)
		checkLoad(t, p)

		var cp checkpoint
		if json.Unmarshal(data, &cp) != nil {
			return
		}
		blob, err := sealCheckpoint(&cp)
		if err != nil {
			return
		}
		os.Remove(p.CheckpointPath + bakSuffix)
		write(p.CheckpointPath, blob)
		checkLoad(t, p)
	})
}

// checkLoad is FuzzLoadCheckpoint's oracle for one on-disk state.
func checkLoad(t *testing.T, p Params) {
	t.Helper()
	c, err := New("fake", testRefs, p)
	if err != nil {
		if !errors.Is(err, ErrCheckpointCorrupt) && !errors.Is(err, ErrCheckpointVersion) && !errors.Is(err, ErrCheckpointMismatch) {
			t.Fatalf("untyped load error: %v", err)
		}
		return
	}
	assertSealMatchesReference(t, c)
	again := p
	again.CheckpointPath = filepath.Join(t.TempDir(), "resealed.ckpt")
	if err := os.WriteFile(again.CheckpointPath, productionSeal(t, c), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New("fake", testRefs, again)
	if err != nil {
		t.Fatalf("resealed checkpoint does not load: %v", err)
	}
	if got, want := loadedState(t, c2), loadedState(t, c); got != want {
		t.Fatalf("reload changed the state:\n got %s\nwant %s", got, want)
	}
}

// loadedState renders the part of a coordinator a checkpoint restores.
func loadedState(t *testing.T, c *Coordinator) string {
	t.Helper()
	type doneRow struct {
		Range
		Count   int
		Summary *setconsensus.Summary
	}
	st := struct {
		Next, End int
		Exhausted bool
		Done      []doneRow
		Pending   []checkpointPending
		Adv, Runs int
	}{Next: c.next, End: c.end, Exhausted: c.exhausted, Adv: c.doneAdv, Runs: c.doneRuns}
	for _, d := range c.done {
		st.Done = append(st.Done, doneRow{d.Range, d.Count, d.Summary})
	}
	for _, rs := range c.pending {
		st.Pending = append(st.Pending, checkpointPending{Range: rs.Range, Attempts: rs.attempts})
	}
	sort.Slice(st.Pending, func(i, j int) bool { return st.Pending[i].Offset < st.Pending[j].Offset })
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// BenchmarkCheckpointSeal seals a state with 343 done ranges — the range
// count of the coordinated benchmark's space:n=4,t=3,r=3,v=0..1 in
// ranges of 256 — the way each completion and the writer do: capture
// the state, then assemble the file. The cached range encodings make a
// seal O(#done) copies instead of 343 Summary encodings.
func BenchmarkCheckpointSeal(b *testing.B) {
	const ranges, size = 343, 256
	p := testParams(size)
	p.CheckpointPath = filepath.Join(b.TempDir(), "sweep.ckpt")
	c, err := New("fake", testRefs, p)
	if err != nil {
		b.Fatal(err)
	}
	for i := range ranges {
		s := agg.New("fake", testRefs)
		for a := range size {
			for _, ref := range testRefs {
				_ = s.Observe(ref, agg.Obs{Time: (i + a) % 5})
			}
		}
		c.addDoneLocked(&doneRange{Range: Range{Offset: i * size, Limit: size}, Count: size, Summary: s})
	}
	c.next = ranges * size
	if !bytes.Equal(productionSeal(b, c), referenceSeal(b, c)) {
		b.Fatal("seal differs from the reference")
	}
	var buf []byte
	b.ReportAllocs()
	for b.Loop() {
		c.mu.Lock()
		st, err := c.snapshotLocked()
		c.mu.Unlock()
		if err != nil {
			b.Fatal(err)
		}
		if buf, err = st.appendSealed(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
