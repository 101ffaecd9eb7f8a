package coord

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
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
	c.ckptNext = []byte("last sealed state")
	stop := make(chan struct{})
	close(stop)
	c.checkpointWriter(make(chan struct{}), stop)
	if got, err := os.ReadFile(cp); err != nil || string(got) != "last sealed state" {
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
