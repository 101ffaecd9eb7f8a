package coord

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/service"
)

// The real-engine tests sweep this exhaustive space; the coordinator's
// merged summary must be byte-identical to a monolithic SweepSource.
const testWorkload = "space:n=3,t=1,r=2,v=0..1"

var testRefs = []string{"optmin", "floodmin"}

// testEngine mirrors the job service's sweep-engine configuration so
// in-process, remote, and monolithic summaries all agree.
func testEngine(t *testing.T) *setconsensus.Engine {
	t.Helper()
	p := setconsensus.DefaultEngineParams()
	p.T = setconsensus.PatternCrashBound
	eng, err := setconsensus.NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testSource(t *testing.T) setconsensus.Source {
	t.Helper()
	src, err := setconsensus.ParseWorkload(testWorkload)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// monolithic computes the single-process golden summary.
func monolithic(t *testing.T) *setconsensus.Summary {
	t.Helper()
	sum, err := testEngine(t).SweepSource(context.Background(), testRefs, testSource(t))
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func summaryJSON(t *testing.T, s *setconsensus.Summary) string {
	t.Helper()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func testParams(rangeSize int) Params {
	p := Default()
	p.RangeSize = rangeSize
	p.ProgressInterval = time.Millisecond
	return p
}

func engineWorkers(t *testing.T, n int) []Worker {
	t.Helper()
	src := testSource(t)
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = NewEngineWorker(fmt.Sprintf("engine-%d", i), testEngine(t), testRefs, src, time.Millisecond)
	}
	return ws
}

// TestEngineWorkersMatchMonolithic is the partition-equivalence core:
// three in-process workers over small ranges merge to the exact bytes
// of the monolithic sweep.
func TestEngineWorkersMatchMonolithic(t *testing.T) {
	src := testSource(t)
	c, err := New(src.Label(), testRefs, testParams(7))
	if err != nil {
		t.Fatal(err)
	}
	var snaps atomic.Int32
	sum, err := c.Run(context.Background(), engineWorkers(t, 3), func(setconsensus.SweepProgress) {
		snaps.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	want := monolithic(t)
	if got, w := summaryJSON(t, sum), summaryJSON(t, want); got != w {
		t.Errorf("merged summary differs from monolithic:\n got %s\nwant %s", got, w)
	}
	if snaps.Load() == 0 {
		t.Error("no progress snapshots delivered")
	}
	if sum.Adversaries() == 0 {
		t.Fatal("empty sweep")
	}
}

// TestKillAndResumeEngine interrupts a coordinated sweep after its
// first completed range, then resumes from the checkpoint with fresh
// workers; the final summary must be byte-identical to the monolithic
// one, and the resumed run must not redo completed ranges.
func TestKillAndResumeEngine(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	src := testSource(t)
	p := testParams(5)
	p.CheckpointPath = cp

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c1, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	// Completion forces a progress emit; the first one "kills" the run.
	_, err = c1.Run(ctx, engineWorkers(t, 2), func(setconsensus.SweepProgress) { cancel() })
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	blob, rerr := os.ReadFile(cp)
	if rerr != nil {
		t.Fatalf("no checkpoint after interrupt: %v", rerr)
	}
	var saved checkpoint
	if err := json.Unmarshal(blob, &saved); err != nil {
		t.Fatalf("checkpoint not valid JSON: %v", err)
	}

	c2, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	doneBefore := len(c2.done)
	if err == nil && len(saved.Done) != doneBefore {
		t.Errorf("resume loaded %d done ranges, checkpoint has %d", doneBefore, len(saved.Done))
	}
	var redone atomic.Int32
	sum, err := c2.Run(context.Background(), countingWorkers(engineWorkers(t, 2), doneBefore, &redone), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := summaryJSON(t, sum), summaryJSON(t, monolithic(t)); got != w {
		t.Errorf("resumed summary differs from monolithic:\n got %s\nwant %s", got, w)
	}
	if n := redone.Load(); n > 0 {
		t.Errorf("resumed run re-swept %d already-completed ranges", n)
	}
}

// countingWorkers wraps workers to count sweeps of ranges already in
// the done set at resume time.
func countingWorkers(ws []Worker, _ int, redone *atomic.Int32) []Worker {
	out := make([]Worker, len(ws))
	for i, w := range ws {
		out[i] = &watchWorker{Worker: w, redone: redone}
	}
	return out
}

type watchWorker struct {
	Worker
	redone *atomic.Int32
	seen   sync.Map
}

func (w *watchWorker) Sweep(ctx context.Context, r Range, progress func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	if _, dup := w.seen.LoadOrStore(r.Offset, true); dup {
		w.redone.Add(1)
	}
	return w.Worker.Sweep(ctx, r, progress)
}

// --- fake-space harness: coordinator logic without engine cost ---

const fakeTotal = 23

// fakeSum builds the summary a worker would return for the window
// [off, off+lim) of a synthetic 23-adversary space with deterministic
// per-adversary decision times.
func fakeSum(off, lim int) *setconsensus.Summary {
	s := agg.New("fake", testRefs)
	for i := off; i < off+lim && i < fakeTotal; i++ {
		for _, ref := range testRefs {
			_ = s.Observe(ref, agg.Obs{Time: i % 3})
		}
	}
	return s
}

// fakeWorker sweeps the synthetic space, with optional per-call hooks.
type fakeWorker struct {
	name  string
	sweep func(ctx context.Context, r Range) (*setconsensus.Summary, error)
}

func (w *fakeWorker) Name() string { return w.name }
func (w *fakeWorker) Sweep(ctx context.Context, r Range, _ func(setconsensus.SweepProgress)) (*setconsensus.Summary, error) {
	return w.sweep(ctx, r)
}

func plainFake(name string) *fakeWorker {
	return &fakeWorker{name: name, sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		return fakeSum(r.Offset, r.Limit), nil
	}}
}

// TestLeaseExpiryReissues stalls one worker past its lease; the range
// must be re-issued to the healthy worker and the merged result stay
// exact — the stalled worker's late failure is ignored.
func TestLeaseExpiryReissues(t *testing.T) {
	p := testParams(5)
	p.Lease = 20 * time.Millisecond
	p.MaxAttempts = 5
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	var stalled atomic.Bool
	slow := &fakeWorker{name: "slow", sweep: func(ctx context.Context, r Range) (*setconsensus.Summary, error) {
		if stalled.CompareAndSwap(false, true) {
			time.Sleep(150 * time.Millisecond) // well past the lease
			return nil, fmt.Errorf("stalled worker gave up on %s", r)
		}
		return fakeSum(r.Offset, r.Limit), nil
	}}
	sum, err := c.Run(context.Background(), []Worker{slow, plainFake("fast")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := summaryJSON(t, sum), summaryJSON(t, func() *setconsensus.Summary {
		s := agg.New("fake", testRefs)
		_ = s.Merge(fakeSum(0, fakeTotal))
		return s
	}()); got != w {
		t.Errorf("merged summary wrong after lease turnover:\n got %s\nwant %s", got, w)
	}
	if sum.Adversaries() != fakeTotal {
		t.Errorf("adversaries = %d, want %d (duplicate or lost range)", sum.Adversaries(), fakeTotal)
	}
}

// TestDuplicateCompletionIsIdempotent feeds the same range result twice
// (as a re-issue race would); the second completion must be dropped.
func TestDuplicateCompletionIsIdempotent(t *testing.T) {
	c, err := New("fake", testRefs, testParams(5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rs, ok, err := c.claim(ctx, "a")
	if err != nil || !ok {
		t.Fatalf("claim: ok=%v err=%v", ok, err)
	}
	c.complete(ctx, "a", rs, fakeSum(rs.Offset, rs.Limit), nil)
	before := c.doneAdv
	// A stale duplicate of the same range from another holder.
	dup := &rangeState{Range: rs.Range, attempts: 1, worker: "b"}
	c.complete(ctx, "b", dup, fakeSum(rs.Offset, rs.Limit), nil)
	if c.doneAdv != before {
		t.Fatalf("duplicate completion double-counted: %d -> %d", before, c.doneAdv)
	}
	sum, err := c.Run(ctx, []Worker{plainFake("finish")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Adversaries() != fakeTotal {
		t.Errorf("adversaries = %d, want %d", sum.Adversaries(), fakeTotal)
	}
}

// TestBoundedRetry: a flaky worker fails each range once then succeeds
// (within MaxAttempts); a hopeless worker exhausts the attempt budget
// and fails the run with the range named.
func TestBoundedRetry(t *testing.T) {
	p := testParams(5)
	p.MaxAttempts = 3
	p.RetryBackoff = time.Millisecond
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	failed := map[int]bool{}
	flaky := &fakeWorker{name: "flaky", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		mu.Lock()
		first := !failed[r.Offset]
		failed[r.Offset] = true
		mu.Unlock()
		if first {
			return nil, fmt.Errorf("transient fault on %s", r)
		}
		return fakeSum(r.Offset, r.Limit), nil
	}}
	sum, err := c.Run(context.Background(), []Worker{flaky}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Adversaries() != fakeTotal {
		t.Errorf("adversaries = %d, want %d", sum.Adversaries(), fakeTotal)
	}

	p.MaxAttempts = 2
	c2, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	hopeless := &fakeWorker{name: "hopeless", sweep: func(_ context.Context, r Range) (*setconsensus.Summary, error) {
		return nil, fmt.Errorf("permanent fault")
	}}
	if _, err := c2.Run(context.Background(), []Worker{hopeless}, nil); err == nil {
		t.Fatal("run with always-failing worker succeeded")
	} else if !strings.Contains(err.Error(), "after 2 attempts") {
		t.Errorf("error %q does not name the attempt budget", err)
	}
}

// TestCheckpointMismatchRejected: resuming under a different workload,
// ref set, or range size must fail loudly instead of merging apples
// into oranges.
func TestCheckpointMismatchRejected(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	p := testParams(5)
	p.CheckpointPath = cp
	c, err := New("fake", testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(context.Background(), []Worker{plainFake("w")}, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		workload string
		refs     []string
		size     int
	}{
		{"workload", "other", testRefs, 5},
		{"refs", "fake", []string{"optmin"}, 5},
		{"range size", "fake", testRefs, 7},
	} {
		q := testParams(tc.size)
		q.CheckpointPath = cp
		if _, err := New(tc.workload, tc.refs, q); err == nil {
			t.Errorf("%s mismatch accepted on resume", tc.name)
		}
	}
}

// --- remote transport ---

// remoteHarness mounts a real job service over httptest and returns
// worker constructors against it.
func remoteHarness(t *testing.T) string {
	t.Helper()
	srv, err := service.New(service.Default())
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	hts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return hts.URL
}

func remoteWorkers(base string, n int) []Worker {
	ws := make([]Worker, n)
	for i := range ws {
		ws[i] = NewRemoteWorker(fmt.Sprintf("remote-%d", i), base,
			service.JobRequest{Refs: testRefs, Workload: testWorkload})
	}
	return ws
}

// TestRemoteWorkersMatchMonolithic drives the coordinator over the
// HTTP job service: range-scoped jobs, SSE waits, merged bytes equal
// to the monolithic sweep.
func TestRemoteWorkersMatchMonolithic(t *testing.T) {
	base := remoteHarness(t)
	src := testSource(t)
	c, err := New(src.Label(), testRefs, testParams(7))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Run(context.Background(), remoteWorkers(base, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := summaryJSON(t, sum), summaryJSON(t, monolithic(t)); got != w {
		t.Errorf("remote merged summary differs from monolithic:\n got %s\nwant %s", got, w)
	}
}

// TestKillAndResumeRemote is the remote half of the resume acceptance
// criterion: interrupt after the first completed range-job, resume
// against the same server, and match the monolithic bytes.
func TestKillAndResumeRemote(t *testing.T) {
	base := remoteHarness(t)
	cp := filepath.Join(t.TempDir(), "sweep.ckpt")
	src := testSource(t)
	p := testParams(5)
	p.CheckpointPath = cp

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c1, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Run(ctx, remoteWorkers(base, 2), func(setconsensus.SweepProgress) { cancel() }); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run: %v", err)
	}
	if _, err := os.Stat(cp); err != nil {
		t.Fatalf("no checkpoint after interrupt: %v", err)
	}

	c2, err := New(src.Label(), testRefs, p)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c2.Run(context.Background(), remoteWorkers(base, 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := summaryJSON(t, sum), summaryJSON(t, monolithic(t)); got != w {
		t.Errorf("resumed remote summary differs from monolithic:\n got %s\nwant %s", got, w)
	}
}
