package main

// config fixes the inputs of every workload. The benchmark runs full;
// the self-check runs the same shapes at a size it finishes in seconds.
type config struct {
	refs []string // protocols every sweep runs
	k    int      // coordination degree

	sweepRef string // sweep: cli.SweepWorkload workload

	analysisRef string // analyze: cli.RunAnalysis reference

	coordRef     string // coordinated: cli.CoordinateWorkload workload
	coordWorkers int    // in-process workers

	jobsSpaceRef  string // jobs: workload the range windows cut
	jobsSpaceSize int    // its canonical adversary count
	jobsRangeSize int    // window limit, as coordinator remote workers send
	jobsRandomFmt string // random sweep, %d = seed derived from the workload seed
	jobsCollapse  string // collapse sweep
	jobsSearches  []string
}

// setupBatch is the number of back-to-back in-process set-ups (parse and
// engine or coordinator construction) in one batch of a setup_s timing.
// Server start-ups take long enough to time one at a time.
const setupBatch = 20

// full is the benchmark's configuration.
var full = config{
	refs:          []string{"optmin", "upmin"},
	k:             1,
	sweepRef:      "space:n=5,t=2,r=2,v=0..1",
	analysisRef:   "search:upmin:n=4,t=3,r=3",
	coordRef:      "space:n=4,t=3,r=3,v=0..1",
	coordWorkers:  2,
	jobsSpaceRef:  "space:n=4,t=3,r=3,v=0..1",
	jobsSpaceSize: 87568,
	jobsRangeSize: 256,
	jobsRandomFmt: "random:n=6,t=3,count=200,seed=%d",
	jobsCollapse:  "collapse:k=2,r=2..4",
	jobsSearches:  []string{"search:optmin:n=3,t=2", "search:upmin:n=3,t=2"},
}
