package main

import (
	"fmt"
	"iter"
	"strconv"
	"strings"

	setconsensus "setconsensus"
	"setconsensus/internal/agg"
	"setconsensus/internal/check"
	"setconsensus/internal/knowledge"
	"setconsensus/internal/model"
	"setconsensus/internal/sim"
)

// cliEngine builds the engine cli.SweepWorkload and cli.CoordinateWorkload
// build: default parameters (graph cache on), oracle backend, each
// adversary's own failure count as the crash bound.
func cliEngine(cfg config) *setconsensus.Engine {
	return setconsensus.New(
		setconsensus.WithBackend(setconsensus.Oracle),
		setconsensus.WithCrashBound(setconsensus.PatternCrashBound),
		setconsensus.WithDegree(cfg.k),
	)
}

type argMap map[string]string

func (m argMap) int(key string) int {
	v, _ := strconv.Atoi(m[key])
	return v
}

// parseArgs splits "k=v,k=v" reference arguments.
func parseArgs(s string) (argMap, error) {
	m := argMap{}
	for _, f := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("bad argument %q", f)
		}
		m[k] = v
	}
	return m, nil
}

// replayer runs the default engine's aggregating pipeline one stage at a
// time on one goroutine — enum → knowledge.New → sim.RunWithGraphInto →
// check.Scratch.VerifyRun → agg.Acc.Observe — so each layer's self time
// can be read off a clock around its call. With timed false it makes no
// clock reads, which gives the tracing overhead by difference.
type replayer struct {
	refs  []string
	k     int
	specs []*setconsensus.ProtocolSpec
	tasks []check.Task
	memo  map[int]*protoSet // by failure count, the engine's per-run t

	timed bool
	tr    *tracer
	lt    layerTimes

	sc         sim.Scratch
	res        sim.Result
	vs         check.Scratch
	accs       []agg.Acc
	runs       int
	violations int
}

// protoSet is the protocol instances and horizon for one Params value,
// as the engine's protoMemo resolves them.
type protoSet struct {
	protos  []sim.Protocol
	horizon int
}

func newReplayer(cfg config, tr *tracer, timed bool) (*replayer, error) {
	if len(cfg.refs) > 2 {
		return nil, fmt.Errorf("the replay times at most two protocols, got %v", cfg.refs)
	}
	r := &replayer{refs: cfg.refs, k: cfg.k, memo: map[int]*protoSet{}, timed: timed, tr: tr,
		accs: make([]agg.Acc, len(cfg.refs))}
	for _, ref := range cfg.refs {
		spec, err := setconsensus.LookupProtocol(ref)
		if err != nil {
			return nil, err
		}
		r.specs = append(r.specs, spec)
		r.tasks = append(r.tasks, spec.Task(cfg.k))
	}
	return r, nil
}

// protosFor resolves the protocols for adv's parameters: n from the
// adversary, t its failure count, k the degree — the engine's runParams
// under PatternCrashBound.
func (r *replayer) protosFor(adv *model.Adversary) (*protoSet, error) {
	t := adv.Pattern.NumFailures()
	if ps, ok := r.memo[t]; ok {
		return ps, nil
	}
	p := setconsensus.Params{N: adv.N(), T: t, K: r.k}
	ps := &protoSet{}
	for _, spec := range r.specs {
		proto, err := spec.New(p)
		if err != nil {
			return nil, err
		}
		ps.protos = append(ps.protos, proto)
		ps.horizon = max(ps.horizon, spec.WorstCaseTime(p))
	}
	r.memo[t] = ps
	return ps, nil
}

// step runs every protocol against one adversary and folds the runs.
func (r *replayer) step(adv *model.Adversary) error {
	ps, err := r.protosFor(adv)
	if err != nil {
		return err
	}
	var t0 int64
	if r.timed {
		t0 = r.tr.now()
	}
	g := knowledge.New(adv, ps.horizon)
	if r.timed {
		t1 := r.tr.now()
		r.lt[lKnowledge] += t1 - t0
		t0 = t1
	}
	for i, proto := range ps.protos {
		sim.RunWithGraphInto(proto, g, &r.sc, &r.res)
		tm := r.res.MaxCorrectDecisionTime()
		if r.timed {
			t1 := r.tr.now()
			r.lt[lDecide0+i] += t1 - t0
			t0 = t1
		}
		viol := tm >= 0 && r.vs.VerifyRun(&r.res, r.tasks[i]) != nil
		if r.timed {
			t1 := r.tr.now()
			r.lt[lVerify] += t1 - t0
			t0 = t1
		}
		r.accs[i].Observe(agg.Obs{Time: tm, Violation: viol})
		if r.timed {
			t1 := r.tr.now()
			r.lt[lFold] += t1 - t0
			t0 = t1
		}
		if viol {
			r.violations++
		}
		r.runs++
	}
	return nil
}

// walk replays every adversary seq yields — a Source iterator, the one
// the engine workers drain. Enumeration self time is the time spent
// inside the iterator between yields. When block > 0 a span
// under parent covers each block adversaries. It returns the number of
// adversaries and the time from the call to the first yield (the seek).
func (r *replayer) walk(seq iter.Seq[*model.Adversary], parent *span, block int) (n int, seek int64, err error) {
	var cur *span
	var curStart layerTimes
	closeBlock := func() {
		if cur != nil {
			d := r.lt.sub(&curStart)
			r.tr.finish(cur, &d)
			cur = nil
		}
	}
	var last int64
	if r.timed {
		last = r.tr.now()
	}
	start := last
	for adv := range seq {
		if r.timed {
			now := r.tr.now()
			r.lt[lEnum] += now - last
			if n == 0 {
				seek = now - start
			}
			if block > 0 && n%block == 0 {
				closeBlock()
				cur, curStart = r.tr.begin(parent.ID, "block"), r.lt
				cur.Attrs = map[string]any{"first": n}
			}
		}
		if err = r.step(adv); err != nil {
			return n, seek, err
		}
		n++
		if r.timed {
			last = r.tr.now()
		}
	}
	if r.timed {
		r.lt[lEnum] += r.tr.now() - last
		closeBlock()
	}
	return n, seek, nil
}

// summary flushes the accumulators into a fresh Summary, as the engine's
// shard merge does.
func (r *replayer) summary(label string) *setconsensus.Summary {
	s := agg.New(label, r.refs)
	for i := range r.accs {
		r.accs[i].FlushTo(s.Protocols[i])
	}
	return s
}

// table renders a summary exactly as the CLI prints it.
func table(s *setconsensus.Summary) string {
	return setconsensus.SummaryTable(s).Render() + "\n"
}

// perRun converts a layer total to nanoseconds per unit of work.
func perRun(total int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
