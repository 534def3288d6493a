package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/shard"
)

// Workload sizes. The decision cache holds 8,192 entries per node.
const (
	homeSubjects   = 4096
	churnSubjects  = 8192
	routedSubjects = 8192
	propSubjects   = 4096
	policyObjects  = 1024
	policyGrants   = 512
	poolSize       = 1 << 16
	hotTemplates   = 4096 // distinct requests of a skewed pool: half the cache
	opStreamLen    = 1 << 15
	scriptCount    = 2048
	setupRepeats   = 11
	senders        = 2 // = nproc on the reference box
)

// workloadSpec is one workload's nominal rate, latency limit and shape.
type workloadSpec struct {
	name    string
	nominal float64       // operations per second for the latency figures
	limit   time.Duration // p99 limit a ladder rung must meet
	run     func(w *run) error
}

var workloads = []workloadSpec{
	{name: "home-read", nominal: 2000, limit: 50 * time.Millisecond, run: runHomeRead},
	{name: "session-churn", nominal: 300, limit: 100 * time.Millisecond, run: runSessionChurn},
	{name: "policy-propagation", nominal: 500, limit: 50 * time.Millisecond, run: runPropagation},
	{name: "routed-uniform", nominal: 800, limit: 50 * time.Millisecond, run: runRoutedUniform},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// run is the state of one benchmark run.
type run struct {
	spec    workloadSpec
	seed    int64
	seconds time.Duration
	tr      *Tracer // nil in the untraced run
	dir     string
	gate    Gate
	rep     *Report
	ctx     context.Context
	// heapBase is the heap in use before the first set-up: the load
	// generator's own inputs, which heap_mb leaves out.
	heapBase float64
}

// phase durations as shares of --seconds.
func (w *run) share(f float64) time.Duration {
	return time.Duration(float64(w.seconds) * f)
}

// setupTimed runs build setupRepeats times, each in a fresh directory,
// closing all but the last cluster, and reports the median as setup_s.
// Callers build every input the load generator keeps before calling it:
// the heap in use on entry is the baseline heap_mb subtracts.
func setupTimed[T any](w *run, build func(dir string) (T, func(), error)) (T, func(), error) {
	w.heapBase = heapMB()
	var times []float64
	var last T
	var closeLast func()
	for i := 0; i < setupRepeats; i++ {
		if closeLast != nil {
			closeLast()
		}
		dir := filepath.Join(w.dir, fmt.Sprintf("setup-%d", i))
		runtime.GC()
		start := time.Now()
		c, closeFn, err := build(dir)
		if err != nil {
			return last, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		last, closeLast = c, closeFn
	}
	w.rep.e2e("setup_s", Median(times), "s")
	return last, closeLast, nil
}

// decider issues pooled decision operations against one target (its
// client, set once the target is up) and checks every answer against
// the oracle. Each sender walks the pool in
// order from its own starting point, half the pool apart, so a pool
// item comes round again only after the whole pool has been asked.
type decider struct {
	client *pdp.Client
	wire   []pdp.DecideRequest
	want   []Expect
	ops    []Op
	opAt   []int
	itemAt []int
	gate   *Gate
	keyTag string // tag of batch operations
}

func newDecider(pool []Item, want []Expect, ops []Op, gate *Gate, batchTag string) *decider {
	d := &decider{want: want, ops: ops, gate: gate, keyTag: batchTag,
		opAt: make([]int, senders), itemAt: make([]int, senders)}
	d.wire = make([]pdp.DecideRequest, len(pool))
	for i, it := range pool {
		d.wire[i] = pdp.FromCoreRequest(it.Request())
	}
	for s := 0; s < senders; s++ {
		d.opAt[s] = s * len(ops) / senders
		d.itemAt[s] = s * len(pool) / senders
	}
	return d
}

// next returns the sender's next operation and the pool items it asks.
func (d *decider) next(sender int) (Op, []int) {
	op := d.ops[d.opAt[sender]%len(d.ops)]
	d.opAt[sender]++
	items := make([]int, op.N)
	for k := range items {
		items[k] = d.itemAt[sender] % len(d.wire)
		d.itemAt[sender]++
	}
	return op, items
}

func (d *decider) op(ctx context.Context, sender int) (string, error) {
	op, items := d.next(sender)
	switch op.Kind {
	case OpCheck:
		i := items[0]
		ok, err := d.client.Check(ctx, d.wire[i])
		if err != nil {
			return "", err
		}
		return tagDecide, d.gate.Check("check", ok, false, d.want[i], false)
	case OpBatch:
		reqs := make([]pdp.DecideRequest, len(items))
		for k, i := range items {
			reqs[k] = d.wire[i]
		}
		resp, err := d.client.DecideBatch(ctx, reqs)
		if err != nil {
			return "", err
		}
		if len(resp.Results) != len(reqs) {
			return "", fmt.Errorf("batch: %d results for %d requests", len(resp.Results), len(reqs))
		}
		for k, i := range items {
			r := resp.Results[k]
			if r.Error != "" || r.Decision == nil {
				return "", fmt.Errorf("batch item: %s", r.Error)
			}
			if err := d.gate.Check("batch item", r.Decision.Allowed, r.Decision.DefaultDeny, d.want[i], true); err != nil {
				return "", err
			}
		}
		return d.keyTag, nil
	default:
		i := items[0]
		resp, err := d.client.Decide(ctx, d.wire[i])
		if err != nil {
			return "", err
		}
		return tagDecide, d.gate.Check("decide", resp.Allowed, resp.DefaultDeny, d.want[i], true)
	}
}

// poolFor generates the policy-independent request inputs of a workload
// and their oracle answers.
func poolFor(w *run, pol *Policy, subjects int, o PoolOptions) ([]Item, []Expect, error) {
	pool := GeneratePool(w.seed+1, pol, subjects, policyObjects, o)
	oracle, err := NewOracle(pol)
	if err != nil {
		return nil, nil, err
	}
	want, err := oracle.ExpectPool(pool)
	return pool, want, err
}

// shares are the parts of --seconds a decide run spends warming up, in
// the nominal phase, and in the rate ladder (untraced) or the traced
// nominal phase.
type shares struct{ warm, nominal, last float64 }

var decideShares = shares{warm: 0.1, nominal: 0.7, last: 0.2}

// steady runs the warm-up, then afterWarm if it is not nil, the nominal
// phase, and the traced nominal phase or, untraced, the rate ladder, and
// reports the decision-latency and capacity figures. live names the
// nodes whose core counters the traced run reads.
func steady(w *run, op opFunc, nSenders int, live []*core.System, sh shares, afterWarm func()) {
	nominal := w.spec.nominal
	w.count("warm-up", openLoop(w.ctx, nominal, w.share(sh.warm), nSenders, false, true, op))
	if afterWarm != nil {
		afterWarm()
	}
	before := readCounters(live)
	ph := openLoop(w.ctx, nominal, w.share(sh.nominal), nSenders, false, true, op)
	after := readCounters(live)
	w.count("nominal", ph)
	w.reportNominal(ph, before, after)
	if w.tr != nil {
		w.tr.Reset()
		before = readCounters(live)
		traced := openLoop(w.ctx, nominal, w.share(sh.last), nSenders, true, true, op)
		after = readCounters(live)
		w.count("traced", traced)
		w.reportTraced(ph, traced, before, after)
		return
	}
	w.rep.e2e("heap_mb", heapMB()-w.heapBase, "MiB")
	rate, probes := sustained(w.ctx, rungAtOrBelow(nominal), ph.Achieved(), w.share(sh.last)/ladderProbes, w.spec.limit, nSenders, op)
	for _, p := range probes {
		w.rep.info(fmt.Sprintf("ladder rung %2d  %8.0f req/s  achieved %8.0f  p99 %8.0f us  failed %d  backlog %v  pass=%v",
			p.Rung, p.Rate, p.Achieved, float64(p.P99)/1e3, p.Failed, p.Backlog.Round(time.Millisecond), p.Pass))
	}
	w.rep.human("sustained_rps", rate, "1/s")
}

// count adds a phase's operations to the run's attempted and failed
// totals. Every phase but a ladder probe is counted. A phase whose
// senders gave up part of their schedule makes the run invalid.
func (w *run) count(name string, ph *Phase) {
	w.rep.attempted += ph.Attempted.Load()
	w.rep.failed += ph.Failed.Load()
	if n := ph.Abandoned.Load(); n > 0 && w.rep.invalid == "" {
		w.rep.invalid = fmt.Sprintf("%s phase: %d sender(s) fell more than %v behind schedule and gave up", name, n, abandonLate)
	}
}

// heapMB is the heap in use after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// counters is a snapshot of process allocation counters and the live
// nodes' core statistics.
type counters struct {
	mallocs, bytes uint64
	gcs            uint32
	core           core.Stats
}

func readCounters(live []*core.System) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
	for _, s := range live {
		st := s.Stats()
		c.core.DecisionHits += st.DecisionHits
		c.core.DecisionMisses += st.DecisionMisses
		c.core.Invalidations += st.Invalidations
		c.core.SnapshotCompiles += st.SnapshotCompiles
	}
	return c
}

// Generator lag bounds for the nominal phase, past which a run is
// invalid: the load generator, not the program, would set the numbers.
// Lag p75 may be at most lagP75Share of the decide median it would
// otherwise inflate (it measured 0.5 to 2.1 µs against medians of 200 to
// 640 µs on the 2-core reference box); lag p99, which measured 0.2 to
// 4.0 ms there, at most lagP99Bound.
const (
	lagP75Share = 0.1
	lagP99Bound = 10 * time.Millisecond
)

// reportNominal reports the nominal phase's latency figures.
func (w *run) reportNominal(ph *Phase, before, after counters) {
	dec := ph.DecideLat()
	w.rep.e2e("decide_p50_us", dec.Pct(50, time.Microsecond), "us")
	w.rep.human("decide_p95_us", dec.Pct(95, time.Microsecond), "us")
	w.rep.human("decide_p99_us", dec.Pct(99, time.Microsecond), "us")
	w.rep.info(fmt.Sprintf("nominal rate %.0f op/s for %v: %d decision requests, achieved %.0f op/s",
		ph.Rate, ph.Duration, dec.Len(), ph.Achieved()))
	if k := ph.Lat[tagKey]; k.Len() > 0 && w.spec.name != "policy-propagation" {
		w.rep.e2e("key_p50_us", k.Pct(50, time.Microsecond), "us")
		w.rep.e2e("key_p75_us", k.Pct(75, time.Microsecond), "us")
		w.rep.human("key_p90_us", k.Pct(90, time.Microsecond), "us")
		w.rep.info(fmt.Sprintf("key operation samples: %d", k.Len()))
	}
	if wr := ph.Lat[tagWrite]; wr.Len() > 0 {
		w.rep.human("write_ack_p50_us", wr.Pct(50, time.Microsecond), "us")
		w.rep.human("write_ack_p99_us", wr.Pct(99, time.Microsecond), "us")
	}
	lag75, lag99 := ph.Lag.Pct(75, time.Microsecond), ph.Lag.Pct(99, time.Microsecond)
	w.rep.info(fmt.Sprintf("generator lag p50 %.1f us, p75 %.1f us, p99 %.1f us", ph.Lag.Pct(50, time.Microsecond), lag75, lag99))
	if msg := lagInvalid(lag75, lag99, dec.Pct(50, time.Microsecond)); msg != "" && w.rep.invalid == "" {
		w.rep.invalid = msg
	}
	ops := float64(ph.Attempted.Load())
	w.rep.info(fmt.Sprintf("garbage collections in the nominal phase: %d", after.gcs-before.gcs))
	w.rep.allocsPerOp = float64(after.mallocs-before.mallocs) / ops
	w.rep.bytesPerOp = float64(after.bytes-before.bytes) / ops
}

// lagInvalid says why a phase's generator lag (p75 and p99, in µs)
// makes its run invalid against the phase's decide median, or "".
func lagInvalid(lag75, lag99, decideP50 float64) string {
	switch {
	case lag99 > float64(lagP99Bound/time.Microsecond):
		return fmt.Sprintf("generator lag p99 %.0f us exceeds %v", lag99, lagP99Bound)
	case lag75 > lagP75Share*decideP50:
		return fmt.Sprintf("generator lag p75 %.1f us exceeds %.0f%% of the decide median %.1f us", lag75, 100*lagP75Share, decideP50)
	}
	return ""
}

// reportTraced reports the per-layer figures of the traced phase.
func (w *run) reportTraced(untraced, traced *Phase, before, after counters) {
	r := w.rep
	u50 := untraced.DecideLat().Pct(50, time.Microsecond)
	t50 := traced.DecideLat().Pct(50, time.Microsecond)
	r.layer("trace.overhead_pct", 100*(t50-u50)/u50, "%")
	r.layer("gen.lag_p99_us", traced.Lag.Pct(99, time.Microsecond), "us")
	r.layer("pdp.allocs_per_decide", r.allocsPerOp, "count")
	r.layer("pdp.bytes_per_decide", r.bytesPerOp, "B")
	ops := float64(traced.Attempted.Load())
	hits := float64(after.core.DecisionHits - before.core.DecisionHits)
	misses := float64(after.core.DecisionMisses - before.core.DecisionMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	r.layer("core.cache_hit_ratio", ratio, "ratio")
	r.layer("core.compiles_per_kop", 1000*float64(after.core.SnapshotCompiles-before.core.SnapshotCompiles)/ops, "count")
	r.layer("core.invalidations_per_kop", 1000*float64(after.core.Invalidations-before.core.Invalidations)/ops, "count")
	w.spanBudget(traced)
}

// runHomeRead: read-only Zipf decide traffic to one durable primary.
func runHomeRead(w *run) error {
	pol := GeneratePolicy(w.seed, Shape{Subjects: homeSubjects, Objects: policyObjects, Grants: policyGrants})
	pool, want, err := poolFor(w, pol, homeSubjects, PoolOptions{Size: poolSize, Templates: hotTemplates, LiveEnv: liveEnvShare})
	if err != nil {
		return err
	}
	d := newDecider(pool, want, GenerateOps(w.seed+2, opStreamLen, 0.2, 0.1), &w.gate, tagKey)
	prim, closeFn, err := setupTimed(w, func(dir string) (*node, func(), error) {
		n, err := startPrimary(dir, GeneratePolicy(w.seed, Shape{Subjects: homeSubjects, Objects: policyObjects, Grants: policyGrants}), w.tr)
		if err != nil {
			return nil, nil, err
		}
		return n, func() { n.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()
	d.client = loadClient(prim.URL, w.tr)
	steady(w, d.op, senders, []*core.System{prim.Sys}, decideShares, nil)
	w.coreProbe(pol, pool)
	w.nodeLayers([]*node{prim})
	return nil
}

// runRoutedUniform: uniform decide traffic through a router to 2 shards.
func runRoutedUniform(w *run) error {
	shape := Shape{Subjects: routedSubjects, Objects: policyObjects, Grants: policyGrants}
	pol := GeneratePolicy(w.seed, shape)
	pool, want, err := poolFor(w, pol, routedSubjects, PoolOptions{Size: poolSize, Uniform: true, LiveEnv: liveEnvShare})
	if err != nil {
		return err
	}
	d := newDecider(pool, want, GenerateOps(w.seed+2, opStreamLen, 0.2, 0.2), &w.gate, tagKey)
	type cluster struct {
		router *node
		shards []*node
	}
	cl, closeFn, err := setupTimed(w, func(dir string) (*cluster, func(), error) {
		full := GeneratePolicy(w.seed, shape)
		ids := []shard.Info{{ID: "s0", Addr: "pending"}, {ID: "s1", Addr: "pending"}}
		m, err := shard.New(shard.DefaultVNodes, ids...)
		if err != nil {
			return nil, nil, err
		}
		parts := shardPolicies(full, m)
		c := &cluster{}
		closeAll := func() {
			if c.router != nil {
				c.router.Close()
			}
			for _, s := range c.shards {
				s.Close()
			}
		}
		for i, info := range ids {
			n, err := startPrimary(filepath.Join(dir, info.ID), parts[info.ID], w.tr)
			if err != nil {
				closeAll()
				return nil, nil, err
			}
			c.shards = append(c.shards, n)
			ids[i].Addr = n.URL
		}
		if m, err = shard.New(shard.DefaultVNodes, ids...); err != nil {
			closeAll()
			return nil, nil, err
		}
		if c.router, err = startRouter(m, w.tr); err != nil {
			closeAll()
			return nil, nil, err
		}
		return c, closeAll, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()
	d.client = loadClient(cl.router.URL, w.tr)
	live := []*core.System{cl.shards[0].Sys, cl.shards[1].Sys}
	steady(w, d.op, senders, live, decideShares, nil)
	w.coreProbe(pol, pool)
	w.nodeLayers(cl.shards)
	w.routerLayers(cl.router)
	return nil
}

// runDir creates the run's working directory inside the checkout.
func runDir(workload string, seed int64) (string, error) {
	dir := filepath.Join(".bench_build", "runs", fmt.Sprintf("%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
