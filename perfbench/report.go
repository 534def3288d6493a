package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/aware-home/grbac/internal/core"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics are the end-to-end metrics every workload reports untraced;
// perLayerMetrics the per-layer metrics every workload reports traced.
// BENCHMARK.json lists the same names.
var (
	e2eMetrics = []string{
		"decide_p50_us", "key_p50_us", "key_p75_us", "setup_s", "heap_mb",
	}
	perLayerMetrics = []string{
		"pdp.handler_p50_us", "pdp.handler_p99_us", "pdp.transport_p50_us",
		"pdp.allocs_per_decide", "pdp.bytes_per_decide",
		"core.decide_p50_ns", "core.decide_after_write_p50_us", "core.write_p50_us",
		"core.compiles_per_kop", "core.cache_hit_ratio", "core.invalidations_per_kop",
		"environment.resolve_p50_ns", "audit.offer_p50_ns",
		"declog.upload_p50_ms", "declog.bytes_per_record", "declog.dropped_ratio",
		"store.fsyncs_per_record", "store.wal_bytes_per_record", "store.checkpoints_total",
		"replica.delta_ratio", "sdk.local_ratio",
		"router.shard_calls_per_request", "router.retries_per_kop",
		"gen.lag_p99_us", "trace.overhead_pct", "trace.unaccounted_pct",
	}
)

// Report collects a run's figures: the metrics of the final JSON line
// and the human-readable lines printed before it.
type Report struct {
	E2E       map[string]Metric
	Layer     map[string]Metric
	lines     []string
	attempted int64
	failed    int64
	invalid   string

	allocsPerOp float64
	bytesPerOp  float64
}

func newReport() *Report {
	return &Report{E2E: map[string]Metric{}, Layer: map[string]Metric{}}
}

func (r *Report) e2e(name string, v float64, unit string) {
	r.E2E[name] = Metric{Value: v, Unit: unit}
	r.human(name, v, unit)
}

func (r *Report) layer(name string, v float64, unit string) {
	r.Layer[name] = Metric{Value: v, Unit: unit}
	r.human(name, v, unit)
}

// human adds a named figure to the printed report only.
func (r *Report) human(name string, v float64, unit string) {
	r.lines = append(r.lines, fmt.Sprintf("%-34s %14.4f %s", name, v, unit))
}

func (r *Report) info(s string) { r.lines = append(r.lines, "  "+s) }

// Result is the final JSON line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// result selects the metrics of the mode run: end-to-end untraced,
// per-layer traced. A metric the run did not produce is an error.
func (r *Report) result(correct, traced bool) (Result, error) {
	names, src := e2eMetrics, r.E2E
	if traced {
		names, src = perLayerMetrics, r.Layer
	}
	out := Result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]Metric{}}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", n)
		}
		out.Metrics[n] = m
	}
	return out, nil
}

// write prints the human lines then the JSON result as the last line.
func (r *Report) write(w io.Writer, res Result) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// spanBudget reports each layer's self time from the traced phase's
// spans and how much of the end-to-end median the layers along the
// blocking path account for.
func (w *run) spanBudget(traced *Phase) {
	r := w.rep
	spans := w.tr.Spans()
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	dur := map[string][]float64{}
	self := map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], float64(s.End-s.Start))
		self[s.Name] = append(self[s.Name], float64(SelfTime(interval{s.Start, s.End}, children[s.ID])))
	}
	us := func(v float64) float64 { return v / 1e3 }
	r.layer("pdp.handler_p50_us", us(Percentile(dur[spanPDP], 50)), "us")
	r.layer("pdp.handler_p99_us", us(Percentile(dur[spanPDP], 99)), "us")
	r.layer("pdp.transport_p50_us", us(Percentile(self[spanClient], 50)), "us")
	if v := dur[spanPDPWrite]; len(v) > 0 {
		r.human("pdp.write_handler_p50_us", us(Percentile(v, 50)), "us")
	}
	if v := dur[spanRouter]; len(v) > 0 {
		r.human("router.handler_p50_us", us(Percentile(v, 50)), "us")
		r.human("router.self_p50_us", us(Percentile(self[spanRouter], 50)), "us")
		r.human("router.shard_call_p50_us", us(Percentile(dur[spanShardCall], 50)), "us")
		r.layer("router.shard_calls_per_request", float64(len(dur[spanShardCall]))/float64(len(v)), "count")
	}

	// Blocking path of the median request: generator wait, client and
	// wire, then each server layer's self time.
	e2e := traced.DecideLat().Pct(50, time.Nanosecond)
	path := []string{spanClient, spanRouter, spanShardCall, spanPDP}
	sum := 0.0
	r.info(fmt.Sprintf("blocking-path budget of the traced decide median (%.1f us), self time p50 per layer:", us(e2e)))
	for _, name := range path {
		if len(self[name]) == 0 {
			continue
		}
		v := Percentile(self[name], 50)
		sum += v
		r.info(fmt.Sprintf("  %-20s %10.1f us  (%d spans)", name, us(v), len(self[name])))
	}
	handlers := float64(len(dur[spanPDP]))
	if handlers > 0 {
		offer := w.tr.AuditOffer.MeanIn(time.Nanosecond) * float64(w.tr.AuditOffer.Len()) / handlers
		env := w.tr.EnvResolve.MeanIn(time.Nanosecond) * float64(w.tr.EnvResolve.Len()) / handlers
		r.info(fmt.Sprintf("    of which audit offer %.2f us, environment resolve %.2f us per handler call", us(offer), us(env)))
	}
	rest := e2e - sum
	r.info(fmt.Sprintf("  %-20s %10.1f us  (generator wait, client encode/decode, answer check)", "unaccounted", us(rest)))
	pct := 0.0
	if e2e > 0 {
		pct = 100 * rest / e2e
	}
	r.layer("trace.unaccounted_pct", pct, "%")
}

// nodeLayers reports the environment, audit, declog and store layers of
// the given PDP nodes from the traced run's wrappers and the nodes' own
// counters.
func (w *run) nodeLayers(nodes []*node) {
	r, tr := w.rep, w.tr
	if tr == nil {
		return
	}
	r.layer("environment.resolve_p50_ns", tr.EnvResolve.Pct(50, time.Nanosecond), "ns")
	r.layer("audit.offer_p50_ns", tr.AuditOffer.Pct(50, time.Nanosecond), "ns")
	r.layer("declog.upload_p50_ms", tr.SinkUpload.Pct(50, time.Millisecond), "ms")
	perRec := 0.0
	if n := tr.SinkRecords.Load(); n > 0 {
		perRec = float64(tr.SinkBytes.Load()) / float64(n)
	}
	r.layer("declog.bytes_per_record", perRec, "B")
	var received, dropped uint64
	var appends, fsyncs, checkpoints uint64
	var walBytes int64
	var walRecords int
	for _, n := range nodes {
		st := n.Exporter.Stats()
		received += st.Received
		dropped += st.Dropped
		if n.Dur != nil {
			ds := n.Dur.Stats()
			appends += ds.WALAppends
			fsyncs += ds.WALFsyncs
			checkpoints += ds.Checkpoints
			walBytes += ds.WALBytes
			walRecords += ds.WALRecords
		}
	}
	ratio := 0.0
	if received > 0 {
		ratio = float64(dropped) / float64(received)
	}
	r.layer("declog.dropped_ratio", ratio, "ratio")
	fpr, bpr := 0.0, 0.0
	if appends > 0 {
		fpr = float64(fsyncs) / float64(appends)
	}
	if walRecords > 0 {
		bpr = float64(walBytes) / float64(walRecords)
	}
	r.layer("store.fsyncs_per_record", fpr, "count")
	r.layer("store.wal_bytes_per_record", bpr, "B")
	r.layer("store.checkpoints_total", float64(checkpoints), "count")
	if tr.StoreRecord.Len() > 0 {
		r.human("store.record_p50_us", tr.StoreRecord.Pct(50, time.Microsecond), "us")
		r.human("store.record_p99_us", tr.StoreRecord.Pct(99, time.Microsecond), "us")
	}
}

// idleLayers reports 0 for the per-layer metrics of layers the workload
// does not use: replication and the SDK outside policy-propagation, the
// router outside routed-uniform.
func (w *run) idleLayers() {
	for _, m := range []struct{ name, unit string }{
		{"replica.delta_ratio", "ratio"},
		{"sdk.local_ratio", "ratio"},
		{"router.shard_calls_per_request", "count"},
		{"router.retries_per_kop", "count"},
	} {
		if _, ok := w.rep.Layer[m.name]; !ok {
			w.rep.layer(m.name, 0, m.unit)
		}
	}
}

// routerLayers reads the router's retry counter from its metrics.
func (w *run) routerLayers(rt *node) {
	if w.tr == nil {
		return
	}
	var buf bytes.Buffer
	if err := rt.Reg.WritePrometheus(&buf); err != nil {
		return
	}
	retries := promSum(&buf, "grbac_shard_retry_total")
	reqs := float64(w.rep.attempted)
	w.rep.layer("router.retries_per_kop", 1000*retries/reqs, "count")
}

// promSum adds up every sample of a metric family in a text exposition.
func promSum(r io.Reader, name string) float64 {
	sum := 0.0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) || strings.HasPrefix(line, "#") {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}

// coreProbe times System.Decide and session writes directly on a fresh
// system built from the workload's generated policy and requests.
func (w *run) coreProbe(pol *Policy, pool []Item) {
	if w.tr == nil {
		return
	}
	sys := core.NewSystem()
	if err := pol.Apply(sys); err != nil {
		w.rep.info("core probe: " + err.Error())
		return
	}
	sys.SetEnvironmentSource(pol.NewEngine())
	n := 4096
	if n > len(pool) {
		n = len(pool)
	}
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = pool[i].Request()
	}
	for _, req := range reqs {
		_, _ = sys.Decide(req) // warm: compile the snapshot, fill the cache
	}
	var dec Samples
	for _, req := range reqs {
		start := time.Now()
		_, _ = sys.Decide(req)
		dec.Add(time.Since(start))
	}
	w.rep.layer("core.decide_p50_ns", dec.Pct(50, time.Nanosecond), "ns")
	var write, after Samples
	for i := 0; i < 25; i++ {
		req := reqs[i%len(reqs)]
		start := time.Now()
		sid, err := sys.CreateSession(req.Subject)
		write.Add(time.Since(start))
		if err != nil {
			continue
		}
		start = time.Now()
		_, _ = sys.Decide(req)
		after.Add(time.Since(start))
		start = time.Now()
		_ = sys.CloseSession(sid)
		write.Add(time.Since(start))
		start = time.Now()
		_, _ = sys.Decide(req)
		after.Add(time.Since(start))
	}
	w.rep.layer("core.write_p50_us", write.Pct(50, time.Microsecond), "us")
	w.rep.layer("core.decide_after_write_p50_us", after.Pct(50, time.Microsecond), "us")
}
