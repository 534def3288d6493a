package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"github.com/aware-home/grbac/internal/audit"
	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/declog"
	"github.com/aware-home/grbac/internal/event"
	"github.com/aware-home/grbac/internal/obs"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/internal/replica"
	"github.com/aware-home/grbac/internal/shard"
	"github.com/aware-home/grbac/internal/store"
	"github.com/aware-home/grbac/sdk"
)

// The node settings below are grbacd's defaults; each node is built with
// the same package constructors grbacd's main uses.
const (
	auditCapacity = 10000                    // -audit-capacity
	maxStaleness  = 30 * time.Second         // -max-staleness
	shutdownGrace = 10 * time.Second         // -shutdown-grace
	traceCapacity = obs.DefaultTraceCapacity // -trace-buffer
)

// node is one in-process PDP (primary, shard, follower) or router,
// serving on a loopback listener with grbacd's HTTP server timeouts.
type node struct {
	URL      string
	Sys      *core.System // nil for a router
	Dur      *store.Durable
	Exporter *declog.Exporter
	Router   *pdp.Router
	Reg      *obs.Registry
	follower *replica.Follower
	http     *http.Server
	served   chan error
	cancel   context.CancelFunc
	pulled   chan struct{}
}

// serve starts h on a fresh loopback port.
func (n *node) serve(h http.Handler) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	n.URL = "http://" + ln.Addr().String()
	n.http = &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      15 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	n.served = make(chan error, 1)
	go func() { n.served <- n.http.Serve(ln) }()
	return nil
}

// Close drains the node the way grbacd does on SIGTERM: stop serving,
// stop pulling, flush the decision log, checkpoint the store.
func (n *node) Close() error {
	var errs []error
	if n.http != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		if err := n.http.Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
		cancel()
		if err := <-n.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if n.cancel != nil {
		n.cancel()
		<-n.pulled
	}
	if n.Router != nil {
		n.Router.Close()
	}
	if n.Exporter != nil {
		if err := n.Exporter.Close(); err != nil {
			errs = append(errs, fmt.Errorf("declog close: %w", err))
		}
	}
	if n.Dur != nil {
		if err := n.Dur.Close(); err != nil {
			errs = append(errs, fmt.Errorf("store close: %w", err))
		}
	}
	return errors.Join(errs...)
}

// observability builds the audit ring, the decision-log exporter writing
// gzip JSONL chunks under dir, and the metrics registry and trace
// buffer, as grbacd does with -declog set and -metrics, -trace-buffer
// and -audit-capacity at their defaults.
func observability(dir string, tr *Tracer) (*declog.Exporter, *obs.Registry, []pdp.ServerOption, error) {
	sink, err := declog.NewFileSink(filepath.Join(dir, "declog"))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("declog sink: %w", err)
	}
	var s declog.Sink = sink
	if tr != nil {
		s = timedSink{inner: sink, t: tr}
	}
	exporter := declog.New(s)
	hook := exporter.Offer
	if tr != nil {
		hook = tr.OfferHook(exporter)
	}
	trail := audit.NewLogger(audit.WithCapacity(auditCapacity), audit.WithExportHook(hook))
	reg := obs.NewRegistry()
	opts := []pdp.ServerOption{
		pdp.WithDecisionLog(exporter),
		pdp.WithAuditLogger(trail),
		pdp.WithMetrics(reg),
		pdp.WithTracer(obs.NewTracer(traceCapacity)),
	}
	return exporter, reg, opts, nil
}

// startPrimary builds a durable primary over the generated policy: the
// policy seeds an empty data dir under dir (fsync on, group commit off,
// checkpoints at the default interval), the environment engine is
// attached to the recovered system, and admin endpoints are on.
func startPrimary(dir string, pol *Policy, tr *Tracer) (*node, error) {
	seedSys := core.NewSystem()
	if err := pol.Apply(seedSys); err != nil {
		return nil, err
	}
	seed, _ := seedSys.Snapshot()
	exporter, reg, opts, err := observability(dir, tr)
	if err != nil {
		return nil, err
	}
	dur, err := store.Open(filepath.Join(dir, "data"),
		store.WithCheckpointEvery(store.DefaultCheckpointEvery),
		store.WithSeedState(&seed))
	if err != nil {
		exporter.Close()
		return nil, fmt.Errorf("store open: %w", err)
	}
	sys := dur.System()
	engine := pol.NewEngine()
	if tr != nil {
		sys.SetEnvironmentSource(timedEnv{inner: engine, t: tr})
		sys.SetJournal(timedJournal{inner: dur, t: tr})
	} else {
		sys.SetEnvironmentSource(engine)
	}
	dur.RegisterMetrics(reg)
	bus := event.NewBus()
	engine.AttachBus(bus)
	bus.RegisterMetrics(reg)
	engine.RegisterMetrics(reg)
	opts = append(opts,
		pdp.WithAdmin(),
		pdp.WithDurableStore(dur),
		pdp.WithReplicaSource(replica.NewSource(sys,
			replica.WithSourceEpoch(dur.Epoch()),
			replica.WithDeltaProvider(dur))))
	n := &node{Sys: sys, Dur: dur, Exporter: exporter, Reg: reg}
	var h http.Handler = pdp.NewServer(sys, opts...)
	if tr != nil {
		h = tr.Handler(spanPDP, h)
	}
	if err := n.serve(h); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// feedClient is the replication feed client a puller uses: the plain
// HTTP client, or a timed wrapper around it in the traced run.
func feedClient(url, name string, tr *Tracer) replica.Fetcher {
	c := replica.NewClient(url, pdp.PooledHTTPClient())
	if tr == nil {
		return c
	}
	return &timedFetcher{inner: c, name: name, t: tr}
}

// startFollower builds a read-only follower of primaryURL, as grbacd
// -follow does, and waits until it has synced.
func startFollower(ctx context.Context, dir, primaryURL string, tr *Tracer) (*node, error) {
	exporter, reg, opts, err := observability(dir, tr)
	if err != nil {
		return nil, err
	}
	sys := core.NewSystem()
	popts := []replica.FollowerOption{replica.WithMaxStaleness(maxStaleness)}
	if tr != nil {
		popts = append(popts, replica.WithFetcher(feedClient(primaryURL, "follower", tr)))
	}
	f := replica.NewFollower(sys, primaryURL, popts...)
	runCtx, cancel := context.WithCancel(context.Background())
	n := &node{Sys: sys, Exporter: exporter, Reg: reg, follower: f, cancel: cancel, pulled: make(chan struct{})}
	go func() {
		defer close(n.pulled)
		_ = f.Run(runCtx)
	}()
	opts = append(opts, pdp.WithFollower(f), pdp.WithReplicaSource(replica.NewSource(sys)))
	var h http.Handler = pdp.NewServer(sys, opts...)
	if tr != nil {
		h = tr.Handler(spanPDP, h)
	}
	if err := n.serve(h); err != nil {
		n.Close()
		return nil, err
	}
	if err := f.WaitSynced(ctx); err != nil {
		n.Close()
		return nil, fmt.Errorf("follower sync: %w", err)
	}
	return n, nil
}

// startSDK builds an embedded client of primaryURL with the SDK's
// defaults; sdk.New returns once the first snapshot is installed.
func startSDK(ctx context.Context, primaryURL string, tr *Tracer) (*sdk.Client, error) {
	var opts []sdk.Option
	if tr != nil {
		opts = append(opts, sdk.WithFetcher(feedClient(primaryURL, "sdk", tr)))
	}
	c, err := sdk.New(ctx, primaryURL, opts...)
	if err != nil {
		return nil, fmt.Errorf("sdk: %w", err)
	}
	return c, nil
}

// startRouter builds the routing tier over shards, as grbacd -route does
// with its default fan-out, shard timeout and virtual nodes.
func startRouter(m *shard.Map, tr *Tracer) (*node, error) {
	reg := obs.NewRegistry()
	opts := []pdp.RouterOption{
		pdp.WithRouterFanout(pdp.DefaultRouterFanout),
		pdp.WithShardTimeout(pdp.DefaultShardTimeout),
		pdp.WithRouterMetrics(reg),
	}
	if tr != nil {
		// The router's default client, with its transport timed.
		hc := &http.Client{Transport: tr.Transport(spanShardCall, pdp.PooledHTTPClient().Transport)}
		opts = append(opts, pdp.WithRouterClientFactory(func(addr string) *pdp.Client {
			return pdp.NewClient(addr, hc)
		}))
	}
	rt, err := pdp.NewRouter(m, opts...)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	n := &node{Router: rt, Reg: reg}
	var h http.Handler = rt
	if tr != nil {
		h = tr.Handler(spanRouter, h)
	}
	if err := n.serve(h); err != nil {
		n.Close()
		return nil, err
	}
	return n, nil
}

// shardPolicies splits pol's subjects across the shards of m by
// consistent hash; roles, objects and grants go to every shard.
func shardPolicies(pol *Policy, m *shard.Map) map[string]*Policy {
	out := map[string]*Policy{}
	for _, info := range m.Shards() {
		cp := *pol
		cp.Subjects = nil
		out[info.ID] = &cp
	}
	for _, s := range pol.Subjects {
		p := out[m.Owner(s.ID).ID]
		p.Subjects = append(p.Subjects, s)
	}
	return out
}
