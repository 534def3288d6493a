package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
	"github.com/aware-home/grbac/sdk"
)

// Propagation workload settings.
const (
	editRate       = 20                     // admin edits per second
	propTimeout    = 2 * time.Second        // an edit not enforced everywhere by then fails
	sdkCheckBatch  = 64                     // local checks timed together
	canaryInterval = 200 * time.Microsecond // re-check period while waiting
)

// Edit is one journaled admin edit and the canary answer it produces.
type Edit struct {
	Kind    int // 0 grant, 1 revoke the grant, 2 assign role, 3 revoke role
	Canary  core.Request
	Allowed bool
}

var canaryGrant = core.Permission{
	Subject: canaryRole, Object: canaryObjRole, Environment: core.AnyEnvironment,
	Transaction: canaryTx, Effect: core.Permit,
}

// GenerateEdits returns the n-edit cycle the admin writer applies, with
// the canary answers an oracle mirroring the edits gives after each.
func GenerateEdits(pol *Policy, n int) ([]Edit, error) {
	oracle, err := NewOracle(pol)
	if err != nil {
		return nil, err
	}
	out := make([]Edit, n)
	for i := range out {
		e := Edit{Kind: i % 4, Canary: core.Request{
			Subject: canarySubjectA, Object: canaryObject, Transaction: canaryTx, Environment: []core.RoleID{},
		}}
		switch e.Kind {
		case 0:
			err = oracle.sys.Grant(canaryGrant)
		case 1:
			err = oracle.sys.Revoke(canaryGrant)
		case 2:
			e.Canary.Subject = canarySubjectB
			err = oracle.sys.AssignSubjectRole(canarySubjectB, canaryRoleB)
		case 3:
			e.Canary.Subject = canarySubjectB
			err = oracle.sys.RevokeSubjectRole(canarySubjectB, canaryRoleB)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle edit %d: %w", i, err)
		}
		want, err := oracle.Expect(e.Canary)
		if err != nil {
			return nil, err
		}
		e.Allowed = want.Allowed
		out[i] = e
	}
	return out, nil
}

// propCluster is the propagation workload's durable primary, its
// follower, and the benchmark process's embedded SDK client.
type propCluster struct {
	primary, follower *node
	sdk               *sdk.Client
}

func (c *propCluster) Close() {
	if c.sdk != nil {
		c.sdk.Close()
	}
	if c.follower != nil {
		c.follower.Close()
	}
	if c.primary != nil {
		c.primary.Close()
	}
}

// writer applies edits at editRate and measures, for each, the ack and
// the time until both the follower (over HTTP) and the SDK (in process)
// enforce the new canary answer.
type writer struct {
	w        *run
	cl       *propCluster
	admin    *pdp.Client
	follower *pdp.Client
	edits    []Edit

	ack, prop         Samples
	wake, install     Samples
	firstDecide       Samples
	attempted, failed int64
}

func (wr *writer) edit(ctx context.Context, e Edit) error {
	pr := pdp.PermissionRequest{Subject: canaryRole, Object: canaryObjRole,
		Environment: string(core.AnyEnvironment), Transaction: string(canaryTx), Effect: "permit"}
	switch e.Kind {
	case 0:
		return wr.admin.Call(ctx, http.MethodPost, "/v1/admin/permissions", pr, nil)
	case 1:
		return wr.admin.Call(ctx, http.MethodDelete, "/v1/admin/permissions", pr, nil)
	case 2:
		return wr.admin.Call(ctx, http.MethodPost, "/v1/admin/subjects",
			pdp.BindingRequest{ID: canarySubjectB, Roles: []string{canaryRoleB}}, nil)
	default:
		// The HTTP admin surface has no subject-role revoke; the edit goes
		// through the same journaled mutator on the primary's system.
		return wr.cl.primary.Sys.RevokeSubjectRole(canarySubjectB, canaryRoleB)
	}
}

// waitFor polls check, waking on gen changes, until it returns want; it
// returns when gen first reached target and when check returned want.
// An enforcer still giving the old answer at timeout has answered the
// canary wrongly, and gate counts it as such.
func waitFor(ctx context.Context, timeout time.Duration, gen func() (uint64, <-chan struct{}), target uint64,
	want bool, check func() (bool, error), gate *Gate, what string) (installed, enforced time.Time, err error) {
	deadline := time.Now().Add(timeout)
	var g uint64
	var got bool
	for time.Now().Before(deadline) {
		var changed <-chan struct{}
		g, changed = gen()
		if g >= target {
			if installed.IsZero() {
				installed = time.Now()
			}
			got, err = check()
			if err != nil {
				return installed, time.Time{}, err
			}
			if got == want {
				return installed, time.Now(), nil
			}
		}
		t := time.NewTimer(canaryInterval)
		select {
		case <-changed:
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return installed, time.Time{}, ctx.Err()
		}
		t.Stop()
	}
	if g >= target {
		err = gate.Check(what, got, false, Expect{Allowed: want}, false)
		return installed, time.Time{}, fmt.Errorf("canary not enforced within %v: %w", timeout, err)
	}
	return installed, time.Time{}, fmt.Errorf("canary not installed within %v: generation %d of %d", timeout, g, target)
}

// loop runs edits on schedule until stop is closed.
func (wr *writer) loop(ctx context.Context, stop <-chan struct{}, record func() bool) {
	interval := time.Second / editRate
	due := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		}
		wr.attempted++
		if err := wr.one(ctx, wr.edits[i%len(wr.edits)], record()); err != nil {
			wr.failed++
			noteFailure(err)
		}
		due = due.Add(interval)
	}
}

func (wr *writer) one(ctx context.Context, e Edit, rec bool) error {
	// Each enforcer's generation before the edit: the edit has been
	// installed once it moves past it. (Enforcer generations need not
	// equal the primary's, which also counts unreplicated session and
	// configuration bumps.)
	fs := wr.cl.follower.Sys
	fGen, sGen := fs.Generation(), wr.cl.sdk.Generation()
	sent := time.Now()
	if err := wr.edit(ctx, e); err != nil {
		return fmt.Errorf("edit: %w", err)
	}
	acked := time.Now()
	var fInst, fDone, sInst, sDone time.Time
	var fErr, sErr error
	var sFirst time.Duration
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fInst, fDone, fErr = waitFor(ctx, propTimeout, func() (uint64, <-chan struct{}) {
			ch := fs.GenerationChange()
			return fs.Generation(), ch
		}, fGen+1, e.Allowed, func() (bool, error) {
			return wr.follower.Check(ctx, pdp.FromCoreRequest(e.Canary))
		}, &wr.w.gate, "follower canary")
	}()
	first := true
	sInst, sDone, sErr = waitFor(ctx, propTimeout, func() (uint64, <-chan struct{}) {
		ch := wr.cl.sdk.PolicyChanged()
		return wr.cl.sdk.Generation(), ch
	}, sGen+1, e.Allowed, func() (bool, error) {
		start := time.Now()
		ok, err := wr.cl.sdk.CheckAccess(ctx, e.Canary)
		if first {
			sFirst, first = time.Since(start), false
		}
		return ok, err
	}, &wr.w.gate, "sdk canary")
	wg.Wait()
	if fErr != nil {
		return fmt.Errorf("follower: %w", fErr)
	}
	if sErr != nil {
		return fmt.Errorf("sdk: %w", sErr)
	}
	if !rec {
		return nil
	}
	wr.ack.Add(acked.Sub(sent))
	done := fDone
	if sDone.After(done) {
		done = sDone
	}
	// Measured from the acknowledgement: the edit's propagation, not the
	// writer's schedule, is what this series describes.
	wr.prop.Add(done.Sub(acked))
	wr.firstDecide.Add(sFirst)
	if tr := wr.w.tr; tr != nil {
		wakes := []struct {
			name string
			inst time.Time
		}{{"follower", fInst}, {"sdk", sInst}}
		for _, wk := range wakes {
			if at, ok := tr.WakeAfter(wk.name, sent); ok {
				// From the send: a watch can wake before the ack arrives.
				wr.wake.Add(at.Sub(sent))
				wr.install.Add(wk.inst.Sub(at))
			}
		}
	}
	return nil
}

// runPropagation: journaled admin edits at a fixed rate, each followed
// until the follower and the SDK enforce it, alongside embedded checks
// and a light decide stream on the primary.
func runPropagation(w *run) error {
	shape := Shape{Subjects: propSubjects, Objects: policyObjects, Grants: policyGrants}
	build := func() *Policy {
		p := GeneratePolicy(w.seed, shape)
		p.AddCanaries()
		return p
	}
	pol := build()
	pool, want, err := poolFor(w, pol, propSubjects, PoolOptions{Size: poolSize, Templates: hotTemplates, LiveEnv: liveEnvShare})
	if err != nil {
		return err
	}
	sdkPool, sdkWant, err := poolFor(w, pol, propSubjects, PoolOptions{Size: poolSize, Templates: hotTemplates})
	if err != nil {
		return err
	}
	edits, err := GenerateEdits(build(), 4)
	if err != nil {
		return err
	}
	d := newDecider(pool, want, GenerateOps(w.seed+2, opStreamLen, 0.2, 0.1), &w.gate, tagDecide)
	cl, closeFn, err := setupTimed(w, func(dir string) (*propCluster, func(), error) {
		c := &propCluster{}
		var err error
		if c.primary, err = startPrimary(filepath.Join(dir, "primary"), build(), w.tr); err != nil {
			return nil, nil, err
		}
		if c.follower, err = startFollower(w.ctx, filepath.Join(dir, "follower"), c.primary.URL, w.tr); err != nil {
			c.Close()
			return nil, nil, err
		}
		if c.sdk, err = startSDK(w.ctx, c.primary.URL, w.tr); err != nil {
			c.Close()
			return nil, nil, err
		}
		return c, c.Close, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()

	wr := &writer{w: w, cl: cl, edits: edits,
		admin: loadClient(cl.primary.URL, nil), follower: loadClient(cl.follower.URL, nil)}
	var recording sync.Mutex
	recordOn := false
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		wr.loop(w.ctx, stop, func() bool {
			recording.Lock()
			defer recording.Unlock()
			return recordOn
		})
	}()
	setRecord := func(on bool) {
		recording.Lock()
		recordOn = on
		recording.Unlock()
	}
	d.client = loadClient(cl.primary.URL, w.tr)
	deltas0 := [2]int64{}
	if w.tr != nil {
		deltas0 = [2]int64{w.tr.ReplicaDelta.Load(), w.tr.ReplicaSnap.Load()}
	}

	// Warm-up: edits and the decide stream, nothing recorded. Then
	// closed-loop embedded checks, and the decide stream at its nominal
	// rate and traced or on the ladder, while edits continue.
	var checkBatches *Samples
	steady(w, d.op, 1, []*core.System{cl.primary.Sys}, shares{warm: 0.1, nominal: 0.4, last: 0.3}, func() {
		setRecord(true)
		var checks int64
		checks, checkBatches = w.sdkChecks(cl.sdk, sdkPool, sdkWant, w.share(0.2))
		w.rep.human("embedded_checks_per_s", float64(checks)/w.share(0.2).Seconds(), "1/s")
		w.rep.attempted += checks
	})
	close(stop)
	<-writerDone

	w.rep.attempted += wr.attempted
	w.rep.failed += wr.failed
	w.rep.info(fmt.Sprintf("edits recorded: %d at %d/s", wr.prop.Len(), editRate))
	if wr.prop.Len() == 0 {
		return fmt.Errorf("no edit was recorded")
	}
	w.rep.e2e("key_p50_us", wr.prop.Pct(50, time.Microsecond), "us")
	w.rep.e2e("key_p75_us", wr.prop.Pct(75, time.Microsecond), "us")
	w.rep.human("key_p90_us", wr.prop.Pct(90, time.Microsecond), "us")
	w.rep.human("propagation_p50_ms", wr.prop.Pct(50, time.Millisecond), "ms")
	w.rep.human("propagation_p90_ms", wr.prop.Pct(90, time.Millisecond), "ms")
	w.rep.human("write_ack_p50_us", wr.ack.Pct(50, time.Microsecond), "us")
	w.rep.human("write_ack_p99_us", wr.ack.Pct(99, time.Microsecond), "us")

	if w.tr != nil {
		w.rep.human("sdk.check_p50_ns", checkBatches.Pct(50, time.Nanosecond)/sdkCheckBatch, "ns")
		st := cl.sdk.Stats()
		total := float64(st.LocalDecisions + st.RemoteFallbacks)
		w.rep.layer("sdk.local_ratio", float64(st.LocalDecisions)/total, "ratio")
		deltas := float64(w.tr.ReplicaDelta.Load() - deltas0[0])
		snaps := float64(w.tr.ReplicaSnap.Load() - deltas0[1])
		ratio := 0.0
		if deltas+snaps > 0 {
			ratio = deltas / (deltas + snaps)
		}
		w.rep.layer("replica.delta_ratio", ratio, "ratio")
		w.rep.human("replica.wake_p50_ms", wr.wake.Pct(50, time.Millisecond), "ms")
		w.rep.human("replica.install_p50_ms", wr.install.Pct(50, time.Millisecond), "ms")
		w.rep.human("replica.first_decide_p50_us", wr.firstDecide.Pct(50, time.Microsecond), "us")
		w.coreProbe(pol, pool)
		w.nodeLayers([]*node{cl.primary, cl.follower})
	}
	return nil
}

// sdkChecks runs closed-loop local checks on the SDK for d, checking
// each answer, and returns how many ran and the time of each batch.
func (w *run) sdkChecks(c *sdk.Client, pool []Item, want []Expect, d time.Duration) (int64, *Samples) {
	reqs := make([]core.Request, len(pool))
	for i, it := range pool {
		reqs[i] = it.Request()
	}
	batches := &Samples{}
	var n int64
	var got [sdkCheckBatch]bool
	var errs [sdkCheckBatch]error
	end := time.Now().Add(d)
	for i := 0; time.Now().Before(end) && w.ctx.Err() == nil; i += sdkCheckBatch {
		start := time.Now()
		for k := range got {
			got[k], errs[k] = c.CheckAccess(w.ctx, reqs[(i+k)%len(reqs)])
		}
		batches.Add(time.Since(start))
		for k, err := range errs {
			if err == nil {
				err = w.gate.Check("sdk check", got[k], false, want[(i+k)%len(reqs)], false)
			}
			if err != nil {
				w.rep.failed++
				noteFailure(err)
			}
		}
		n += sdkCheckBatch
	}
	return n, batches
}
