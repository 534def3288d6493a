package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
)

// Steps of a session script, in order: log in, (activate a role)?
// decide, ... , log out.
const (
	stepLogin = iota
	stepActivate
	stepDecide
	stepLogout
)

type step struct {
	kind int
	k    int // decide or activation index within the script
}

// scriptSteps flattens a script into the HTTP calls a user makes.
func scriptSteps(sc Script) []step {
	out := []step{{kind: stepLogin}}
	for k := range sc.Items {
		if sc.Activate[k] != "" {
			out = append(out, step{kind: stepActivate, k: k})
		}
		out = append(out, step{kind: stepDecide, k: k})
	}
	return append(out, step{kind: stepLogout})
}

// user is one in-flight session script.
type user struct {
	script     int
	step       int
	sid        string
	afterWrite bool
}

// churner drives session-churn traffic. Each sender alternates a step
// of one of its two simulated users with a plain pooled decision; a
// user's steps stay on one sender, so they run in order. A session write
// followed by a decide is one operation: the user decides as soon as the
// write is acknowledged, so that decide is the first after the write.
type churner struct {
	client  *pdp.Client // set once the primary is up
	scripts []Script
	steps   [][]step
	want    [][]Expect
	plain   *decider
	gate    *Gate
	users   [senders][2]user
	next    [senders]int // next script for the sender (stride senders)
	turn    [senders]int
}

func newChurner(scripts []Script, want [][]Expect, plain *decider, gate *Gate) *churner {
	c := &churner{scripts: scripts, want: want, plain: plain, gate: gate}
	for _, sc := range scripts {
		c.steps = append(c.steps, scriptSteps(sc))
	}
	for s := 0; s < senders; s++ {
		c.next[s] = s
		for u := range c.users[s] {
			c.users[s][u] = user{script: c.take(s)}
		}
	}
	return c
}

func (c *churner) take(sender int) int {
	i := c.next[sender] % len(c.scripts)
	c.next[sender] += senders
	return i
}

func (c *churner) op(ctx context.Context, sender int) (string, error) {
	c.turn[sender]++
	if c.turn[sender]%2 == 0 {
		return c.plain.op(ctx, sender)
	}
	u := &c.users[sender][(c.turn[sender]/2)%2]
	tag, err := c.userStep(ctx, sender, u)
	if err == nil && tag == tagWrite && u.afterWrite && c.steps[u.script][u.step].kind == stepDecide {
		ph := phaseFrom(ctx)
		acked := time.Now()
		if tag, err = c.userStep(ctx, sender, u); err == nil {
			ph.Lat[tagWrite].Add(acked.Sub(ph.due[sender]))
			ph.Lat[tag].Add(time.Since(acked))
			tag = tagRecorded
		}
	}
	if err != nil {
		// Abandon the script; the next user starts from a fresh login.
		*u = user{script: c.take(sender)}
	}
	return tag, err
}

func (c *churner) userStep(ctx context.Context, sender int, u *user) (string, error) {
	sc := c.scripts[u.script]
	st := c.steps[u.script][u.step]
	switch st.kind {
	case stepLogin:
		var resp pdp.SessionResponse
		if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions", pdp.SessionRequest{Subject: sc.Subject}, &resp); err != nil {
			return "", fmt.Errorf("login: %w", err)
		}
		u.sid, u.afterWrite = resp.Session, true
	case stepActivate:
		req := pdp.SessionRoleRequest{Session: u.sid, Role: string(sc.Activate[st.k]), Active: true}
		if err := c.client.Call(ctx, http.MethodPost, "/v1/sessions/roles", req, nil); err != nil {
			return "", fmt.Errorf("activate: %w", err)
		}
		u.afterWrite = true
	case stepDecide:
		req := pdp.FromCoreRequest(sc.Items[st.k].Request())
		req.Session = u.sid
		resp, err := c.client.Decide(ctx, req)
		if err != nil {
			return "", fmt.Errorf("session decide: %w", err)
		}
		if err := c.gate.Check("session decide", resp.Allowed, resp.DefaultDeny, c.want[u.script][st.k], true); err != nil {
			return "", err
		}
		tag := tagDecide
		if u.afterWrite {
			tag = tagKey
		}
		u.afterWrite = false
		u.step++
		return tag, nil
	case stepLogout:
		if err := c.client.Call(ctx, http.MethodDelete, "/v1/sessions", pdp.SessionRequest{Session: u.sid}, nil); err != nil {
			return "", fmt.Errorf("logout: %w", err)
		}
		*u = user{script: c.take(sender)}
		return tagWrite, nil
	}
	u.step++
	return tagWrite, nil
}

// runSessionChurn: users log in, activate roles, decide within their
// session and log out, alongside an equal volume of plain decides.
func runSessionChurn(w *run) error {
	shape := Shape{Subjects: churnSubjects, Objects: policyObjects, Grants: policyGrants}
	pol := GeneratePolicy(w.seed, shape)
	pool, want, err := poolFor(w, pol, churnSubjects, PoolOptions{Size: poolSize, Templates: hotTemplates, LiveEnv: liveEnvShare})
	if err != nil {
		return err
	}
	scripts := GenerateScripts(w.seed+3, pol, scriptCount)
	oracle, err := NewOracle(pol)
	if err != nil {
		return err
	}
	scriptWant, err := oracle.ExpectScripts(scripts)
	if err != nil {
		return err
	}
	plain := newDecider(pool, want, GenerateOps(w.seed+2, opStreamLen, 0.2, 0.1), &w.gate, tagDecide)
	ch := newChurner(scripts, scriptWant, plain, &w.gate)
	prim, closeFn, err := setupTimed(w, func(dir string) (*node, func(), error) {
		n, err := startPrimary(dir, GeneratePolicy(w.seed, shape), w.tr)
		if err != nil {
			return nil, nil, err
		}
		return n, func() { n.Close() }, nil
	})
	if err != nil {
		return err
	}
	defer closeFn()
	ch.client = loadClient(prim.URL, w.tr)
	plain.client = ch.client
	steady(w, ch.op, senders, []*core.System{prim.Sys}, decideShares, nil)
	w.coreProbe(pol, pool)
	w.nodeLayers([]*node{prim})
	return nil
}
