package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/aware-home/grbac/internal/core"
)

// errWrong marks an answer that disagrees with the oracle.
var errWrong = errors.New("wrong answer")

// Expect is the oracle's answer to one request.
type Expect struct {
	Allowed     bool
	DefaultDeny bool
}

// Oracle is an independent in-process core.System built from the same
// generated inputs as the program under test. It runs the serialized
// interpreter path without a decision cache, so it shares no snapshot
// or cache code with the compiled path the nodes serve from.
type Oracle struct {
	sys *core.System
}

// NewOracle loads pol into a fresh system with its own environment engine.
func NewOracle(pol *Policy) (*Oracle, error) {
	sys := core.NewSystem(core.WithSerializedDecide(), core.WithoutDecisionCache())
	if err := pol.Apply(sys); err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	sys.SetEnvironmentSource(pol.NewEngine())
	return &Oracle{sys: sys}, nil
}

// Expect answers one request; an error means the generator produced a
// request the policy rejects, which the benchmark must never do.
func (o *Oracle) Expect(req core.Request) (Expect, error) {
	d, err := o.sys.Decide(req)
	if err != nil {
		return Expect{}, fmt.Errorf("oracle: %s/%s/%s: %w", req.Subject, req.Object, req.Transaction, err)
	}
	return Expect{Allowed: d.Allowed, DefaultDeny: d.DefaultDeny}, nil
}

// ExpectPool answers every pooled item.
func (o *Oracle) ExpectPool(items []Item) ([]Expect, error) {
	out := make([]Expect, len(items))
	for i, it := range items {
		e, err := o.Expect(it.Request())
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// ExpectScripts plays every script against the oracle with its sessions
// mirrored — log in, activate each role when the script does, decide
// within the session, log out — and answers each session decide.
func (o *Oracle) ExpectScripts(scripts []Script) ([][]Expect, error) {
	out := make([][]Expect, len(scripts))
	for i, sc := range scripts {
		sid, err := o.sys.CreateSession(core.SubjectID(sc.Subject))
		if err != nil {
			return nil, fmt.Errorf("oracle session: %w", err)
		}
		out[i] = make([]Expect, len(sc.Items))
		for k, it := range sc.Items {
			if r := sc.Activate[k]; r != "" {
				if err := o.sys.ActivateRole(sid, r); err != nil {
					return nil, fmt.Errorf("oracle activate: %w", err)
				}
			}
			req := it.Request()
			req.Session = sid
			if out[i][k], err = o.Expect(req); err != nil {
				return nil, err
			}
		}
		if err := o.sys.CloseSession(sid); err != nil {
			return nil, fmt.Errorf("oracle close: %w", err)
		}
	}
	return out, nil
}

// Gate counts answers checked and answers that disagreed with the oracle.
type Gate struct {
	Checked atomic.Int64
	Wrong   atomic.Int64
	mu      sync.Mutex
	first   string
}

// Check compares one answer with its expectation and returns errWrong
// (wrapped with what) on a mismatch.
func (g *Gate) Check(what string, gotAllowed, gotDefaultDeny bool, want Expect, checkDefault bool) error {
	g.Checked.Add(1)
	if gotAllowed == want.Allowed && (!checkDefault || gotDefaultDeny == want.DefaultDeny) {
		return nil
	}
	g.Wrong.Add(1)
	g.mu.Lock()
	if g.first == "" {
		g.first = fmt.Sprintf("%s: got allowed=%v default_deny=%v, oracle says allowed=%v default_deny=%v",
			what, gotAllowed, gotDefaultDeny, want.Allowed, want.DefaultDeny)
	}
	g.mu.Unlock()
	return fmt.Errorf("%w: %s", errWrong, what)
}

// First describes the first mismatch, empty when there was none.
func (g *Gate) First() string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.first
}
