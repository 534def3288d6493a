package main

import (
	"context"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/aware-home/grbac/internal/pdp"
)

// Op tags: which latency series an operation's time lands in.
const (
	tagDecide = "decide" // a decision request (decide, check or batch)
	tagKey    = "key"    // a decision request that is the workload's key operation
	tagWrite  = "write"  // a session or policy write
)

// opFunc runs the sender's next operation and reports its tag. A non-nil
// error is a failed operation: refused, timed out, or answered wrongly.
// An operation made of several requests records their latencies itself,
// into the phase phaseFrom(ctx) returns, and reports tagRecorded.
type opFunc func(ctx context.Context, sender int) (string, error)

// tagRecorded marks an operation that recorded its own latencies.
const tagRecorded = ""

type phaseKey struct{}

// phaseFrom returns the phase an operation runs in.
func phaseFrom(ctx context.Context) *Phase { return ctx.Value(phaseKey{}).(*Phase) }

// Phase is what one open-loop phase observed.
type Phase struct {
	Rate     float64
	Duration time.Duration
	// Latency per tag, measured from each operation's scheduled send.
	Lat map[string]*Samples
	// Lag is how late the generator itself sent: from the moment a
	// sender was both due and free to the moment it sent.
	Lag       Samples
	Attempted atomic.Int64
	Failed    atomic.Int64
	// Backlog is how far behind schedule the last send went out.
	Backlog time.Duration
	// Abandoned counts senders that fell more than abandonLate behind
	// and gave up the rest of their schedule: operations that were
	// neither sent nor timed.
	Abandoned atomic.Int64
	backMu    sync.Mutex
	// due holds each sender's current operation's scheduled send; only
	// that sender's goroutine touches its entry.
	due []time.Time
	// Done counts completed operations; Wall is from the phase's start
	// to its last completion, or to its scheduled end if that is later.
	Done atomic.Int64
	Wall time.Duration
}

func newPhase(rate float64, d time.Duration) *Phase {
	return &Phase{Rate: rate, Duration: d, Lat: map[string]*Samples{
		tagDecide: {}, tagKey: {}, tagWrite: {},
	}}
}

// Achieved is the completed operations per second of wall time.
func (p *Phase) Achieved() float64 { return float64(p.Done.Load()) / p.Wall.Seconds() }

// DecideLat is the latency series of every decision request, key
// operations included.
func (p *Phase) DecideLat() *Samples {
	all := &Samples{}
	for _, tag := range []string{tagDecide, tagKey} {
		s := p.Lat[tag]
		s.mu.Lock()
		all.vals = append(all.vals, s.vals...)
		s.mu.Unlock()
	}
	return all
}

// abandonLate is how far behind schedule a sender may fall before it
// gives up on the rest of its phase. In a ladder probe that fails the
// rung; in any other phase it makes the run invalid, since the
// operations it skips are the ones a stall delayed most.
const abandonLate = time.Second

// reqSeq numbers traced requests.
var reqSeq atomic.Uint64

// openLoop drives op from senders goroutines at rate operations per
// second in total for d. Sender i sends its k-th operation at
// start + (i + k*senders)/rate, whether or not earlier ones are slow:
// a stall shows up as latency of every operation it delays.
//
// precise senders wait with waitUntil, for latency figures; the ladder's
// probes judge latency against a limit in tens of milliseconds and sleep
// plainly instead, leaving the processors to the program under test.
func openLoop(ctx context.Context, rate float64, d time.Duration, senders int, traced, precise bool, op opFunc) *Phase {
	ph := newPhase(rate, d)
	ph.due = make([]time.Time, senders)
	ctx = context.WithValue(ctx, phaseKey{}, ph)
	interval := time.Duration(float64(time.Second) * float64(senders) / rate)
	start := time.Now().Add(2 * time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < senders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			due := start.Add(time.Duration(float64(time.Second) * float64(i) / rate))
			lastDone := time.Time{}
			for ; due.Before(end) && ctx.Err() == nil; due = due.Add(interval) {
				if precise {
					waitUntil(due)
				} else if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				free := due
				if lastDone.After(free) {
					free = lastDone
				}
				sent := time.Now()
				if late := sent.Sub(due); late > abandonLate {
					// Far past schedule: the backlog is growing and the
					// phase has failed; stop rather than drain it.
					ph.Abandoned.Add(1)
					lastDone = sent
					break
				}
				ph.Lag.Add(sent.Sub(free))
				octx := ctx
				if traced {
					octx = withSpan(ctx, spanRef{req: reqSeq.Add(1)})
				}
				ph.Attempted.Add(1)
				ph.due[i] = due
				tag, err := op(octx, i)
				lastDone = time.Now()
				ph.Done.Add(1)
				if err != nil {
					ph.Failed.Add(1)
					noteFailure(err)
					continue
				}
				if tag != tagRecorded {
					ph.Lat[tag].Add(lastDone.Sub(due))
				}
			}
			ph.backMu.Lock()
			if late := lastDone.Sub(end); late > ph.Backlog {
				ph.Backlog = late
			}
			ph.backMu.Unlock()
		}(i)
	}
	wg.Wait()
	ph.Wall = d + ph.Backlog
	return ph
}

// spinWindow is the last stretch before a send that a sender yields in a
// loop instead of sleeping: an idle Go process wakes from time.Sleep up
// to a millisecond late, and a raw nanosleep some 100 µs late, either of
// which would be charged to the program as latency.
const spinWindow = 200 * time.Microsecond

// waitUntil returns at t, give or take a few microseconds.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// ladderRung is rung i of the fixed rate ladder: 100 req/s growing 10%
// a rung, up to ~27,600 req/s at rung 59.
func ladderRung(i int) float64 { return 100 * math.Pow(1.1, float64(i)) }

const ladderTop = 59

// rungAtOrBelow returns the highest rung not above rate.
func rungAtOrBelow(rate float64) int {
	i := 0
	for i < ladderTop && ladderRung(i+1) <= rate*(1+1e-9) {
		i++
	}
	return i
}

// Probe is one ladder step's verdict.
type Probe struct {
	Rung     int
	Rate     float64
	Achieved float64
	P99      time.Duration
	Failed   int64
	Backlog  time.Duration
	Pass     bool
}

// meets reports whether a phase met the workload's limit: no failures,
// p99 of decision latency within limit, and no growing backlog.
func meets(ph *Phase, limit time.Duration) (time.Duration, bool) {
	p99 := time.Duration(ph.DecideLat().Pct(99, 1))
	return p99, ph.Failed.Load() == 0 && ph.Abandoned.Load() == 0 && p99 <= limit && ph.Backlog <= limit
}

// ladderSpan is how many rungs above the nominal rung the search covers:
// up to about 9.8 times the nominal rate.
const ladderSpan = 24

// ladderProbes is the most probes a search makes: 5 bisection steps, and
// a second probe of each of up to 3 failing rungs.
const ladderProbes = 8

// sustained bisects the fixed ladder between rung lo (taken to pass, at
// achieved rate loAchieved) and lo+ladderSpan for the highest rung that
// meets limit, probing each rung for probeDur. A rung fails only if two
// probes of it fail, so one noisy probe does not drop the search. It
// returns that rung's achieved rate and every probe made.
func sustained(ctx context.Context, lo int, loAchieved float64, probeDur, limit time.Duration, senders int, op opFunc) (float64, []Probe) {
	best := loAchieved
	hi := lo + ladderSpan + 1
	if hi > ladderTop+1 {
		hi = ladderTop + 1
	}
	var probes []Probe
	retries := ladderProbes - 5
	for hi-lo > 1 && ctx.Err() == nil {
		mid := (lo + hi) / 2
		var p Probe
		for try := 0; try < 2; try++ {
			ph := openLoop(ctx, ladderRung(mid), probeDur, senders, false, false, op)
			p99, ok := meets(ph, limit)
			p = Probe{Rung: mid, Rate: ladderRung(mid), Achieved: ph.Achieved(),
				P99: p99, Failed: ph.Failed.Load(), Backlog: ph.Backlog, Pass: ok}
			probes = append(probes, p)
			if ok || retries == 0 {
				break
			}
			retries--
		}
		if p.Pass {
			lo, best = mid, p.Achieved
		} else {
			hi = mid
		}
	}
	return best, probes
}

// loadClient is the load generator's HTTP client to one target: at most
// two connections, a 5 s timeout, and in the traced run a transport that
// opens the request's root span.
func loadClient(url string, tr *Tracer) *pdp.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = 2
	t.MaxIdleConnsPerHost = 2
	var rt http.RoundTripper = t
	if tr != nil {
		rt = tr.Transport(spanClient, t)
	}
	return pdp.NewClient(url, &http.Client{Transport: rt, Timeout: 5 * time.Second})
}

// failures keeps the first few failure messages for the report.
var failures struct {
	sync.Mutex
	first []string
	n     int
}

func noteFailure(err error) {
	failures.Lock()
	defer failures.Unlock()
	failures.n++
	if len(failures.first) < 5 {
		failures.first = append(failures.first, err.Error())
	}
}
