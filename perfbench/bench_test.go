package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/aware-home/grbac/internal/core"
	"github.com/aware-home/grbac/internal/pdp"
)

// inputs returns every generated input of a seed, serialized.
func inputs(t *testing.T, seed int64) []byte {
	t.Helper()
	pol := GeneratePolicy(seed, Shape{Subjects: 512, Objects: 128, Grants: 128})
	all := map[string]any{
		"policy":  pol,
		"skewed":  GeneratePool(seed+1, pol, 512, 128, PoolOptions{Size: 4096, Templates: 256, LiveEnv: liveEnvShare}),
		"uniform": GeneratePool(seed+1, pol, 512, 128, PoolOptions{Size: 4096, Uniform: true, LiveEnv: liveEnvShare}),
		"ops":     GenerateOps(seed+2, 1024, 0.2, 0.1),
		"scripts": GenerateScripts(seed+3, pol, 64),
	}
	raw, err := json.Marshal(all)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputs(t, 1), inputs(t, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("seed 1 generated different inputs on two calls")
	}
	if c := inputs(t, 2); bytes.Equal(a, c) {
		t.Fatal("seeds 1 and 2 generated identical inputs")
	}
}

func TestPercentile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.1, 1}} {
		if got := Percentile(append([]float64(nil), vals...), tc.p); got != tc.want {
			t.Errorf("p%v of 1..100 = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v, want 0", got)
	}
	if got := Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("p50 of {3,1,2} = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of {4,1,3,2} = %v, want 2 (nearest rank)", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{10, 40}}, 70},
		{"overlapping children count once", []interval{{10, 20}, {15, 30}}, 80},
		{"child clipped to parent", []interval{{90, 120}}, 90},
		{"child outside parent", []interval{{150, 160}}, 100},
		{"nested and disjoint", []interval{{10, 20}, {15, 30}, {90, 120}, {40, 50}}, 60},
		{"full cover", []interval{{0, 60}, {50, 100}}, 0},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestLadder(t *testing.T) {
	if got := ladderRung(0); got != 100 {
		t.Errorf("rung 0 = %v, want 100", got)
	}
	if got := rungAtOrBelow(2000); ladderRung(got) > 2000 || ladderRung(got+1) <= 2000 {
		t.Errorf("rungAtOrBelow(2000) = %d (%.1f req/s)", got, ladderRung(got))
	}
	if got := rungAtOrBelow(ladderRung(10)); got != 10 {
		t.Errorf("rungAtOrBelow(rung 10) = %d, want 10", got)
	}
}

// smallServer serves a small generated policy, flipping every decide
// answer when lie is set.
func smallServer(t *testing.T, lie bool) (*pdp.Client, []Item, []Expect) {
	t.Helper()
	pol := GeneratePolicy(7, Shape{Subjects: 64, Objects: 32, Grants: 64})
	sys := core.NewSystem()
	if err := pol.Apply(sys); err != nil {
		t.Fatal(err)
	}
	sys.SetEnvironmentSource(pol.NewEngine())
	srv := pdp.NewServer(sys)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if lie && r.URL.Path == "/v1/decide" && rec.Code == http.StatusOK {
			var d pdp.DecideResponse
			if err := json.Unmarshal(body, &d); err != nil {
				t.Error(err)
			}
			d.Allowed = !d.Allowed
			body, _ = json.Marshal(d)
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(body)
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	pool := GeneratePool(8, pol, 64, 32, PoolOptions{Size: 256, Templates: 32, LiveEnv: liveEnvShare})
	oracle, err := NewOracle(pol)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle.ExpectPool(pool)
	if err != nil {
		t.Fatal(err)
	}
	return pdp.NewClient(ts.URL, nil), pool, want
}

func decideAll(t *testing.T, client *pdp.Client, pool []Item, want []Expect) (*Gate, int) {
	t.Helper()
	ops := []Op{{Kind: OpDecide, N: 1}}
	var gate Gate
	d := newDecider(pool, want, ops, &gate, tagKey)
	d.client = client
	wrong := 0
	for range pool {
		_, err := d.op(context.Background(), 0)
		switch {
		case errors.Is(err, errWrong):
			wrong++
		case err != nil:
			t.Fatal(err)
		}
	}
	return &gate, wrong
}

func TestGateAgreesWithHonestServer(t *testing.T) {
	client, pool, want := smallServer(t, false)
	gate, wrong := decideAll(t, client, pool, want)
	if wrong != 0 || gate.Wrong.Load() != 0 {
		t.Fatalf("honest server: %d wrong answers, first: %s", wrong, gate.First())
	}
	if gate.Checked.Load() != int64(len(pool)) {
		t.Fatalf("checked %d answers, want %d", gate.Checked.Load(), len(pool))
	}
}

func TestGateCatchesWrongDecision(t *testing.T) {
	client, pool, want := smallServer(t, true)
	gate, wrong := decideAll(t, client, pool, want)
	if wrong != len(pool) || gate.Wrong.Load() != int64(len(pool)) {
		t.Fatalf("lying server: %d of %d answers caught", wrong, len(pool))
	}
	if gate.First() == "" {
		t.Fatal("gate recorded no description of the first mismatch")
	}
}

func TestOracleMirrorsEditsAndSessions(t *testing.T) {
	pol := GeneratePolicy(3, Shape{Subjects: 64, Objects: 32, Grants: 64})
	pol.AddCanaries()
	edits, err := GenerateEdits(pol, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edits {
		if want := i%2 == 0; e.Allowed != want {
			t.Errorf("edit %d (kind %d): canary allowed=%v, want %v", i, e.Kind, e.Allowed, want)
		}
	}
	oracle, err := NewOracle(pol)
	if err != nil {
		t.Fatal(err)
	}
	scripts := GenerateScripts(4, pol, 16)
	if _, err := oracle.ExpectScripts(scripts); err != nil {
		t.Fatal(err)
	}
	for _, sc := range scripts {
		steps := scriptSteps(sc)
		if steps[0].kind != stepLogin || steps[len(steps)-1].kind != stepLogout || steps[1].kind != stepActivate {
			t.Fatalf("script steps %v: want login, activate, ..., logout", steps)
		}
	}
}

// stuckEnforcer is a follower that never applies an edit: its
// generation stays at gen, and its canary answer stays at allowed.
type stuckEnforcer struct {
	gen     uint64
	allowed bool
}

func (f stuckEnforcer) generation() (uint64, <-chan struct{}) { return f.gen, nil }
func (f stuckEnforcer) check() (bool, error)                  { return f.allowed, nil }

func TestStuckFollowerFailsTheRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		f         stuckEnforcer
		wantWrong int64
	}{
		{"generation never moves", stuckEnforcer{gen: 4, allowed: false}, 0},
		{"new generation, old answer", stuckEnforcer{gen: 5, allowed: false}, 1},
	} {
		var gate Gate
		_, _, err := waitFor(context.Background(), 50*time.Millisecond, tc.f.generation, 5, true, tc.f.check, &gate, "follower canary")
		if err == nil {
			t.Fatalf("%s: waitFor reported the canary enforced", tc.name)
		}
		if got := gate.Wrong.Load(); got != tc.wantWrong {
			t.Errorf("%s: gate counted %d wrong answers, want %d", tc.name, got, tc.wantWrong)
		}
		if tc.wantWrong > 0 && !errors.Is(err, errWrong) {
			t.Errorf("%s: error %v does not mark a wrong answer", tc.name, err)
		}
		// The writer counts the edit as failed; the run must not pass.
		rep := newReport()
		rep.attempted, rep.failed = 1, 1
		if correct, code := verdict(rep, gate.Wrong.Load()); correct || code == 0 {
			t.Errorf("%s: verdict correct=%v exit %d, want a failed run", tc.name, correct, code)
		}
	}
	var gate Gate
	f := stuckEnforcer{gen: 5, allowed: true}
	if _, _, err := waitFor(context.Background(), time.Second, f.generation, 5, true, f.check, &gate, "canary"); err != nil {
		t.Fatalf("enforced canary: %v", err)
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name        string
		failed      int64
		wrong       int64
		invalid     string
		wantCorrect bool
		wantCode    int
	}{
		{"clean", 0, 0, "", true, 0},
		{"failed operation", 1, 0, "", false, exitWrong},
		{"wrong answer", 1, 1, "", false, exitWrong},
		{"generator behind", 0, 0, "lag", false, exitInvalid},
	} {
		rep := newReport()
		rep.attempted, rep.failed, rep.invalid = 100, tc.failed, tc.invalid
		correct, code := verdict(rep, tc.wrong)
		if correct != tc.wantCorrect || code != tc.wantCode {
			t.Errorf("%s: verdict = %v, %d; want %v, %d", tc.name, correct, code, tc.wantCorrect, tc.wantCode)
		}
	}
}

func TestLagInvalid(t *testing.T) {
	for _, tc := range []struct {
		name              string
		lag75, lag99, p50 float64
		invalid           bool
	}{
		{"prompt generator", 1, 900, 250, false},
		{"late at p75", 30, 900, 250, true},
		{"late at p99", 1, 12000, 250, true},
	} {
		if got := lagInvalid(tc.lag75, tc.lag99, tc.p50) != ""; got != tc.invalid {
			t.Errorf("%s: invalid = %v, want %v", tc.name, got, tc.invalid)
		}
	}
}

func TestAbandonedPhaseIsCounted(t *testing.T) {
	slow := func(ctx context.Context, sender int) (string, error) {
		time.Sleep(abandonLate + 100*time.Millisecond)
		return tagDecide, nil
	}
	ph := openLoop(context.Background(), 100, 200*time.Millisecond, 1, false, true, slow)
	if ph.Abandoned.Load() != 1 {
		t.Fatalf("a sender stuck past abandonLate: %d abandoned, want 1", ph.Abandoned.Load())
	}
	w := &run{rep: newReport()}
	w.count("nominal", ph)
	if _, code := verdict(w.rep, 0); code != exitInvalid {
		t.Fatalf("abandoned nominal phase: exit %d, want %d", code, exitInvalid)
	}
}
