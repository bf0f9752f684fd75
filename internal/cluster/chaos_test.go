package cluster

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"mapdr/internal/core"
	"mapdr/internal/geo"
	"mapdr/internal/locserv"
	"mapdr/internal/wire"
)

// TestChaosPlanFiresInOrder: events fire by At, stable on ties, each
// exactly once, with the fired log matching execution order.
func TestChaosPlanFiresInOrder(t *testing.T) {
	var ran []string
	mk := func(name string) func() { return func() { ran = append(ran, name) } }
	p := NewChaosPlan(
		ChaosEvent{At: 2, Name: "b", Do: mk("b")},
		ChaosEvent{At: 1, Name: "a", Do: mk("a")},
		ChaosEvent{At: 2, Name: "c", Do: mk("c")},
		ChaosEvent{At: 5, Name: "d", Do: mk("d")},
	)
	if fired := p.Advance(0.5); len(fired) != 0 {
		t.Fatalf("Advance(0.5) fired %v before anything was due", fired)
	}
	if fired := p.Advance(2); !reflect.DeepEqual(fired, []string{"a", "b", "c"}) {
		t.Fatalf("Advance(2) = %v, want [a b c]", fired)
	}
	if p.Remaining() != 1 {
		t.Fatalf("Remaining() = %d, want 1", p.Remaining())
	}
	if fired := p.Advance(10); !reflect.DeepEqual(fired, []string{"d"}) {
		t.Fatalf("Advance(10) = %v, want [d]", fired)
	}
	if fired := p.Advance(10); len(fired) != 0 {
		t.Fatalf("re-Advance refired %v", fired)
	}
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(p.Fired(), want) || !reflect.DeepEqual(ran, want) {
		t.Fatalf("Fired() = %v, ran = %v, want %v", p.Fired(), ran, want)
	}
}

// lossPattern records which of k draws a freshly seeded injector drops.
func lossPattern(p float64, seed int64, k int) []bool {
	inj := &FaultInjector{}
	inj.SetLossRate(p, seed)
	out := make([]bool, k)
	for i := range out {
		out[i] = inj.deliverFails()
	}
	return out
}

// TestFaultInjectorLossAndLatency pins the chaos primitives: loss
// bursts are deterministic per seed and clear to zero, latency spikes
// actually sleep, and Recover leaves both untouched.
func TestFaultInjectorLossAndLatency(t *testing.T) {
	inj := &FaultInjector{}
	inj.SetLossRate(1, 42)
	if !inj.deliverFails() {
		t.Fatal("p=1 loss must drop every delivery")
	}
	inj.Recover() // does not touch loss injection
	if !inj.deliverFails() {
		t.Fatal("Recover must not clear the loss burst")
	}
	inj.SetLossRate(0, 0)
	if inj.deliverFails() {
		t.Fatal("cleared loss must not drop")
	}

	a := lossPattern(0.5, 7, 200)
	if !reflect.DeepEqual(a, lossPattern(0.5, 7, 200)) {
		t.Fatal("same seed must give the same drop pattern")
	}
	drops := 0
	for _, d := range a {
		if d {
			drops++
		}
	}
	if drops < 50 || drops > 150 {
		t.Fatalf("p=0.5 dropped %d of 200", drops)
	}

	inj.SetLatency(5 * time.Millisecond)
	start := time.Now()
	inj.delay()
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("latency spike slept %v, want >= 5ms", elapsed)
	}
	inj.SetLatency(0)
	start = time.Now()
	inj.delay()
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Fatalf("cleared latency still slept %v", elapsed)
	}
}

// TestFaultModes pins which member calls each fault mode fails with
// ErrInjectedFault: a killed member fails every call, a wedged write
// path and a full loss burst fail only deliveries, and a recovered
// member fails nothing.
func TestFaultModes(t *testing.T) {
	calls := []string{"Register", "Position", "Nearest", "Within", "Export",
		"NodeStats", "ObsSnapshot", "Deliver", "Send"}
	writes := map[string]bool{"Deliver": true, "Send": true}
	all := func(string) bool { return true }
	for _, mode := range []struct {
		name  string
		apply func(*FaultInjector)
		fails func(call string) bool
	}{
		{"Fail", (*FaultInjector).Fail, all},
		{"FailDeliver", (*FaultInjector).FailDeliver, func(c string) bool { return writes[c] }},
		{"SetLossRate", func(inj *FaultInjector) { inj.SetLossRate(1, 3) }, func(c string) bool { return writes[c] }},
		{"Recover", func(inj *FaultInjector) {
			inj.Fail()
			inj.FailDeliver()
			inj.Recover()
		}, func(string) bool { return false }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			node := locserv.NewNodeService(locserv.NewSharded(2),
				func(locserv.ObjectID) core.Predictor { return core.LinearPredictor{} })
			m, inj := NewFaultyMember("n", node)
			rec := []wire.Record{repRecord(1, 1)}
			mode.apply(inj)
			for _, call := range calls {
				var err error
				switch call {
				case "Register":
					err = m.Node.Register("reg-" + locserv.ObjectID(mode.name))
				case "Position":
					_, _, _, err = m.Node.Position("obj-0001", 1)
				case "Nearest":
					_, err = m.Node.Nearest(geo.Pt(0, 0), 3, 1)
				case "Within":
					_, err = m.Node.Within(geo.Rect{Max: geo.Pt(100, 100)}, 1)
				case "Export":
					_, _, err = m.Node.Export(0, 0)
				case "NodeStats":
					_, err = m.Node.NodeStats()
				case "ObsSnapshot":
					_, err = m.Node.(locserv.ObsSnapshotter).ObsSnapshot()
				case "Deliver":
					_, err = m.Node.Deliver(rec)
				case "Send":
					err = m.Ingest.Send(1, rec)
				}
				if got, want := errors.Is(err, ErrInjectedFault), mode.fails(call); got != want {
					t.Errorf("%s: err %v, injected fault %v, want %v", call, err, got, want)
				} else if !want && err != nil {
					t.Errorf("%s: %v", call, err)
				}
			}
		})
	}
}
