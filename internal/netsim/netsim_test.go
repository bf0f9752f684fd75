package netsim

import (
	"testing"
)

func TestPerfectLinkDeliversImmediately(t *testing.T) {
	l := NewPerfect()
	if !l.Send(10, 49, "a") {
		t.Fatal("send failed")
	}
	msgs := l.Deliverable(10)
	if len(msgs) != 1 || msgs[0].Payload != "a" || msgs[0].DeliverT != 10 {
		t.Fatalf("msgs = %+v", msgs)
	}
	if l.Pending() != 0 || msgs[0].Size != 49 {
		t.Errorf("pending %d, size %d; want 0 and 49", l.Pending(), msgs[0].Size)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	l := NewLink(1, 2.5, 0, 0)
	l.Send(0, 10, 1)
	if msgs := l.Deliverable(2.4); len(msgs) != 0 {
		t.Error("delivered too early")
	}
	if msgs := l.Deliverable(2.5); len(msgs) != 1 {
		t.Error("not delivered at latency")
	}
}

func TestDeliveryOrder(t *testing.T) {
	l := NewLink(2, 1, 0, 0)
	l.Send(0, 1, "first")
	l.Send(0.5, 1, "second")
	msgs := l.Deliverable(10)
	if len(msgs) != 2 || msgs[0].Payload != "first" || msgs[1].Payload != "second" {
		t.Fatalf("order = %+v", msgs)
	}
}

func TestLossProbability(t *testing.T) {
	l := NewLink(3, 0, 0, 0.5)
	dropped := 0
	for i := 0; i < 2000; i++ {
		if !l.Send(float64(i), 1, i) {
			dropped++
		}
	}
	if got := len(l.Deliverable(2000)); got != 2000-dropped {
		t.Fatalf("delivered %d of the %d messages Send accepted", got, 2000-dropped)
	}
	frac := float64(dropped) / 2000
	if frac < 0.42 || frac > 0.58 {
		t.Errorf("drop fraction = %v, want ≈0.5", frac)
	}
}

func TestDisconnectionWindow(t *testing.T) {
	l := NewPerfect()
	l.Disconnections = []Window{{From: 100, To: 200}}
	if !l.Send(50, 1, nil) {
		t.Error("before window should pass")
	}
	if l.Send(150, 1, nil) {
		t.Error("inside window should drop")
	}
	if l.Send(199.9, 1, nil) {
		t.Error("window is half-open at the end")
	}
	if !l.Send(200, 1, nil) {
		t.Error("at window end should pass")
	}
}

func TestJitterBounded(t *testing.T) {
	l := NewLink(4, 1, 2, 0)
	for i := 0; i < 500; i++ {
		l.Send(0, 1, nil)
	}
	msgs := l.Deliverable(100)
	if len(msgs) != 500 {
		t.Fatalf("delivered %d", len(msgs))
	}
	for _, m := range msgs {
		if m.DeliverT < 1 || m.DeliverT > 3 {
			t.Fatalf("delivery time %v outside [1,3]", m.DeliverT)
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := NewLink(7, 1, 5, 0.2)
	b := NewLink(7, 1, 5, 0.2)
	for i := 0; i < 100; i++ {
		if a.Send(float64(i), 1, nil) != b.Send(float64(i), 1, nil) {
			t.Fatal("same seed, different drops")
		}
	}
}
