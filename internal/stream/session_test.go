package stream

import (
	"testing"
	"time"

	"repro/internal/workload"
)

func sessSend(t *testing.T, s *Sessionizer, key string, at time.Duration) {
	t.Helper()
	if err := s.Send(Event{Key: key, Value: 1, EventTime: at}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSession(t *testing.T) {
	s := NewSessionizer(SessionConfig{Gap: 10 * time.Second, Workers: 1})
	sessSend(t, s, "u", 0)
	sessSend(t, s, "u", 5*time.Second)
	sessSend(t, s, "u", 12*time.Second)
	out := s.Close()
	if len(out) != 1 {
		t.Fatalf("sessions = %+v", out)
	}
	if out[0].Count != 3 || out[0].Start != 0 || out[0].End != 12*time.Second {
		t.Fatalf("session = %+v", out[0])
	}
}

func TestGapSplitsSessions(t *testing.T) {
	s := NewSessionizer(SessionConfig{Gap: 5 * time.Second, Workers: 1})
	sessSend(t, s, "u", 0)
	sessSend(t, s, "u", 3*time.Second)
	sessSend(t, s, "u", 20*time.Second) // > 5s after previous: new session
	out := s.Close()
	if len(out) != 2 {
		t.Fatalf("sessions = %+v", out)
	}
	if out[0].Count != 2 || out[1].Count != 1 {
		t.Fatalf("counts = %d, %d", out[0].Count, out[1].Count)
	}
}

func TestLateEventBridgesSessions(t *testing.T) {
	// Two bursts 8s apart with gap 5s are separate — until a late event
	// lands between them and merges everything into one session.
	s := NewSessionizer(SessionConfig{Gap: 5 * time.Second, Workers: 1})
	sessSend(t, s, "u", 0)
	sessSend(t, s, "u", 8*time.Second)
	sessSend(t, s, "u", 4*time.Second) // bridges [0] and [8]
	out := s.Close()
	if len(out) != 1 {
		t.Fatalf("bridging failed: %+v", out)
	}
	if out[0].Count != 3 || out[0].End != 8*time.Second {
		t.Fatalf("merged session = %+v", out[0])
	}
}

func TestWatermarkClosesOnlyExpiredSessions(t *testing.T) {
	s := NewSessionizer(SessionConfig{Gap: 5 * time.Second, Workers: 1})
	sessSend(t, s, "old", 0)
	sessSend(t, s, "new", 20*time.Second)
	if err := s.Advance(10 * time.Second); err != nil { // closes "old" (end 0 + 5 <= 10)
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(s.out.snapshot()) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired session did not fire")
		}
		time.Sleep(time.Millisecond)
	}
	out := s.Close()
	if len(out) != 2 {
		t.Fatalf("sessions = %+v", out)
	}
}

func TestSessionsPerKeyIndependent(t *testing.T) {
	s := NewSessionizer(SessionConfig{Gap: 5 * time.Second, Workers: 4})
	for i := 0; i < 10; i++ {
		sessSend(t, s, "a", time.Duration(i)*time.Second)
		sessSend(t, s, "b", time.Duration(i*20)*time.Second)
	}
	out := s.Close()
	byKey := map[string]int{}
	for _, r := range out {
		byKey[r.Key]++
	}
	if byKey["a"] != 1 {
		t.Fatalf("key a has %d sessions, want 1", byKey["a"])
	}
	if byKey["b"] != 10 {
		t.Fatalf("key b has %d sessions, want 10", byKey["b"])
	}
}

func TestSessionizerClickstream(t *testing.T) {
	clicks := workload.Clickstream(5000, 50, 10, 500, 0, 31)
	s := NewSessionizer(SessionConfig{Gap: 2 * time.Second, Workers: 4})
	for _, c := range clicks {
		if err := s.Send(Event{Key: c.User, Value: 1, EventTime: c.EventTime}); err != nil {
			t.Fatal(err)
		}
	}
	out := s.Close()
	var total int64
	for _, r := range out {
		total += r.Count
		if r.End < r.Start {
			t.Fatalf("inverted session %+v", r)
		}
	}
	if total != 5000 {
		t.Fatalf("sessions cover %d events, want 5000", total)
	}
}

func TestSessionizerSendAfterClose(t *testing.T) {
	s := NewSessionizer(SessionConfig{Gap: time.Second})
	s.Close()
	if err := s.Send(Event{Key: "k"}); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	if err := s.Advance(time.Second); err != ErrClosed {
		t.Fatalf("err = %v", err)
	}
	s.Close() // idempotent
}
