package stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// These tests exist for the -race build: Close races Send, Advance and
// TriggerCheckpoint. A lane checks closed under the same lock as the
// append, so the only acceptable outcomes are success or ErrClosed — and
// with Buffer 1 the senders are mostly blocked on a full lane when Close
// arrives, so none of them may be left stranded there.

func TestPipelineCloseRace(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		p := New(Config{Workers: 2, Buffer: iter % 2, Window: 10 * time.Millisecond})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					ev := Event{Key: fmt.Sprintf("k%d", (g*31+i)%8), Value: 1,
						EventTime: time.Duration(i) * time.Millisecond}
					if err := p.Send(ev); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Send: %v", err)
						}
						return
					}
					if i%5 == 0 {
						if err := p.Advance(time.Duration(i) * time.Millisecond); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("Advance: %v", err)
							}
							return
						}
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := p.TriggerCheckpoint(0, 0); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("TriggerCheckpoint: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p.Close()
		}()
		close(start)
		wg.Wait()
		p.Close() // idempotent
	}
}

func TestSessionizerCloseRace(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		s := NewSessionizer(SessionConfig{Gap: 10 * time.Millisecond, Workers: 2, Buffer: iter % 2})
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; ; i++ {
					ev := Event{Key: fmt.Sprintf("k%d", (g*17+i)%8), Value: 1,
						EventTime: time.Duration(i) * time.Millisecond}
					if err := s.Send(ev); err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("Send: %v", err)
						}
						return
					}
					if i%5 == 0 {
						if err := s.Advance(time.Duration(i) * time.Millisecond); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("Advance: %v", err)
							}
							return
						}
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := s.TriggerCheckpoint(0, 0); err != nil && !errors.Is(err, ErrClosed) {
				t.Errorf("TriggerCheckpoint: %v", err)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Close()
		}()
		close(start)
		wg.Wait()
		s.Close()
	}
}
