package service

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
)

// TestJobStoreCloseFailsQueuedJobsTerminally is the shutdown-audit
// regression for the job pool: close must (1) fail every still-queued
// job terminally so awaiting clients unblock, (2) be safe to call
// twice, and (3) reject submissions arriving after it.
func TestJobStoreCloseFailsQueuedJobsTerminally(t *testing.T) {
	running := make(chan struct{}, 1)
	var st *jobStore
	st = newJobStore(1, time.Minute, func(MineParams) (*mineOutcome, error) {
		select { // non-blocking: the exiting worker may run several jobs
		case running <- struct{}{}:
		default:
		}
		<-st.quit // block the worker until close() begins
		return &mineOutcome{version: 1}, nil
	})

	p := MineParams{MinSupport: 0.1, Limit: 10}
	jobs := make([]*job, 0, 65)
	j1, err := st.submit(p)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, j1)
	<-running // the single worker is now blocked inside j1
	// Queue far more jobs than the exiting worker could plausibly drain
	// (each quit/queue select is a coin flip, so 64 queued jobs reach
	// the close-side drain with probability 1 − 2⁻⁶⁴).
	for i := 0; i < 64; i++ {
		j, err := st.submit(p)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}

	closed := make(chan struct{})
	go func() {
		st.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("close did not return")
	}

	// Every job must be terminal — done (the worker got to it) or
	// failed with the server-closed error (the drain got to it) — and
	// with a blocked single worker, at least one must have been drained.
	drained := 0
	for i, j := range jobs {
		select {
		case <-j.done:
		default:
			t.Fatalf("job %d not terminal after close", i)
		}
		st.mu.Lock()
		state, jerr := j.state, j.err
		st.mu.Unlock()
		switch state {
		case JobDone:
		case JobFailed:
			if !errors.Is(jerr, errServerClosed) {
				t.Fatalf("job %d failed with %v, want server-closed", i, jerr)
			}
			drained++
		default:
			t.Fatalf("job %d state %q after close", i, state)
		}
	}
	if drained == 0 {
		t.Fatal("no queued job was failed terminally by close")
	}

	// Idempotent: a second close is a no-op, not a double-close panic.
	st.close()

	// Post-close submissions are rejected outright.
	if _, err := st.submit(p); !errors.Is(err, errServerClosed) {
		t.Fatalf("post-close submit error %v, want server-closed", err)
	}
}

// TestServerCloseIdempotent covers the public surface: double Close on
// a live server (the path cmd/frapp-server's defer takes after an
// explicit shutdown) must be safe.
func TestServerCloseIdempotent(t *testing.T) {
	srv, err := NewServer(serviceSchema(t), core.PrivacySpec{Rho1: 0.05, Rho2: 0.50})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close()
}
