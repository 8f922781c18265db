package ordered

import (
	"errors"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rqm/internal/codec"
)

// TestOrderUnderRandomDelays: jobs that finish in any order come back in
// submission order.
func TestOrderUnderRandomDelays(t *testing.T) {
	const jobs = 300
	delays := make([]time.Duration, jobs)
	rng := rand.New(rand.NewSource(1))
	for i := range delays {
		delays[i] = time.Duration(rng.Intn(500)) * time.Microsecond
	}
	p := New(4, func(i int) (int, error) {
		time.Sleep(delays[i])
		return 3 * i, nil
	})
	p.Go(func() {
		defer p.Close()
		for i := range jobs {
			p.Submit(i)
		}
	})
	for i := range jobs {
		if v, err := p.Next(); err != nil || v != 3*i {
			t.Fatalf("result %d = %d, %v; want %d", i, v, err, 3*i)
		}
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("after the last result: %v, want io.EOF", err)
	}
	p.Wait()
}

// TestInFlightBudget: with no result taken, exactly n+2 jobs are accepted
// and the next Submit blocks.
func TestInFlightBudget(t *testing.T) {
	const n = 3
	var accepted atomic.Int64
	p := New(n, func(i int) (int, error) { return i, nil })
	p.Go(func() {
		for i := 0; p.Submit(i); i++ {
			accepted.Add(1)
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for accepted.Load() < n+2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // room for a Submit past the budget to return
	if got := accepted.Load(); got != n+2 {
		t.Fatalf("%d jobs accepted with no result taken, want %d", got, n+2)
	}
	p.Stop()
}

// TestPanicIsTypedAtItsPosition: a panic at job k is delivered as job k's
// error, wrapping codec.ErrCorrupt, and the jobs after it still run and
// come back in order.
func TestPanicIsTypedAtItsPosition(t *testing.T) {
	const k, jobs = 7, 20
	p := New(3, func(i int) (int, error) {
		if i == k {
			panic("bug in job")
		}
		return i, nil
	})
	p.Go(func() {
		defer p.Close()
		for i := range jobs {
			p.Submit(i)
		}
	})
	for i := range jobs {
		v, err := p.Next()
		switch {
		case i == k && !errors.Is(err, codec.ErrCorrupt):
			t.Fatalf("job %d panicked, delivered as %v; want codec.ErrCorrupt", k, err)
		case i != k && (err != nil || v != i):
			t.Fatalf("job %d = %d, %v", i, v, err)
		}
	}
	if _, err := p.Next(); err != io.EOF {
		t.Fatalf("after the last result: %v, want io.EOF", err)
	}
	p.Wait()
}

// TestStopReleasesEveryGoroutine: a stop mid-stream, with the feeder
// blocked on a full pipeline and the consumer blocked on a slow job, ends
// Submit and Next at once and leaves no goroutine of the pool running.
func TestStopReleasesEveryGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	release := make(chan struct{})
	p := New(4, func(i int) (int, error) {
		if i == 2 {
			<-release // a job still running when the pool stops
		}
		return i, nil
	})
	fed := make(chan bool, 1)
	p.Go(func() {
		for i := 0; ; i++ {
			if !p.Submit(i) {
				fed <- false
				return
			}
		}
	})
	for i := range 2 {
		if v, err := p.Next(); err != nil || v != i {
			t.Fatalf("result %d = %d, %v", i, v, err)
		}
	}
	next := make(chan error, 1)
	go func() {
		_, err := p.Next() // blocks on job 2
		next <- err
	}()
	// Job 2 cannot finish before release, so whether the consumer has parked
	// by now or not, its Next must report the stop.
	time.Sleep(10 * time.Millisecond)
	stopped := make(chan struct{})
	go func() {
		p.Stop()
		close(stopped)
	}()
	if err := <-next; err != ErrStopped {
		t.Fatalf("Next across Stop: %v, want ErrStopped", err)
	}
	if ok := <-fed; ok {
		t.Fatal("Submit reported success after Stop")
	}
	close(release) // Stop waits for the job that was running
	<-stopped
	if _, err := p.Next(); err != ErrStopped {
		t.Fatalf("Next after Stop: %v, want ErrStopped", err)
	}
	if p.Submit(0) {
		t.Fatal("Submit after Stop reported success")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running after Stop, %d before:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}
