// Package ordered is the one worker pool under every chunk fan-out: jobs
// submitted on one goroutine run on n workers, and their results come back
// in submission order on another.
package ordered

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"rqm/internal/codec"
)

// ErrStopped is what Next returns once the pool is stopped.
var ErrStopped = errors.New("ordered: pool stopped")

// Pool runs fn on n workers with at most n+2 jobs in flight. A panic in fn
// is that job's error, wrapping codec.ErrCorrupt, not the end of the
// process. One goroutine submits (Submit, then Close) and one takes the
// results (Next); either may be the caller's or one started with Go.
type Pool[J, R any] struct {
	fn    func(J) (R, error)
	jobs  chan *slot[J, R] // n deep, so a worker done with one job finds the next
	order chan *slot[J, R] // submitted jobs in submission order; n+2 deep, the budget
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

type slot[J, R any] struct {
	job  J
	val  R
	err  error
	done chan struct{}
}

// New starts n workers running fn, GOMAXPROCS of them when n < 1.
func New[J, R any](n int, fn func(J) (R, error)) *Pool[J, R] {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool[J, R]{
		fn:    fn,
		jobs:  make(chan *slot[J, R], n),
		order: make(chan *slot[J, R], n+2),
		stop:  make(chan struct{}),
	}
	for range n {
		p.Go(p.work)
	}
	return p
}

// Go runs f beside the workers, as the pool's feeder or sequencer; Wait and
// Stop wait for it.
func (p *Pool[J, R]) Go(f func()) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		f()
	}()
}

func (p *Pool[J, R]) work() {
	for {
		select {
		case s, ok := <-p.jobs:
			if !ok {
				return
			}
			p.run(s)
		case <-p.stop:
			return
		}
	}
}

func (p *Pool[J, R]) run(s *slot[J, R]) {
	defer func() {
		if v := recover(); v != nil {
			s.err = fmt.Errorf("%w: worker panicked: %v", codec.ErrCorrupt, v)
		}
		close(s.done)
	}()
	s.val, s.err = p.fn(s.job)
}

// Submit queues j behind every job submitted before it, blocking while n+2
// are in flight. It reports false, with j not run, once the pool is stopped.
func (p *Pool[J, R]) Submit(j J) bool {
	s := &slot[J, R]{job: j, done: make(chan struct{})}
	select {
	case p.order <- s:
	case <-p.stop:
		return false
	}
	select {
	case p.jobs <- s:
		return true
	case <-p.stop:
		return false
	}
}

// Close ends submission: the workers return once the queued jobs are done,
// and Next reports io.EOF after the last result. Close is for a feed that
// ends; a pool abandoned with Stop needs none.
func (p *Pool[J, R]) Close() {
	close(p.jobs)
	close(p.order)
}

// Next returns the next result in submission order, io.EOF after the last
// one, or ErrStopped once the pool is stopped.
func (p *Pool[J, R]) Next() (val R, err error) {
	select {
	case <-p.stop:
		return val, ErrStopped
	default:
	}
	select {
	case s, ok := <-p.order:
		if !ok {
			return val, io.EOF
		}
		select {
		case <-s.done:
			return s.val, s.err
		case <-p.stop:
		}
	case <-p.stop:
	}
	return val, ErrStopped
}

// Wait blocks until the workers and every Go function have returned.
func (p *Pool[J, R]) Wait() { p.wg.Wait() }

// Stop abandons the pool: Submit and Next return at once and queued jobs are
// dropped. It then waits like Wait, so it must not be called from a
// goroutine of the pool.
func (p *Pool[J, R]) Stop() {
	p.once.Do(func() { close(p.stop) })
	p.wg.Wait()
}
