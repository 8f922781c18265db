package router

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package if goroutines outlive its tests: every router
// a test builds must stop its prober and its read-repairs, and every shard
// and client connection must close, whether the test passed or failed.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settle(base, 5*time.Second); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// settle waits up to timeout for the goroutine count to fall back to base,
// and otherwise reports every goroutine's stack.
func settle(base int, timeout time.Duration) error {
	for deadline := time.Now().Add(timeout); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			return fmt.Errorf("%d goroutines outlive the tests, %d ran before them:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
	return nil
}
