package faultfs

import (
	"testing"
	"time"
)

// WaitFor polls cond every 10 ms until it returns nil, and fails the test
// with cond's last error once timeout has passed. The chaos suite awaits
// asynchronous work with it — read-repairs, scrubs, replica syncs — so cond
// must check everything the test asserts after the wait: a wait that ends
// on part of that state leaves the rest for the assertions to race.
func WaitFor(t testing.TB, timeout time.Duration, cond func() error) {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("still waiting after %v: %v", timeout, err)
		}
	}
}
