//go:build race

package poison

// Enabled reports a race-detector build. Tests read it to skip what cannot
// hold there, allocation guards above all: the detector allocates on its
// own account, and sync.Pool drops a quarter of its Puts on purpose.
const Enabled = true
