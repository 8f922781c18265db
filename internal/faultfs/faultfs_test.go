package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// writeTemp drops content into a temp file and returns its path.
func writeTemp(t *testing.T, name string, content []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, content, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPassThroughWithoutFaults(t *testing.T) {
	content := []byte("hello integrity")
	p := writeTemp(t, "plain.bin", content)
	fs := New()

	got, err := fs.ReadFile(p)
	if err != nil || !bytes.Equal(got, content) {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	f, err := fs.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got2, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got2, content) {
		t.Fatalf("Open/ReadAll = %q, %v", got2, err)
	}
	// Unfaulted traffic is not counted as interposed reads.
	if reads, _, _ := fs.Stats(); reads != 0 {
		t.Fatalf("reads = %d, want 0 for pass-through", reads)
	}
}

func TestFlipFault(t *testing.T) {
	content := []byte{0x10, 0x20, 0x30, 0x40}
	p := writeTemp(t, "data.rqz", content)
	fs := New()
	fault := NewFault()
	fault.FlipOffset = 2
	fs.Set("data.rqz", fault)

	got, err := fs.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x10, 0x20, 0x30 ^ 0xFF, 0x40}
	if !bytes.Equal(got, want) {
		t.Fatalf("flipped read = %x, want %x", got, want)
	}
	// The transform is a view: the disk file is untouched.
	disk, _ := os.ReadFile(p)
	if !bytes.Equal(disk, content) {
		t.Fatalf("disk content changed: %x", disk)
	}
	// Open serves the same injected view through seeks.
	f, err := fs.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.Read(b); err != nil || b[0] != 0x30^0xFF {
		t.Fatalf("seek+read through faulted Open = %x, %v", b, err)
	}
	if reads, _, flipped := fs.Stats(); reads != 2 || flipped != 2 {
		t.Fatalf("stats reads=%d flipped=%d, want 2/2", reads, flipped)
	}
}

func TestTruncateAndTearFaults(t *testing.T) {
	content := []byte("0123456789abcdef")
	p := writeTemp(t, "manifest.json", content)
	fs := New()

	short := NewFault()
	short.TruncateTo = 4
	fs.Set("manifest.json", short)
	got, err := fs.ReadFile(p)
	if err != nil || string(got) != "0123" {
		t.Fatalf("truncated read = %q, %v", got, err)
	}

	torn := NewFault()
	torn.Tear = true
	fs.Set("manifest.json", torn)
	got, err = fs.ReadFile(p)
	if err != nil || len(got) != len(content) {
		t.Fatalf("torn read = %q, %v", got, err)
	}
	if !bytes.Equal(got[:8], content[:8]) {
		t.Fatalf("torn read mangled the head: %q", got)
	}
	if bytes.Equal(got[8:], content[8:]) {
		t.Fatal("torn read left the tail intact")
	}
}

func TestErrAndDelayFaults(t *testing.T) {
	p := writeTemp(t, "data.rqz", []byte("x"))
	fs := New()
	sentinel := errors.New("disk on fire")
	f := NewFault()
	f.Err = sentinel
	fs.Set("data.rqz", f)
	if _, err := fs.ReadFile(p); !errors.Is(err, sentinel) {
		t.Fatalf("err fault: %v", err)
	}
	if _, err := fs.Open(p); !errors.Is(err, sentinel) {
		t.Fatalf("err fault via Open: %v", err)
	}

	d := NewFault()
	d.Delay = 30 * time.Millisecond
	fs.Set("data.rqz", d)
	start := time.Now()
	if _, err := fs.ReadFile(p); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("delayed read returned after %v", elapsed)
	}
}

func TestHangReleaseAndReset(t *testing.T) {
	p := writeTemp(t, "data.rqz", []byte("x"))
	fs := New()
	h := NewFault()
	h.Hang = true
	fs.Set("data.rqz", h)

	done := make(chan error, 1)
	go func() {
		_, err := fs.ReadFile(p)
		done <- err
	}()
	// The read must park, not return.
	select {
	case err := <-done:
		t.Fatalf("hung read returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	fs.Release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("released read failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still hung after Release")
	}
	if _, hung, _ := fs.Stats(); hung != 1 {
		t.Fatalf("hung count = %d, want 1", hung)
	}

	// Reset disarms the fault entirely: the next read is pass-through.
	go func() {
		_, err := fs.ReadFile(p)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("fault still armed after Release: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	fs.Reset()
	<-done
	if _, err := fs.ReadFile(p); err != nil {
		t.Fatalf("read after Reset: %v", err)
	}
}

func TestClear(t *testing.T) {
	p := writeTemp(t, "data.rqz", []byte{1, 2, 3})
	fs := New()
	f := NewFault()
	f.FlipOffset = 0
	fs.Set("data.rqz", f)
	fs.Clear("data.rqz")
	got, err := fs.ReadFile(p)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("read after Clear = %x, %v", got, err)
	}
}

func TestCorruptFile(t *testing.T) {
	content := []byte{0xAA, 0xBB, 0xCC, 0xDD}
	p := writeTemp(t, "victim.bin", content)

	if err := CorruptFile(p, 1); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(p)
	if !bytes.Equal(got, []byte{0xAA, 0xBB ^ 0xFF, 0xCC, 0xDD}) {
		t.Fatalf("after flip at 1: %x", got)
	}
	// XOR 0xFF is an involution: a second flip restores the byte.
	if err := CorruptFile(p, 1); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(p)
	if !bytes.Equal(got, content) {
		t.Fatalf("double flip did not restore: %x", got)
	}
	// Negative offsets count from the end.
	if err := CorruptFile(p, -1); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(p)
	if got[3] != 0xDD^0xFF {
		t.Fatalf("flip at -1: %x", got)
	}
	// Out-of-range offsets are an error, not a silent no-op.
	if err := CorruptFile(p, 99); err == nil {
		t.Fatal("flip past EOF succeeded")
	}
	if err := CorruptFile(p, -99); err == nil {
		t.Fatal("flip before start succeeded")
	}
	if err := CorruptFile(filepath.Join(t.TempDir(), "absent"), 0); err == nil {
		t.Fatal("flip of missing file succeeded")
	}
}

// TestWaitForPollsUntilDone: WaitFor keeps polling while cond reports a
// reason and returns on its first nil.
func TestWaitForPollsUntilDone(t *testing.T) {
	calls := 0
	WaitFor(t, 5*time.Second, func() error {
		if calls++; calls < 3 {
			return errors.New("not yet")
		}
		return nil
	})
	if calls != 3 {
		t.Fatalf("cond called %d times, want 3", calls)
	}
}
