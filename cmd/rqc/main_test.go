package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"rqm"
	"rqm/internal/grid"
	"rqm/internal/service"
	"rqm/internal/store"
)

// TestScanValueRange checks the streaming pre-pass finds the same global
// range an in-memory scan does, in both precisions.
func TestScanValueRange(t *testing.T) {
	for _, prec := range []rqm.Precision{rqm.Float32, rqm.Float64} {
		vals := []float64{3, -7.5, 0.25, 1024, -0.125, 511.5}
		f, err := rqm.FieldFromData("scan", prec, vals, len(vals))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "scan.rqmf")
		fh, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteTo(fh); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
		lo, hi := scanValueRange(path)
		if lo != -7.5 || hi != 1024 {
			t.Fatalf("prec %d: scanned range [%g, %g], want [-7.5, 1024]", prec.Bits(), lo, hi)
		}
	}
}

// TestDatasetSubcommands drives put/get/ls/rm/recompact end to end against
// an in-process rqserved instance with a store. The subcommands fatal (exit
// the test binary) on any error, so reaching the final assertion is itself
// the pass condition; file contents are verified on top.
func TestDatasetSubcommands(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(service.Config{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	dir := t.TempDir()
	g, err := rqm.GenerateField("nyx/temperature", 11, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rqm.FieldFromData("cli", rqm.Float64, g.Data, g.Dims...)
	if err != nil {
		t.Fatal(err)
	}
	in := filepath.Join(dir, "in.rqmf")
	fh, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	cmdPut([]string{"-remote", ts.URL, "-name", "cli", "-in", in, "-mode", "rel", "-eb", "1e-3", "-chunk", "1024"})
	cmdLs([]string{"-remote", ts.URL})

	out := filepath.Join(dir, "out.rqmf")
	cmdGet([]string{"-remote", ts.URL, "-name", "cli", "-out", out})
	oh, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	back, err := grid.ReadFrom(oh)
	oh.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := rqm.VerifyErrorBound(f, back, rqm.REL, 1e-3*(1+1e-12)); err != nil {
		t.Fatal(err)
	}

	slice := filepath.Join(dir, "slice.rqmf")
	cmdGet([]string{"-remote", ts.URL, "-name", "cli", "-out", slice, "-off", "100", "-len", "64"})
	sh, err := os.Open(slice)
	if err != nil {
		t.Fatal(err)
	}
	sf, err := grid.ReadFrom(sh)
	sh.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sf.Len() != 64 || sf.Data[0] != back.Data[100] {
		t.Fatalf("slice: %d values, first %v (want %v)", sf.Len(), sf.Data[0], back.Data[100])
	}

	// Recompact to an already-met ratio: must report a skip, not rewrite.
	m, err := st.Manifest("cli")
	if err != nil {
		t.Fatal(err)
	}
	writes := st.Writes()
	cmdRecompact([]string{"-remote", ts.URL, "-name", "cli", "-target-ratio", fmt.Sprint(m.Ratio / 2)})
	if st.Writes() != writes {
		t.Fatal("met-target recompact rewrote the container")
	}

	cmdRm([]string{"-remote", ts.URL, "-name", "cli"})
	if _, err := st.Manifest("cli"); err == nil {
		t.Fatal("dataset survived rm")
	}
}

// TestCompressFlagValidation pins the up-front usage errors: contradictory
// or nonsensical flag combinations must fail with a usage error before any
// file or network I/O (the input paths here do not exist).
func TestCompressFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"both targets", []string{"-in", "x.rqmf", "-out", "y.rqz", "-target-ratio", "8", "-target-psnr", "60"}},
		{"zero chunk", []string{"-in", "x.rqmf", "-out", "y.rqz", "-chunk", "0"}},
		{"negative chunk", []string{"-in", "x.rqmf", "-out", "y.rqz", "-chunk", "-5"}},
		{"adaptive-space without target", []string{"-in", "x.rqmf", "-out", "y.rqz", "-adaptive-space"}},
	}
	defer func() { exit = os.Exit }()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := -1
			exit = func(c int) {
				code = c
				panic("rqc: exit")
			}
			func() {
				defer func() { _ = recover() }()
				cmdCompress(tc.args)
			}()
			if code != 1 {
				t.Fatalf("args %v: exit status %d, want usage error", tc.args, code)
			}
		})
	}
}

// TestArchivedContainers drives rqc decompress and inspect over every archived
// container. The .rqmf decompress writes must be the bytes rqm.Decompress's
// field writes, and the two radius fixtures must decode to .rqmf files with
// the SHA-256 pinned below.
func TestArchivedContainers(t *testing.T) {
	ins, _ := filepath.Glob("../../testdata/pre_pr*.rqz") // the pattern is well formed
	ins = append(ins, "../../internal/store/testdata/pre_pr30_dataset/data.rqz")
	pinned := map[string]string{
		"pre_pr26_radius_255.rqz":     "8e396893a919c686cfdee3628f1c6f3e4c87e50e37443c74cef8f66942bff971",
		"pre_pr26_radius_1048577.rqz": "b778a824f429e225edf3a152b5a672a4b7723c3fbca57519255a3da8266bd33d",
	}
	defer func() { exit = os.Exit }()
	exit = func(c int) { panic(fmt.Sprintf("exit status %d", c)) }
	run := func(t *testing.T, cmd func([]string), args ...string) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("rqc %v: %v", args, r)
			}
		}()
		cmd(args)
	}
	for _, in := range ins {
		t.Run(filepath.Base(in), func(t *testing.T) {
			blob, err := os.ReadFile(in)
			if err != nil {
				t.Fatal(err)
			}
			f, err := rqm.Decompress(blob)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := f.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			out := filepath.Join(t.TempDir(), "out.rqmf")
			run(t, cmdInspect, "-in", in, "-full")
			run(t, cmdDecompress, "-in", in, "-out", out)
			got, err := os.ReadFile(out)
			if err != nil || !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("decompress wrote %d bytes (%v), not the %d rqm.Decompress's field writes", len(got), err, want.Len())
			}
			name := filepath.Base(in)
			if sum, ok := pinned[name]; ok && fmt.Sprintf("%x", sha256.Sum256(got)) != sum {
				t.Errorf("decompress wrote a .rqmf hashing to %x, want %s", sha256.Sum256(got), sum)
			}
			delete(pinned, name)
		})
	}
	if len(pinned) != 0 {
		t.Errorf("no archived container ran for %v", pinned)
	}
}

// TestDecompressRefusesTrailingBytes checks rqc decompress refuses an
// envelope followed by a stray byte, as rqm.Decompress does, and leaves no
// field file behind.
func TestDecompressRefusesTrailingBytes(t *testing.T) {
	blob, err := os.ReadFile("../../testdata/pre_pr7_envelope.rqz")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in, out := filepath.Join(dir, "trailing.rqz"), filepath.Join(dir, "out.rqmf")
	if err := os.WriteFile(in, append(blob, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	defer func() { exit = os.Exit }()
	exit = func(c int) { panic(fmt.Sprintf("exit status %d", c)) }
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("rqc decompress accepted an envelope with a trailing byte")
			}
		}()
		cmdDecompress([]string{"-in", in, "-out", out})
	}()
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("refused decompress left %s behind (%v)", out, err)
	}
}

// writeField writes f to path as a .rqmf file.
func writeField(t *testing.T, path string, f *rqm.Field) {
	t.Helper()
	fh, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(fh); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompressVerify drives compress -verify down each output path — local
// whole-buffer, local streamed, adaptive and -remote — and checks the one
// verification both passes the output and refuses it against an input one
// value of which moved far outside the bound.
func TestCompressVerify(t *testing.T) {
	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(ts.Close)

	dir := t.TempDir()
	g, err := rqm.GenerateField("nyx/temperature", 11, rqm.ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	f, err := rqm.FieldFromData("verify", rqm.Float64, g.Data, g.Dims...)
	if err != nil {
		t.Fatal(err)
	}
	in, moved := filepath.Join(dir, "in.rqmf"), filepath.Join(dir, "moved.rqmf")
	writeField(t, in, f)
	lo, hi := f.Data[0], f.Data[0]
	for _, v := range f.Data {
		lo, hi = min(lo, v), max(hi, v)
	}
	mf, err := rqm.FieldFromData("verify", rqm.Float64, append([]float64(nil), f.Data...), f.Dims...)
	if err != nil {
		t.Fatal(err)
	}
	mf.Data[len(mf.Data)/2] += (hi - lo) / 10
	writeField(t, moved, mf)

	defer func() { exit = os.Exit }()
	exit = func(c int) { panic(fmt.Sprintf("exit status %d", c)) }
	exited := func(run func()) (r any) {
		defer func() { r = recover() }()
		run()
		return nil
	}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"whole-buffer", nil},
		{"streamed", []string{"-stream", "-chunk", "4096"}},
		{"adaptive", []string{"-target-psnr", "60", "-chunk", "4096"}},
		{"remote", []string{"-remote", ts.URL}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.rqz")
			args := append([]string{"-in", in, "-out", out, "-mode", "rel", "-eb", "1e-3", "-verify"}, tc.args...)
			if r := exited(func() { cmdCompress(args) }); r != nil {
				t.Fatalf("compress %v: %v", args, r)
			}
			if r := exited(func() { verifyOutput(moved, out, rqm.REL, 1e-3) }); r == nil {
				t.Fatal("-verify passed an output against an input it does not bound")
			}
		})
	}
}
