package rqm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// libraryAllowlist names the exported functions and methods in internal/
// that no non-test code outside bench/ uses, each with the reason it stays:
//
//   - bench: the benchmark under bench/ calls it. It goes once the
//     benchmark measures the library's own path instead.
//   - test-infra: it exists for tests: fault injection, a quick
//     configuration, or a seam a test observes.
//   - reference: tests hold a faster library path to its results.
//
// The list is exact: TestLibraryCallers fails on a flagged name missing from
// it and on a listed name that is no longer flagged, so it can only shrink.
var libraryAllowlist = map[string]string{
	"ans.Build":                     "bench",
	"codec.DecodeChunk":             "bench",
	"codec.ReadChunkAt":             "bench",
	"huffman.Build":                 "bench",
	"huffman.Codebook.Decode":       "bench",
	"huffman.Codebook.Encode":       "bench",
	"lz77.Decode":                   "bench",
	"residual.Apply":                "bench",
	"residual.Compute":              "bench",
	"residual.Encode":               "bench",
	"residual.ReadBlock":            "bench",
	"rle.Decode":                    "bench",
	"service.Service.FlushProfiles": "bench",
	"stats.Quantile":                "bench",
	"store.Store.ContainerPath":     "bench",
	"store.Store.Put":               "bench",
	"store.Store.PutWithResidual":   "bench",
	"store.Store.SetReadFS":         "bench",
	"store.Store.VerifyDataset":     "bench",
	"tuner.TAESelectErrorBound":     "bench",
	"bitio.Reader.BitsRead":         "test-infra",
	"experiments.Quick":             "test-infra",
	"faultfs.CorruptFile":           "test-infra",
	"faultfs.FS.Clear":              "test-infra",
	"faultfs.FS.Release":            "test-infra",
	"faultfs.FS.Reset":              "test-infra",
	"faultfs.FS.Set":                "test-infra",
	"faultfs.FS.Stats":              "test-infra",
	"faultfs.ForgeChunk":            "test-infra",
	"faultfs.New":                   "test-infra",
	"faultfs.NewFault":              "test-infra",
	"faultfs.WaitFor":               "test-infra",
	"store.Store.Dir":               "test-infra",
	"quantizer.Quantizer.Quantize":  "reference",
	"quantizer.Quantizer.Radius":    "reference",
}

// TestLibraryCallers holds the rule that library code serves the library
// (DESIGN.md §1): every exported function and method declared in a non-test
// file under internal/ is used by non-test code outside bench/. A use inside
// the declaring package counts; a function's uses of itself do not. A method
// counts as used when its type satisfies an interface that has the method,
// or when the root package re-exports its type through an alias.
func TestLibraryCallers(t *testing.T) {
	unused := uncalledLibraryNames(t)
	for name, byBench := range unused {
		reason, ok := libraryAllowlist[name]
		switch {
		case !ok:
			t.Errorf("%s: exported from internal/ but used only by tests or bench/; use it in the library, delete it, or move it into a _test.go file", name)
		case byBench && reason != "bench":
			t.Errorf("%s: bench/ calls it, so its reason on libraryAllowlist is bench, not %q", name, reason)
		case !byBench && reason == "bench":
			t.Errorf("%s: bench/ no longer calls it; delete it, or give it another reason on libraryAllowlist", name)
		}
	}
	for name, reason := range libraryAllowlist {
		if reason != "bench" && reason != "test-infra" && reason != "reference" {
			t.Errorf("libraryAllowlist[%q] = %q: the reason must be bench, test-infra or reference", name, reason)
		}
		if _, ok := unused[name]; !ok {
			t.Errorf("%s is on libraryAllowlist but is gone or used by the library now: take it off the list", name)
		}
	}
}

// checkedPackage is one module package, type-checked from its non-test files.
type checkedPackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// loadModule type-checks the module's non-test files and, for their
// declarations only, the standard library packages they import. It returns
// the module's packages and every package loaded.
func loadModule(t *testing.T) (mod []*checkedPackage, all []*types.Package) {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	fset := token.NewFileSet()
	typed := map[string]*types.Package{"unsafe": types.Unsafe}
	// -deps lists every package after the packages it imports.
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var lp struct {
			ImportPath string
			Dir        string
			GoFiles    []string
			ImportMap  map[string]string
			Standard   bool
		}
		if err := dec.Decode(&lp); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if lp.ImportPath == "unsafe" {
			continue
		}
		var files []*ast.File
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			files = append(files, f)
		}
		conf := types.Config{
			Importer: importerFunc(func(path string) (*types.Package, error) {
				if mapped, ok := lp.ImportMap[path]; ok {
					path = mapped
				}
				if p := typed[path]; p != nil {
					return p, nil
				}
				return nil, fmt.Errorf("%s is not loaded before %s", path, lp.ImportPath)
			}),
			IgnoreFuncBodies: lp.Standard,
		}
		var info *types.Info
		if lp.Standard {
			// Only the standard library's declarations are read, and a
			// quirk of its source there must not fail the module's check.
			conf.Error = func(error) {}
		} else {
			info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		}
		pkg, err := conf.Check(lp.ImportPath, fset, files, info)
		if err != nil && !lp.Standard {
			t.Fatalf("type-check %s: %v", lp.ImportPath, err)
		}
		typed[lp.ImportPath] = pkg
		all = append(all, pkg)
		if !lp.Standard {
			mod = append(mod, &checkedPackage{path: lp.ImportPath, files: files, pkg: pkg, info: info})
		}
	}
	return mod, all
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// uncalledLibraryNames returns the exported functions and methods declared
// in internal/ that TestLibraryCallers flags, as "pkg.Func" or
// "pkg.Type.Method" with pkg the directory under internal/, each mapped to
// whether bench/ calls it.
func uncalledLibraryNames(t *testing.T) map[string]bool {
	mod, all := loadModule(t)
	const module, internal = "rqm", "rqm/internal/"

	// The declarations, each with its extent, so that a function's uses of
	// itself are not counted.
	type decl struct {
		name     string
		pos, end token.Pos
	}
	declared := make(map[*types.Func]decl)
	for _, p := range mod {
		if !strings.HasPrefix(p.path, internal) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				name := strings.TrimPrefix(p.path, internal) + "."
				if recv := fn.Signature().Recv(); recv != nil {
					name += receiverNamed(recv.Type()).Obj().Name() + "."
				}
				declared[fn] = decl{name + fn.Name(), fd.Pos(), fd.End()}
			}
		}
	}

	used, benchUsed := make(map[*types.Func]bool), make(map[*types.Func]bool)
	for _, p := range mod {
		uses := used
		if p.path == module+"/bench" || strings.HasPrefix(p.path, module+"/bench/") {
			uses = benchUsed
		}
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := declared[fn]; ok && d.pos <= id.Pos() && id.Pos() < d.end {
				continue
			}
			uses[fn] = true
		}
		if p.path != module {
			continue
		}
		// A type the root package re-exports is public API, methods and all.
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				for i := range n.NumMethods() {
					used[n.Method(i).Origin()] = true
				}
			}
		}
	}

	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, pkg := range all {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	// satisfiesInterface reports whether fn is a method through which its
	// type, or a pointer to it, implements some interface.
	satisfiesInterface := func(fn *types.Func) bool {
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		n := receiverNamed(recv.Type())
		if n.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := range it.NumMethods() {
				if it.Method(i).Name() == fn.Name() && (types.Implements(n, it) || types.Implements(types.NewPointer(n), it)) {
					return true
				}
			}
		}
		return false
	}

	unused := make(map[string]bool)
	for fn, d := range declared {
		if !used[fn] && !satisfiesInterface(fn) {
			unused[d.name] = benchUsed[fn]
		}
	}
	return unused
}

// receiverNamed is the named type of a method's receiver, T or *T.
func receiverNamed(recv types.Type) *types.Named {
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return recv.(*types.Named)
}
