package dirsim_test

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path"
	"sort"
	"strings"
	"testing"
)

// The four reasons an exported function or method no program calls may
// stay for.
const (
	heldByBench     = "held by the frozen bench/"
	testOracle      = "an oracle tests check production against"
	sharedHelper    = "a test helper several packages use"
	stdlibInterface = "a method of a standard-library interface"
)

// callsAllowlist names the exported functions and methods under
// internal/ that no program calls but that stay anyway, each with one of
// the four reasons.
var callsAllowlist = map[string]string{
	"store.Store.LoadTrace":           heldByBench,
	"store.Store.StoreTrace":          heldByBench,
	"trace.Batched":                   heldByBench,
	"workload.StreamBatches":          heldByBench,
	"core.NewDir1NBSpec":              testOracle,
	"dist.FaultTransport.Fired":       testOracle,
	"faults.Goroutines":               sharedHelper,
	"faults.GoroutineSnapshot.Leaked": sharedHelper,
	"obs.RepeatedKey":                 sharedHelper,
	"engine.Engine.Stats":             heldByBench,
	"service.Service.Engine":          heldByBench,
	"service.Service.Metrics":         heldByBench,
	"trace.Block.Addr":                sharedHelper,
	"engine.JobError.Unwrap":          stdlibInterface, // errors.Is and errors.As
	"engine.timeoutError.Unwrap":      stdlibInterface,
	"sim.ShardError.Unwrap":           stdlibInterface,
	"store.corruptError.Unwrap":       stdlibInterface,
}

// modulePath is the import path of the repository's root package.
const modulePath = "dirsim"

// TestNothingOnlyATestCalls keeps the calls rule, the options rule's
// twin for code: an exported function or method declared under internal/
// stays only if a program names it — a file that is neither a test nor
// under bench/ or examples/. Names are resolved by go/types, so a method
// is keyed on its receiver's type: a program reaches it by naming it (a
// call or a method value), by calling the method of an interface its
// receiver type implements, or by importing a standard-library package
// that declares an interface with that method which the type implements
// (fmt.Stringer, io.Reader, heap.Interface: the library calls it). An
// interface the library asserts without naming it (errors.Unwrap's)
// does not count. Everything else must be on callsAllowlist with its
// reason, and one held for the frozen benchmark must be one a non-test
// file under bench/ names.
func TestNothingOnlyATestCalls(t *testing.T) {
	files, fset := programFiles(t)
	m := checkPrograms(t, files, fset)
	pkgs := m.pkgs

	// declared holds "pkg.Func" and "pkg.Recv.Method" for every exported
	// function and method under internal/, with its receiver's type.
	declared := make(map[string]types.Type)
	for importPath, p := range pkgs {
		if !strings.HasPrefix(importPath, modulePath+"/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					declared[funcKey(obj)] = nil
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				var recv types.Type = named
				if named.TypeParams().Len() > 0 {
					recv = nil // no interface the module declares is met by a generic type
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declared[funcKey(m)] = recv
					}
				}
			}
		}
	}

	// reached holds every declared key a program names; viaIface, the
	// interfaces whose methods a program or the standard library calls,
	// by method name.
	reached := make(map[string]bool)
	viaIface := make(map[string][]*types.Interface)
	addIface := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			viaIface[name] = append(viaIface[name], iface)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	std := make(map[*types.Package]bool)
	for _, p := range pkgs {
		for _, imp := range p.pkg.Imports() {
			if pkgs[imp.Path()] != nil || std[imp] {
				continue
			}
			std[imp] = true
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
						addIface(iface)
					}
				}
			}
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					viaIface[fn.Name()] = append(viaIface[fn.Name()], iface)
					continue
				}
			}
			reached[funcKey(fn)] = true
		}
	}
	for key, recv := range declared {
		if reached[key] || recv == nil {
			continue
		}
		for _, iface := range viaIface[key[strings.LastIndexByte(key, '.')+1:]] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				reached[key] = true
				break
			}
		}
	}

	var missing []string
	for key := range declared {
		switch {
		case reached[key] && callsAllowlist[key] != "":
			t.Errorf("%s is called by a program; drop it from the allowlist", key)
		case !reached[key] && callsAllowlist[key] == "":
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s: no program calls it; delete it, or allowlist it with a reason", key)
	}
	byBench := benchNames(t, m)
	for key, reason := range callsAllowlist {
		if _, ok := declared[key]; !ok {
			t.Errorf("allowlist names %s, which is not an exported function or method any more", key)
		}
		switch reason {
		case heldByBench:
			if !byBench[key] {
				t.Errorf("allowlist keeps %s as %q, but no file under bench/ names it", key, reason)
			}
		case testOracle, sharedHelper, stdlibInterface:
		default:
			t.Errorf("allowlist keeps %s for %q, which is none of the four reasons", key, reason)
		}
	}
	t.Logf("%d exported functions and methods under internal/", len(declared))
}

// benchNames type-checks the benchmark's non-test files against the
// programs m checked and returns the key of every function and method
// they name, a method keyed on its receiver's type.
func benchNames(t *testing.T, m *moduleImporter) map[string]bool {
	info := &types.Info{Uses: make(map[*ast.Ident]types.Object)}
	conf := types.Config{Importer: m}
	if _, err := conf.Check(path.Join(modulePath, "bench"), m.fset, benchFiles(t, m.fset), info); err != nil {
		t.Fatalf("type-check bench: %v", err)
	}
	names := make(map[string]bool)
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
			names[funcKey(fn.Origin())] = true
		}
	}
	return names
}

// funcKey names a function "pkg.Func" and a method "pkg.Recv.Method",
// Recv being the receiver's base type.
func funcKey(fn *types.Func) string {
	key := fn.Pkg().Name() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		typ := recv.Type()
		if ptr, ok := typ.(*types.Pointer); ok {
			typ = ptr.Elem()
		}
		if named, ok := typ.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// checkedPackage is one program package, type-checked from source.
type checkedPackage struct {
	pkg  *types.Package
	info *types.Info
}

// checkPrograms type-checks every package of the program files by import
// path. A package the module imports is checked once, from source, on
// first import, so every type has one identity across the module; the
// standard library comes from the compiler's export data, which one
// `go list -export` run locates for every package at once (checking the
// standard library from source takes several seconds). The importer it
// returns holds them in pkgs.
func checkPrograms(t *testing.T, files []programFile, fset *token.FileSet) *moduleImporter {
	out, err := exec.Command("go", "list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if p, file, ok := strings.Cut(line, "="); ok && file != "" {
			exports[p] = file
		}
	}
	m := &moduleImporter{
		fset:  fset,
		files: make(map[string][]*ast.File),
		pkgs:  make(map[string]*checkedPackage),
		std: importer.ForCompiler(fset, "gc", func(p string) (io.ReadCloser, error) {
			if exports[p] == "" {
				return nil, fmt.Errorf("no export data for %s", p)
			}
			return os.Open(exports[p])
		}),
	}
	for _, fl := range files {
		p := modulePath
		if fl.dir != "." {
			p = path.Join(modulePath, fl.dir)
		}
		m.files[p] = append(m.files[p], fl.f)
	}
	for p := range m.files {
		if _, err := m.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// moduleImporter checks the module's packages from source, each once,
// and imports every other package through std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File
	pkgs  map[string]*checkedPackage
	std   types.Importer
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if c := m.pkgs[p]; c != nil {
		return c.pkg, nil
	}
	files, ok := m.files[p]
	if !ok {
		return m.std.Import(p)
	}
	c := &checkedPackage{info: &types.Info{Uses: make(map[*ast.Ident]types.Object)}}
	conf := types.Config{Importer: m}
	var err error
	if c.pkg, err = conf.Check(p, m.fset, files, c.info); err != nil {
		return nil, fmt.Errorf("type-check %s: %w", p, err)
	}
	m.pkgs[p] = c
	return c.pkg, nil
}
