package dirsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// settableStructs are the configuration structs the rule below covers,
// keyed by package directory.
var settableStructs = map[string][]string{
	"internal/engine":      {"Options"},
	"internal/sim":         {"Options"},
	"internal/dist":        {"Options", "Client", "ShipperOptions", "Worker"},
	"internal/service":     {"Config"},
	"internal/store":       {"Options"},
	"internal/obs/httpmon": {"Options"},
}

// optionsAllowlist names the fields no production code sets that stay
// anyway, each with its reason. Only two reasons are allowed: the field
// substitutes a fake clock or sleep for tests, or the frozen benchmark
// under bench/ still sets it (the test checks that it does), until the
// benchmark is unfrozen.
var optionsAllowlist = map[string]string{
	"dist.Options.Clock":      "fake clock seam",
	"dist.Client.Sleep":       "fake sleep seam",
	"dist.Worker.Sleep":       "fake sleep seam",
	"dist.Worker.Exec":        heldByBench,
	"engine.Options.Observer": heldByBench,
	"sim.Options.Shards":      heldByBench,
}

// TestOptionsHaveProductionSetters keeps the options rule: a field of a
// configuration struct stays only if a program sets it — a keyed
// composite literal of the struct, or an assignment to the field from
// outside the struct's package (the package's own defaulting does not
// count) — in a file that is neither a test nor under bench/ or
// examples/. Everything else must be on optionsAllowlist with its reason,
// and a field held for the frozen benchmark must be one a non-test file
// under bench/ sets.
func TestOptionsHaveProductionSetters(t *testing.T) {
	files, fset := programFiles(t)

	// fields maps "pkg.Struct" to its exported field names.
	fields := make(map[string][]string)
	for _, fl := range files {
		for _, name := range settableStructs[fl.dir] {
			ast.Inspect(fl.f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				q := fl.f.Name.Name + "." + name
				for _, fd := range st.Fields.List {
					for _, id := range fd.Names {
						if id.IsExported() {
							fields[q] = append(fields[q], id.Name)
						}
					}
				}
				return false
			})
		}
	}
	for dir, names := range settableStructs {
		for _, name := range names {
			if fields[path.Base(dir)+"."+name] == nil {
				t.Errorf("%s: struct %s not found", dir, name)
			}
		}
	}

	byProgram := fieldSetters(files)
	var missing []string
	total := 0
	for q, names := range fields {
		for _, f := range names {
			total++
			key := q + "." + f
			switch {
			case byProgram.sets(key) && optionsAllowlist[key] != "":
				t.Errorf("%s is set by a program; drop it from the allowlist", key)
			case !byProgram.sets(key) && optionsAllowlist[key] == "":
				missing = append(missing, key)
			}
		}
	}
	sort.Strings(missing)
	for _, key := range missing {
		t.Errorf("%s: no program sets it; make it a constant, or allowlist it with a reason", key)
	}
	var bench []programFile
	for _, f := range benchFiles(t, fset) {
		bench = append(bench, programFile{"bench", f})
	}
	byBench := fieldSetters(bench)
	for key, reason := range optionsAllowlist {
		q := key[:strings.LastIndexByte(key, '.')]
		found := false
		for _, f := range fields[q] {
			found = found || q+"."+f == key
		}
		if !found {
			t.Errorf("allowlist names %s, which is not a field any more", key)
		}
		if reason == heldByBench && !byBench.sets(key) {
			t.Errorf("allowlist keeps %s as %q, but no file under bench/ sets it", key, reason)
		}
	}
	t.Logf("%d settable fields across %d structs", total, len(fields))
}

// setters records what a set of files sets: lit holds "pkg.Struct.Field"
// for every key of a keyed literal, and assigned maps a field name to the
// packages that assign a field of that name, whose receiver's type the
// parser cannot tell.
type setters struct {
	lit      map[string]bool
	assigned map[string]map[string]bool
}

// fieldSetters collects the keyed literals and field assignments of files.
func fieldSetters(files []programFile) setters {
	s := setters{make(map[string]bool), make(map[string]map[string]bool)}
	for _, fl := range files {
		pkg := fl.f.Name.Name
		ast.Inspect(fl.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				q := literalType(pkg, n.Type)
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && q != "" {
							s.lit[q+"."+id.Name] = true
						}
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok {
						if s.assigned[sel.Sel.Name] == nil {
							s.assigned[sel.Sel.Name] = make(map[string]bool)
						}
						s.assigned[sel.Sel.Name][pkg] = true
					}
				}
			}
			return true
		})
	}
	return s
}

// sets reports whether the files set the field "pkg.Struct.Field": in a
// keyed literal, or by an assignment from outside the struct's package
// (the package's own defaulting does not count).
func (s setters) sets(key string) bool {
	pkg, rest, _ := strings.Cut(key, ".")
	field := rest[strings.LastIndexByte(rest, '.')+1:]
	if s.lit[key] {
		return true
	}
	for p := range s.assigned[field] {
		if p != pkg {
			return true
		}
	}
	return false
}

// programFile is a parsed Go file of a program: neither a test nor under
// bench/ or examples/. dir is its package directory, slash-separated.
type programFile struct {
	dir string
	f   *ast.File
}

// programFiles parses every program file in the module, into one file
// set.
func programFiles(t *testing.T) ([]programFile, *token.FileSet) {
	fset := token.NewFileSet()
	var files []programFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case p == "bench", p == "examples", d.Name() == "testdata",
				p != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, programFile{filepath.ToSlash(filepath.Dir(p)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, fset
}

// benchFiles parses the benchmark's non-test files into fset.
func benchFiles(t *testing.T, fset *token.FileSet) []*ast.File {
	paths, err := filepath.Glob(filepath.Join("bench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, p := range paths {
		if strings.HasSuffix(p, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatal("no Go files under bench/")
	}
	return files
}

// literalType names a composite literal's struct type as "pkg.Name",
// resolving an unqualified name to the file's own package, or "" for
// anything else (slices, maps, anonymous structs).
func literalType(pkg string, typ ast.Expr) string {
	switch t := typ.(type) {
	case *ast.Ident:
		return pkg + "." + t.Name
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			return x.Name + "." + t.Sel.Name
		}
	}
	return ""
}
