package dirsim_test

import (
	"go/ast"
	"path"
	"sort"
	"strconv"
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
	"service.ticketHeap.Less":         stdlibInterface, // container/heap
	"service.ticketHeap.Swap":         stdlibInterface,
}

// TestNothingOnlyATestCalls keeps the calls rule, the options rule's
// twin for code: an exported function or method declared under internal/
// stays only if a program names it — a file that is neither a test nor
// under bench/ or examples/. A function is named by its package-qualified
// selector from another package or by its bare identifier inside its
// own; a method, whose receiver's type the parser cannot tell, by any
// selector of its name that is not package-qualified, so a method that
// shares its name with one a program calls escapes the rule. Everything
// else must be on callsAllowlist with its reason.
func TestNothingOnlyATestCalls(t *testing.T) {
	files := programFiles(t)

	// declared holds "pkg.Func" and "pkg.Recv.Method" for every exported
	// function and method under internal/; funcs indexes the functions by
	// "dir.Name", methods the methods by name.
	declared := make(map[string]bool)
	funcs := make(map[string]string)
	methods := make(map[string][]string)
	for _, fl := range files {
		if !strings.HasPrefix(fl.dir, "internal/") {
			continue
		}
		for _, decl := range fl.f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil {
				key := fl.f.Name.Name + "." + name
				funcs[fl.dir+"."+name] = key
				declared[key] = true
			} else {
				key := fl.f.Name.Name + "." + recvName(fd.Recv.List[0].Type) + "." + name
				methods[name] = append(methods[name], key)
				declared[key] = true
			}
		}
	}

	// reached holds every declared key a program names. A declaration's
	// own name is not a use of it, so only bodies and package-level
	// declarations are walked.
	reached := make(map[string]bool)
	for _, fl := range files {
		imports := make(map[string]string) // local name -> package directory
		for _, im := range fl.f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			if dir, ok := strings.CutPrefix(p, "dirsim/"); ok {
				name := path.Base(dir)
				if im.Name != nil {
					name = im.Name.Name
				}
				imports[name] = dir
			}
		}
		uses := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					reached[funcs[imports[x.Name]+"."+n.Sel.Name]] = true
					return false
				}
				for _, key := range methods[n.Sel.Name] {
					reached[key] = true
				}
			case *ast.Ident:
				reached[funcs[fl.dir+"."+n.Name]] = true
			}
			return true
		}
		for _, decl := range fl.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					ast.Inspect(d.Body, uses)
				}
			case *ast.GenDecl:
				ast.Inspect(d, uses)
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
	for key, reason := range callsAllowlist {
		if !declared[key] {
			t.Errorf("allowlist names %s, which is not an exported function or method any more", key)
		}
		switch reason {
		case heldByBench, testOracle, sharedHelper, stdlibInterface:
		default:
			t.Errorf("allowlist keeps %s for %q, which is none of the four reasons", key, reason)
		}
	}
	t.Logf("%d exported functions and methods under internal/", len(declared))
}

// recvName names a method receiver's base type: T for T, *T, T[K] and
// *T[K].
func recvName(typ ast.Expr) string {
	for {
		switch t := typ.(type) {
		case *ast.StarExpr:
			typ = t.X
		case *ast.IndexExpr:
			typ = t.X
		case *ast.IndexListExpr:
			typ = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
