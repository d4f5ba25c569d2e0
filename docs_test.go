package dirsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked identifiers must name code
// that exists.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestDocsStayTrue keeps the design document and its readers honest, the
// documentation twin of the options and calls rules. It fails on either
// of two things:
//
//   - a backticked identifier `pkg.Name`, `pkg.Type.Member` or
//     `pkg.(*Type).Member` in DESIGN.md, README.md or EXPERIMENTS.md,
//     pkg being a package under internal/ and Name exported, that no
//     non-test file declares (a member is a method, a struct field or an
//     interface method), unless DESIGN.md's "Retired" list names it;
//   - a citation of a DESIGN.md heading (the file name, a comma and the
//     heading in double quotes) in a Go file, the Makefile, a file under
//     .github/, README.md, EXPERIMENTS.md or ROADMAP.md whose heading
//     DESIGN.md does not have. Headings compare without case and
//     with runs of white space (and comment markers at a line break)
//     taken as one space.
func TestDocsStayTrue(t *testing.T) {
	decls := internalDecls(t)

	design := readDoc(t, "DESIGN.md")
	retired := make(map[string]bool)
	for _, name := range docIdents(section(design, "Retired"), decls) {
		retired[name] = true
	}
	if len(retired) == 0 {
		t.Error(`DESIGN.md has no "Retired" section naming a retired identifier`)
	}
	for _, doc := range docFiles {
		var stale []string
		for _, name := range docIdents(readDoc(t, doc), decls) {
			if !decls.declares(name) && !retired[name] {
				stale = append(stale, name)
			}
		}
		slices.Sort(stale)
		for _, name := range slices.Compact(stale) {
			t.Errorf("%s names `%s`, which no non-test file declares; correct it, or list it under DESIGN.md's \"Retired\"", doc, name)
		}
	}

	headings := make(map[string]bool)
	for _, line := range strings.Split(design, "\n") {
		if h := strings.TrimLeft(line, "#"); h != line && strings.HasPrefix(h, " ") {
			headings[normHeading(h)] = true
		}
	}
	cited := 0
	for _, file := range citingFiles(t) {
		for _, m := range citation.FindAllStringSubmatch(readDoc(t, file), -1) {
			cited++
			if h := normHeading(m[1]); !headings[h] {
				t.Errorf("%s cites the heading %q, which DESIGN.md does not have", file, h)
			}
		}
	}
	t.Logf("%d retired identifiers, %d headings, %d citations", len(retired), len(headings), cited)
}

// citation matches the file name, a comma and a quoted heading, across a
// line break and the comment marker that may follow it.
var citation = regexp.MustCompile(`DESIGN\.md,\s*(?:(?://|#)\s*)?"([^"]{1,200})"`)

// lineBreak is a line break with the indentation and comment marker of the
// next line.
var lineBreak = regexp.MustCompile(`\s*\n\s*(?:(?://|#)\s*)?`)

// normHeading folds case and white space, and a comment marker at a line
// break, so a heading matches however a citation wraps it.
func normHeading(h string) string {
	return strings.ToLower(strings.Join(strings.Fields(lineBreak.ReplaceAllString(h, " ")), " "))
}

// docIdent matches pkg.Name, pkg.Name.Member and pkg.(*Type).Member, pkg
// being the first group and not itself part of a longer name or path.
var docIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(?:\(\*([A-Za-z_]\w*)\)|([A-Z]\w*))(?:\.([A-Za-z_]\w*))?`)

// backticked matches a backticked span on one line.
var backticked = regexp.MustCompile("`[^`\n]+`")

// docIdents returns the identifiers of internal packages that the
// backticked spans of text name, as "pkg.Name" or "pkg.Type.Member".
func docIdents(text string, decls declSet) []string {
	var names []string
	for _, span := range backticked.FindAllString(text, -1) {
		for _, m := range docIdent.FindAllStringSubmatch(span, -1) {
			pkg, typ, name, member := m[1], m[2], m[3], m[4]
			if decls[pkg] == nil {
				continue
			}
			if typ != "" {
				name = typ
				if member == "" {
					continue
				}
			}
			if member != "" {
				name += "." + member
			}
			names = append(names, pkg+"."+name)
		}
	}
	return names
}

// section returns the lines under the "## <title>" heading of text, up
// to the next heading of that level.
func section(text, title string) string {
	_, rest, ok := strings.Cut(text, "\n## "+title+"\n")
	if !ok {
		return ""
	}
	body, _, _ := strings.Cut(rest, "\n## ")
	return body
}

// declSet maps a package name under internal/ to the names its non-test
// files declare: top-level names, and "Type.Member" for each method,
// struct field and interface method.
type declSet map[string]map[string]bool

func (d declSet) declares(name string) bool {
	pkg, rest, _ := strings.Cut(name, ".")
	return d[pkg][rest]
}

// internalDecls parses every non-test file under internal/.
func internalDecls(t *testing.T) declSet {
	decls := make(declSet)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
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
		names := decls[f.Name.Name]
		if names == nil {
			names = make(map[string]bool)
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				} else {
					names[recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, fd := range members {
							for _, id := range fd.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
							if len(fd.Names) == 0 { // embedded: its name is its type's
								names[spec.Name.Name+"."+recvName(fd.Type)] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvName is the base type name of a receiver or embedded field type:
// T, *T, T[P] or pkg.T.
func recvName(typ ast.Expr) string {
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// citingFiles lists the files whose citations of DESIGN.md's headings
// must resolve: every Go file, the Makefile, every file under .github/,
// README.md, EXPERIMENTS.md and ROADMAP.md.
func citingFiles(t *testing.T) []string {
	files := []string{"Makefile", "README.md", "EXPERIMENTS.md", "ROADMAP.md"}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") && p != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || strings.HasPrefix(filepath.ToSlash(p), ".github/") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readDoc(t *testing.T, name string) string {
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
