package pragma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "github.com/pragma-grid/pragma"

// TestFacadeNamesHaveCallers holds pragma.go to the names something uses.
// An exported top-level name has a caller when an examples/ or cmd/ file
// names it, when a root test other than this one names it, or when a kept
// declaration of pragma.go mentions it (the signature or body of a name
// that stays, or a method of a type that stays). A name with no caller is
// dead surface: delete it, or list it in kept with the reason.
func TestFacadeNamesHaveCallers(t *testing.T) {
	// kept maps a facade name deliberately kept without a caller to why.
	kept := map[string]string{}

	m := parseModule(t)
	caller := func(f modFile) bool {
		return strings.HasPrefix(f.dir, "examples/") || strings.HasPrefix(f.dir, "cmd/") ||
			(f.dir == "." && f.test && f.path != "facade_test.go")
	}
	live := m.live(caller, func(modFile, string) bool { return true }, kept)
	checkCallers(t, m, "pragma.go", kept, live,
		"facade names have no caller in examples/, cmd/, the root tests or a kept declaration")
}

// TestInternalNamesHaveCallers holds internal/ to the code a program runs.
// An exported top-level func, type, var or const of an internal package
// has a caller when a live declaration names it, or when a test in another
// directory does. Every declaration of a non-test file outside internal/ is
// live; an internal one is live when a live declaration names it (a method
// belongs to its receiver type) or it is an init func. A name that only
// its own package's tests reach is dead: delete it with those tests,
// unexport it if it is a test seam, or list it in kept with the reason.
// Names match by package and name, so a collision can keep a dead name
// alive but never flags a live one; methods are not checked.
func TestInternalNamesHaveCallers(t *testing.T) {
	// kept maps an internal name (package.Name) deliberately kept without a
	// caller to why.
	kept := map[string]string{
		"perf.TrainMultiNeural": "ROADMAP item 8's per-layer PFs take six inputs",
	}

	m := parseModule(t)
	keptKeys := map[string]string{}
	for name, reason := range kept {
		keptKeys["internal/"+name] = reason
	}
	checkCallers(t, m, "internal/", keptKeys, m.internalLive(keptKeys),
		"internal names have no caller outside their own package's tests")
}

// internalLive is the liveness rule of TestInternalNamesHaveCallers:
// every test file and every file outside internal/ calls what it names,
// except that a test names its own package's declarations without
// calling them.
func (m *module) internalLive(kept map[string]string) map[string]bool {
	caller := func(f modFile) bool { return f.test || !strings.HasPrefix(f.dir, "internal/") }
	counts := func(from modFile, key string) bool { return !from.test || !strings.HasPrefix(key, from.dir+".") }
	return m.live(caller, counts, kept)
}

// TestInternalGuardRule runs the liveness rule of
// TestInternalNamesHaveCallers on a small synthetic module, one case per
// clause of the rule, so a change to the walk that stops it flagging a
// dead name fails here rather than passing silently.
func TestInternalGuardRule(t *testing.T) {
	m := parseSources(t, map[string]string{
		"cmd/tool/main.go": `package main
import "github.com/pragma-grid/pragma/internal/a"
func main() { a.Used(); var _ a.Shape }`,
		"internal/a/a.go": `package a
func Used() { helper() }
func helper() { Indirect() }
func Indirect() {}
func OwnTestsOnly() {}
func Oracle() bool { return true }
func Orphan() {}
type Shape struct{}
func (Shape) Method() { ViaMethod() }
func ViaMethod() {}
var Registered = 0
func init() { Registered = Hooked() }
func Hooked() int { return 1 }`,
		"internal/a/a_test.go": `package a
import "testing"
func TestOwn(t *testing.T) { OwnTestsOnly() }`,
		"internal/b/b_test.go": `package b
import (
	"testing"
	"github.com/pragma-grid/pragma/internal/a"
)
func TestOracle(t *testing.T) { _ = a.Oracle() }`,
	})
	live := m.internalLive(nil)
	for _, tc := range []struct {
		name string
		key  string
		live bool
	}{
		{"program caller", "internal/a.Used", true},
		{"reached through a live declaration", "internal/a.Indirect", true},
		{"method of a live type", "internal/a.ViaMethod", true},
		{"init func", "internal/a.Hooked", true},
		{"test in another directory", "internal/a.Oracle", true},
		{"own package's test only", "internal/a.OwnTestsOnly", false},
		{"no caller", "internal/a.Orphan", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if live[tc.key] != tc.live {
				t.Fatalf("%s: live = %v, want %v", tc.key, live[tc.key], tc.live)
			}
		})
	}
	want := []string{"a.Orphan", "a.OwnTestsOnly"}
	if got := m.dead("internal/", live); !reflect.DeepEqual(got, want) {
		t.Fatalf("dead names %v, want %v", got, want)
	}
}

// checkCallers fails on every exported top-level name declared in a
// non-test file under prefix that is not live, and on every kept entry
// that has no reason or names no declaration there.
func checkCallers(t *testing.T, m *module, prefix string, kept map[string]string, live map[string]bool, what string) {
	t.Helper()
	for key, reason := range kept {
		if reason == "" {
			t.Errorf("kept[%q] has no reason", key)
		}
		if !m.exported[key] || !strings.HasPrefix(m.declared[key], prefix) {
			t.Errorf("kept[%q] is not an exported declaration under %s", key, prefix)
		}
	}
	if dead := m.dead(prefix, live); len(dead) > 0 {
		t.Errorf("%d %s (delete them, or add them to kept with a reason):\n%s", len(dead), what, strings.Join(dead, "\n"))
	}
}

// dead returns, sorted, the exported top-level names declared in a
// non-test file under prefix that are not live.
func (m *module) dead(prefix string, live map[string]bool) []string {
	var dead []string
	for key := range m.exported {
		if strings.HasPrefix(m.declared[key], prefix) && !live[key] {
			dead = append(dead, strings.TrimPrefix(key, "internal/"))
		}
	}
	sort.Strings(dead)
	return dead
}

// modFile is one parsed Go file of the module.
type modFile struct {
	path string // slash-separated, relative to the module root
	dir  string // path.Dir(path)
	test bool
	f    *ast.File
}

// module is every Go file of the module and its top-level declarations.
// A declaration's key is its name, qualified by its directory outside the
// root package ("internal/perf.TrainNeural").
type module struct {
	files    []modFile
	declared map[string]string // key -> path of a non-test file declaring it
	exported map[string]bool   // keys of exported funcs, types, vars and consts (not methods)
	pkgName  map[string]string // dir -> package name
}

// parseModule parses every Go file of the module once, skipping the
// directories the go tool ignores (testdata and names starting with . or _).
func parseModule(t *testing.T) *module {
	t.Helper()
	m := newModule()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if n := e.Name(); p != "." && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		m.add(filepath.ToSlash(p), f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// parseSources builds a module from in-memory files keyed by their
// slash-separated path relative to the module root.
func parseSources(t *testing.T, files map[string]string) *module {
	t.Helper()
	m := newModule()
	fset := token.NewFileSet()
	for p, src := range files {
		f, err := parser.ParseFile(fset, p, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		m.add(p, f)
	}
	return m
}

func newModule() *module {
	return &module{declared: map[string]string{}, exported: map[string]bool{}, pkgName: map[string]string{}}
}

// add records one parsed file; p is slash-separated and relative to the
// module root.
func (m *module) add(p string, f *ast.File) {
	mf := modFile{path: p, dir: path.Dir(p), test: strings.HasSuffix(p, "_test.go"), f: f}
	if !mf.test {
		m.pkgName[mf.dir] = f.Name.Name
		eachDecl(f, func(name string, method bool, _ ast.Node) {
			key := declKey(mf.dir, name)
			m.declared[key] = p
			if !method && ast.IsExported(name) {
				m.exported[key] = true
			}
		})
	}
	m.files = append(m.files, mf)
}

// live returns the keys reachable from the roots: the kept keys, init
// funcs, and what the declarations of every caller file name where counts
// allows it. A declaration of another file is live when a live
// declaration names it.
func (m *module) live(caller func(modFile) bool, counts func(from modFile, key string) bool, kept map[string]string) map[string]bool {
	live := map[string]bool{}
	var queue []string
	mark := func(key string) {
		if !live[key] {
			live[key] = true
			queue = append(queue, key)
		}
	}
	for key := range kept {
		mark(key)
	}
	uses := map[string][]string{} // key -> keys its declarations name
	for _, mf := range m.files {
		imports := m.imports(mf.f)
		root := caller(mf)
		eachDecl(mf.f, func(name string, _ bool, node ast.Node) {
			from := declKey(mf.dir, name)
			if !mf.test && name == "init" {
				mark(from)
			}
			for _, key := range m.mentions(mf, imports, node) {
				switch {
				case !counts(mf, key):
				case root:
					mark(key)
				default:
					uses[from] = append(uses[from], key)
				}
			}
		})
	}
	for len(queue) > 0 {
		key := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, k := range uses[key] {
			mark(k)
		}
	}
	return live
}

// imports maps the local name of each of f's imports of this module to
// the imported directory.
func (m *module) imports(f *ast.File) map[string]string {
	dirs := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		dir := "."
		if p != modulePath {
			var ok bool
			if dir, ok = strings.CutPrefix(p, modulePath+"/"); !ok {
				continue
			}
		}
		name := m.pkgName[dir]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		dirs[name] = dir
	}
	return dirs
}

// mentions returns the keys of the module's declarations that node names:
// a qualified identifier (pkg.X) of an imported package of this module, or
// an identifier of its own package that the parser resolved to the file
// scope or left unresolved (another file's declaration). Struct fields,
// parameters, locals and selected methods do not count.
func (m *module) mentions(mf modFile, imports map[string]string, node ast.Node) []string {
	var keys []string
	add := func(dir, name string) {
		if key := declKey(dir, name); m.declared[key] != "" {
			keys = append(keys, key)
		}
	}
	own := !strings.HasSuffix(mf.f.Name.Name, "_test")
	selected := map[*ast.Ident]bool{}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selected[n.Sel] = true
			if x, ok := n.X.(*ast.Ident); ok && x.Obj == nil {
				if dir, ok := imports[x.Name]; ok {
					add(dir, n.Sel.Name)
				}
			}
		case *ast.Ident:
			if own && !selected[n] && (n.Obj == nil || mf.f.Scope.Lookup(n.Name) == n.Obj) {
				add(mf.dir, n.Name)
			}
		}
		return true
	})
	return keys
}

// eachDecl calls fn for every top-level declaration of f with the name its
// key goes under: a method's is its receiver type's.
func eachDecl(f *ast.File, fn func(name string, method bool, node ast.Node)) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				fn(d.Name.Name, false, d)
				continue
			}
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch r := recv.(type) {
			case *ast.IndexExpr:
				recv = r.X
			case *ast.IndexListExpr:
				recv = r.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				fn(id.Name, true, d)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn(s.Name.Name, false, s)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						fn(n.Name, false, s)
					}
				}
			}
		}
	}
}

func declKey(dir, name string) string {
	if dir == "." {
		return name
	}
	return dir + "." + name
}
