package pragma

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeNamesHaveCallers holds pragma.go to the names something uses.
// An exported top-level name has a caller when an examples/ or cmd/
// program names it as pragma.X, when a root test other than this one names
// it, or when a kept declaration of pragma.go mentions it (the signature or
// body of a name that stays, or a method of a type that stays). A name with
// no caller is dead surface: delete it, or list it in kept with the reason.
func TestFacadeNamesHaveCallers(t *testing.T) {
	// kept maps a facade name deliberately kept without a caller to why.
	kept := map[string]string{}

	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "pragma.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var exported []string
	uses := map[string][]string{} // top-level name -> facade names its declaration mentions
	declare := func(names []*ast.Ident, node ast.Node) {
		mentioned := facadeMentions(facade, node)
		for _, n := range names {
			if n.IsExported() {
				exported = append(exported, n.Name)
			}
			uses[n.Name] = append(uses[n.Name], mentioned...)
		}
	}
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				declare([]*ast.Ident{d.Name}, d)
				continue
			}
			// A method is kept with its receiver type.
			recv := d.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				uses[id.Name] = append(uses[id.Name], facadeMentions(facade, d)...)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declare([]*ast.Ident{s.Name}, s)
				case *ast.ValueSpec:
					declare(s.Names, s)
				}
			}
		}
	}

	live := map[string]bool{}
	for name, reason := range kept {
		if reason == "" {
			t.Errorf("kept[%q] has no reason", name)
		}
		if _, ok := uses[name]; !ok {
			t.Errorf("kept[%q] is not declared in pragma.go", name)
		}
		live[name] = true
	}
	callers := func(root string, tests bool) {
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if e.IsDir() {
				if tests && path != root {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || (tests && (!strings.HasSuffix(path, "_test.go") || path == "facade_test.go")) {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "pragma" {
						live[sel.Sel.Name] = true
					}
				}
				return true
			})
			if f.Name.Name == "pragma" {
				// Same-package tests name facade declarations unqualified,
				// and the parser leaves those identifiers unresolved.
				for _, id := range f.Unresolved {
					live[id.Name] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	callers("examples", false)
	callers("cmd", false)
	callers(".", true)

	queue := make([]string, 0, len(live))
	for name := range live {
		queue = append(queue, name)
	}
	for len(queue) > 0 {
		name := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, m := range uses[name] {
			if !live[m] {
				live[m] = true
				queue = append(queue, m)
			}
		}
	}

	var dead []string
	for _, name := range exported {
		if !live[name] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d facade names have no caller in examples/, cmd/, the root tests or a kept declaration "+
			"(delete them, or add them to kept with a reason):\n%s", len(dead), strings.Join(dead, "\n"))
	}
}

// facadeMentions returns the package-level names of pragma.go that node
// refers to. The parser resolves an identifier to its file-scope object, so
// struct fields, parameters and qualified names (pkg.X) do not count.
func facadeMentions(facade *ast.File, node ast.Node) []string {
	var names []string
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Obj != nil && facade.Scope.Lookup(id.Name) == id.Obj {
			names = append(names, id.Name)
		}
		return true
	})
	return names
}
