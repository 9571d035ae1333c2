package ctgdvfs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeHasCallers keeps api.go down to what programs use. Every
// declaration of the facade must be referenced as ctgdvfs.<Name> by a
// program under cmd/, examples/ or scripts/, used by example_test.go, or
// referenced by another api.go declaration that is itself kept. A const
// block is one unit: it is kept when any of its names is.
func TestFacadeHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	api, err := parser.ParseFile(fset, "api.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// unitOf maps each declared name to its unit (the name itself, or the
	// first name of its const block); decls holds each unit's syntax.
	unitOf := map[string]string{}
	decls := map[string][]ast.Node{}
	add := func(unit string, n ast.Node) { decls[unit] = append(decls[unit], n) }
	for _, d := range api.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			unitOf[d.Name.Name] = d.Name.Name
			add(d.Name.Name, d)
		case *ast.GenDecl:
			if d.Tok == token.IMPORT {
				continue
			}
			block := ""
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					unitOf[s.Name.Name] = s.Name.Name
					add(s.Name.Name, s)
				case *ast.ValueSpec:
					if block == "" || d.Tok != token.CONST {
						block = s.Names[0].Name
					}
					for _, n := range s.Names {
						unitOf[n.Name] = block
					}
					add(block, s)
				}
			}
		}
	}
	// refs lists the api.go names each unit mentions.
	refs := map[string][]string{}
	for unit, ns := range decls {
		for _, n := range ns {
			ast.Inspect(n, func(x ast.Node) bool {
				if id, ok := x.(*ast.Ident); ok {
					if u, ok := unitOf[id.Name]; ok && u != unit {
						refs[unit] = append(refs[unit], u)
					}
				}
				return true
			})
		}
	}

	kept := map[string]bool{}
	use := func(path string) {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := ""
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p == "ctgdvfs" {
				local = "ctgdvfs"
				if im.Name != nil {
					local = im.Name.Name
				}
			}
		}
		if local == "" {
			return
		}
		ast.Inspect(f, func(x ast.Node) bool {
			if sel, ok := x.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					if u, ok := unitOf[sel.Sel.Name]; ok {
						kept[u] = true
					}
				}
			}
			return true
		})
	}
	for _, dir := range []string{"cmd", "examples", "scripts"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				use(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	use("example_test.go")

	// Whatever a kept declaration mentions is kept too.
	work := make([]string, 0, len(kept))
	for u := range kept {
		work = append(work, u)
	}
	for len(work) > 0 {
		u := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range refs[u] {
			if !kept[r] {
				kept[r] = true
				work = append(work, r)
			}
		}
	}

	var dead []string
	for name, u := range unitOf {
		if name == u && !kept[u] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("api.go declares names no program uses (delete them, or call them from cmd/, examples/ or scripts/): %s",
			strings.Join(dead, ", "))
	}
}
