// Command deadcode lists every function of the rootreplay module that no
// program reaches: no command under cmd/, no example, not the bench/
// harness and no exported function of the root facade. A function that
// only tests call belongs in the tests that call it, or nowhere.
//
//	go run ./scripts/deadcode    # from the repository root; exit 1 on a finding
//
// Reachability is the linker's: each program is built with inlining off
// and -ldflags=-dumpdep, and a function is reached when its symbol is in
// some program's dependency dump. The linker keeps a method whenever an
// interface call could select it, so a method no one calls can still
// pass; a function this command names is dead for certain.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const module = "rootreplay"

func main() {
	root, err := os.Getwd()
	check(err)
	reached := map[string]bool{}
	dump := func(dir string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "deadcode: go build %s: %v\n%s", strings.Join(pkgs, " "), err, out.Bytes())
			os.Exit(2)
		}
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			for _, sym := range strings.Split(sc.Text(), " -> ") {
				reached[symbolOf(sym)] = true
			}
		}
	}
	mains, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...").Output()
	check(err)
	for _, p := range strings.Fields(string(mains)) {
		dump(root, p) // one at a time: -o cannot name one file for several mains
	}
	dump(filepath.Join(root, "bench"), ".")
	facade := facadeRoots(root)
	dump(facade, ".")
	os.RemoveAll(facade)

	var dead []string
	fset := token.NewFileSet()
	check(filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != root && (n == "bench" || n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil // a command's own functions: the compiler's unused checks and review
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := module
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			if !reachedFunc(reached, pkg, fd) {
				line := fset.Position(fd.Pos()).Line
				dead = append(dead, fmt.Sprintf("%s:%d: %s", filepath.Join(rel, filepath.Base(path)), line, funcName(fd)))
			}
		}
		return nil
	}))
	sort.Strings(dead)
	for _, d := range dead {
		fmt.Println(d)
	}
	if len(dead) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d function(s) reached by no program; delete them or move them beside the tests that call them\n", len(dead))
		os.Exit(1)
	}
}

var typeArgs = regexp.MustCompile(`\[[^\]]*\]`)

// symbolOf turns a linker symbol into the form reachedFunc builds:
// type arguments and method-value suffixes dropped.
func symbolOf(sym string) string {
	return strings.TrimSuffix(typeArgs.ReplaceAllString(strings.TrimSpace(sym), ""), "-fm")
}

// reachedFunc reports whether the linker kept fd, under its own symbol
// or, for a value method, under the pointer wrapper.
func reachedFunc(reached map[string]bool, pkg string, fd *ast.FuncDecl) bool {
	if fd.Recv == nil {
		return reached[pkg+"."+fd.Name.Name]
	}
	typ, ptr := recvType(fd)
	byPtr := reached[pkg+".(*"+typ+")."+fd.Name.Name]
	return byPtr || !ptr && reached[pkg+"."+typ+"."+fd.Name.Name]
}

func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil {
		return fd.Name.Name
	}
	typ, ptr := recvType(fd)
	if ptr {
		typ = "*" + typ
	}
	return "(" + typ + ")." + fd.Name.Name
}

// recvType names a method's receiver type, without type parameters.
func recvType(fd *ast.FuncDecl) (typ string, ptr bool) {
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t, ptr = s.X, true
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name, ptr
}

// facadeRoots writes a throwaway program that takes the value of every
// exported function of the root package, so the facade counts as a
// caller of what it wraps, and returns its directory.
func facadeRoots(root string) string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, root, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	check(err)
	var names []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.IsExported() {
					names = append(names, "r."+fd.Name.Name)
				}
			}
		}
	}
	sort.Strings(names)
	dir, err := os.MkdirTemp("", "deadcode-facade")
	check(err)
	gomod := fmt.Sprintf("module deadcodefacade\n\ngo 1.22\n\nrequire %s v0.0.0\n\nreplace %s => %s\n", module, module, root)
	check(os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644))
	src := fmt.Sprintf("package main\n\nimport r %q\n\nvar sink []any\n\nfunc main() { sink = append(sink, %s) }\n", module, strings.Join(names, ", "))
	check(os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644))
	return dir
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(2)
	}
}
