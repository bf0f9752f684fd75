// Command deadcode lists the functions that no binary of the repository
// links, and fails unless each one is on the checked-in allowlist.
//
// It builds every main package of every module under the current
// directory with inlining off (-gcflags=all=-l, so a small function
// keeps its own symbol), reads the text symbols with `go tool nm`, and
// diffs them against every function and method declared in a non-test
// file (go/parser over `go list`'s GoFiles). A listed function that a
// binary now links, or that is gone, also fails, so the list cannot rot.
//
// Run it from the repository root: go run ./internal/cmd/deadcode
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const allowlist = "internal/cmd/deadcode/allowlist.txt"

// tmp holds the built binaries; check removes it before any exit.
var tmp string

// decl is one declared function: where it is and how long.
type decl struct {
	pos   string
	lines int
}

func main() {
	var err error
	tmp, err = os.MkdirTemp("", "deadcode")
	check(err)
	root, err := os.Getwd()
	check(err)

	declared := map[string]decl{}
	linked := map[string]bool{}
	check(filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Name() == "go.mod" {
			auditModule(root, filepath.Dir(path), declared, linked)
		}
		return nil
	}))
	check(os.RemoveAll(tmp))

	allowed := readAllowlist()
	var unlisted []string
	total := 0
	for name, d := range declared {
		if linked[name] {
			continue
		}
		total += d.lines
		if _, ok := allowed[name]; !ok {
			unlisted = append(unlisted, fmt.Sprintf("%s\t%s (%d lines)", name, d.pos, d.lines))
		}
	}
	var stale []string
	for name := range allowed {
		if _, ok := declared[name]; !ok {
			stale = append(stale, name+"\tlisted, but no longer declared")
		} else if linked[name] {
			stale = append(stale, name+"\tlisted, but now linked")
		}
	}
	sort.Strings(unlisted)
	sort.Strings(stale)
	for _, l := range append(unlisted, stale...) {
		fmt.Println(l)
	}
	if len(unlisted)+len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "deadcode: %d unlinked functions not in %s, %d stale entries\n",
			len(unlisted), allowlist, len(stale))
		os.Exit(1)
	}
	fmt.Printf("deadcode: %d unlinked functions (%d lines), all listed in %s\n",
		len(allowed), total, allowlist)
}

// auditModule records the functions declared in the module rooted at dir
// and the symbols its main packages link.
func auditModule(root, dir string, declared map[string]decl, linked map[string]bool) {
	out := run(dir, "go", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "\t")
		pkg, name, pkgDir, files := f[0], f[1], f[2], strings.Fields(f[3])
		fset := token.NewFileSet()
		for _, file := range files {
			af, err := parser.ParseFile(fset, filepath.Join(pkgDir, file), nil, parser.SkipObjectResolution)
			check(err)
			for _, d := range af.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "_" || fn.Recv == nil && (fn.Name.Name == "init" || name == "main" && fn.Name.Name == "main") {
					continue
				}
				start, end := fset.Position(fn.Pos()), fset.Position(fn.End())
				rel, _ := filepath.Rel(root, start.Filename)
				declared[pkg+"."+recvName(fn)+fn.Name.Name] = decl{fmt.Sprintf("%s:%d", rel, start.Line), end.Line - start.Line + 1}
			}
		}
		if name != "main" {
			continue
		}
		bin := filepath.Join(tmp, strings.ReplaceAll(pkg, "/", "_"))
		run(dir, "go", "build", "-gcflags=all=-l", "-o", bin, pkg)
		sc := bufio.NewScanner(strings.NewReader(run(dir, "go", "tool", "nm", bin)))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr type name": the name is the rest of the line, since an
			// instantiated generic's type arguments may hold spaces.
			f := strings.SplitN(strings.TrimLeft(sc.Text(), " "), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				sym := symbolName(f[2])
				if strings.HasPrefix(sym, "main.") {
					sym = pkg + strings.TrimPrefix(sym, "main")
				}
				linked[sym] = true
			}
		}
	}
}

// symbolName drops a symbol's type arguments, nested brackets included,
// and writes a method on *T as one on T: "p.(*T[K]).M" becomes "p.T.M".
func symbolName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.NewReplacer("(*", "", ")", "").Replace(b.String())
}

// recvName is "T." for a method on T or *T (type parameters dropped),
// and "" for a function.
func recvName(fn *ast.FuncDecl) string {
	if fn.Recv == nil {
		return ""
	}
	t := fn.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return t.(*ast.Ident).Name + "."
}

// readAllowlist reads "name reason" lines; blank and # lines are skipped,
// and an entry without a reason is an error.
func readAllowlist() map[string]string {
	data, err := os.ReadFile(allowlist)
	check(err)
	allowed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			check(fmt.Errorf("%s:%d: %s has no reason", allowlist, i+1, name))
		}
		allowed[name] = reason
	}
	return allowed
}

func run(dir, name string, args ...string) string {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	check(err)
	return string(out)
}

func check(err error) {
	if err != nil {
		os.RemoveAll(tmp)
		fmt.Fprintln(os.Stderr, "deadcode:", err)
		os.Exit(1)
	}
}
