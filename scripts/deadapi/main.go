// Command deadapi lists the exported identifiers of a repository's
// internal/ packages that no non-test file references, so that internal
// API kept alive only by its own tests is deleted instead of maintained.
//
// Run it from the repository root:
//
//	go run ./scripts/deadapi
//
// It type-checks the non-test files of every Go module under the current
// directory (cmd/pdpabench is a module of its own) with go/types,
// resolving the modules' own import paths through their go.mod files and
// the standard library from source. An exported package-level function,
// type, variable or constant, or an exported method or struct field of a
// named type, of a package under internal/ is reported unless
//   - a non-test file refers to it, from any package of any module;
//   - it is a method reached through an interface: its type implements a
//     named interface of the loaded code, the standard library included,
//     or an anonymous interface of the modules' own non-test code, and the
//     method is in that interface. A method promoted through an embedded
//     field counts when the embedding type implements the interface;
//   - it follows the errors.Is and errors.As conventions (Is, As, Unwrap);
//   - it is on the allow-list, scripts/deadapi/allow.txt: one
//     "<dir>.<Name>" or "<dir>.<Type>.<Member>" per line, then the reason.
//
// It exits 1 when it reports anything, including an allow-list entry that
// names an identifier which is referenced or gone.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	n, err := run(".", filepath.Join("scripts", "deadapi", "allow.txt"), os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	if n > 0 {
		os.Exit(1)
	}
}

// run checks the modules under root against the allow-list at allowPath
// and writes its findings, then a summary line, to w. It returns the
// number of findings.
func run(root, allowPath string, w io.Writer) (int, error) {
	allow, err := readAllow(allowPath)
	if err != nil {
		return 0, err
	}
	l, err := newLoader(root)
	if err != nil {
		return 0, err
	}
	if err := l.loadAll(); err != nil {
		return 0, err
	}
	used := l.used()

	total, unused, allowed, findings := 0, 0, 0, 0
	for _, p := range l.pkgs {
		if p.rel != "internal" && !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, id := range exported(p.types) {
			total++
			if used[id.obj] {
				continue
			}
			unused++
			name := p.rel + "." + id.name
			if allow[name] {
				delete(allow, name)
				allowed++
				continue
			}
			pos := l.fset.Position(id.obj.Pos())
			file, _ := filepath.Rel(l.root, pos.Filename)
			fmt.Fprintf(w, "unreferenced outside tests: %s (%s:%d)\n", name, filepath.ToSlash(file), pos.Line)
			findings++
		}
	}
	stale := make([]string, 0, len(allow))
	for name := range allow {
		stale = append(stale, name)
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Fprintf(w, "allow-list entry referenced or gone: %s\n", name)
	}
	findings += len(stale)
	fmt.Fprintf(w, "deadapi: %d exported identifiers in internal/, %d unreferenced outside tests, %d of them allow-listed\n",
		total, unused, allowed)
	return findings, nil
}

// readAllow parses the allow-list: an identifier and its reason per line;
// blank lines and lines starting with # are skipped. A missing file is an
// empty list.
func readAllow(path string) (map[string]bool, error) {
	allow := map[string]bool{}
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return allow, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, ln, name)
		}
		if allow[name] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, ln, name)
		}
		allow[name] = true
	}
	return allow, sc.Err()
}

// ident is an exported object and its name within its package: Name, or
// Type.Member for a method or field.
type ident struct {
	obj  types.Object
	name string
}

// exported returns pkg's exported package-level objects and the exported
// methods and struct fields of its named types, in source-name order.
func exported(pkg *types.Package) []ident {
	var out []ident
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, ident{obj, name})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if st, ok := n.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					out = append(out, ident{f, name + "." + f.Name()})
				}
			}
		}
		for i := 0; i < n.NumMethods(); i++ {
			if m := n.Method(i); m.Exported() {
				out = append(out, ident{m, name + "." + m.Name()})
			}
		}
	}
	return out
}

// origin maps an object of an instantiated generic type or function to
// the object it was declared as.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

type module struct{ path, dir string }

type pkg struct {
	path, rel string
	types     *types.Package
	info      *types.Info
}

// loader type-checks the non-test files of the modules under one root,
// each package once, and the standard library from source.
type loader struct {
	root  string
	fset  *token.FileSet
	mods  []module // longest path first
	dirs  []string // every directory holding a non-test package
	byDir map[string]*pkg
	pkgs  []*pkg // in load order
	std   types.ImporterFrom
}

func newLoader(root string) (*loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	// Type-checking needs no cgo: the packages that use it have pure-Go
	// fallbacks, and the source importer, which reads build.Default, would
	// otherwise run the cgo tool.
	build.Default.CgoEnabled = false
	l := &loader{root: abs, fset: token.NewFileSet(), byDir: map[string]*pkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != abs && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		switch {
		case name == "go.mod":
			mp, err := modulePath(path)
			if err != nil {
				return err
			}
			l.mods = append(l.mods, module{mp, filepath.Dir(path)})
		case strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go"):
			if dir := filepath.Dir(path); len(l.dirs) == 0 || l.dirs[len(l.dirs)-1] != dir {
				l.dirs = append(l.dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(l.mods) == 0 {
		return nil, fmt.Errorf("no go.mod under %s", abs)
	}
	sort.Slice(l.mods, func(i, j int) bool { return len(l.mods[i].path) > len(l.mods[j].path) })
	return l, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`), nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func (l *loader) loadAll() error {
	for _, dir := range l.dirs {
		if _, err := l.load(dir); err != nil {
			return err
		}
	}
	return nil
}

// Import and ImportFrom make the loader the type checker's importer:
// the modules' own packages load from their directories, the rest from
// the standard library.
func (l *loader) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	for _, m := range l.mods {
		if path == m.path || strings.HasPrefix(path, m.path+"/") {
			p, err := l.load(filepath.Join(m.dir, filepath.FromSlash(strings.TrimPrefix(path, m.path))))
			if err != nil {
				return nil, err
			}
			return p.types, nil
		}
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// load parses and type-checks the non-test files of the package in dir.
func (l *loader) load(dir string) (*pkg, error) {
	if p, ok := l.byDir[dir]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", dir)
		}
		return p, nil
	}
	l.byDir[dir] = nil
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return nil, err
	}
	p := &pkg{rel: filepath.ToSlash(rel), path: l.importPath(dir)}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(p.path, l.fset, files, p.info); err != nil {
		return nil, err
	}
	l.byDir[dir] = p
	l.pkgs = append(l.pkgs, p)
	return p, nil
}

// importPath is the import path of dir under the innermost module holding
// it.
func (l *loader) importPath(dir string) string {
	best := module{}
	for _, m := range l.mods {
		if (dir == m.dir || strings.HasPrefix(dir, m.dir+string(filepath.Separator))) && len(m.dir) > len(best.dir) {
			best = m
		}
	}
	rel, _ := filepath.Rel(best.dir, dir)
	if rel == "." {
		return best.path
	}
	return best.path + "/" + filepath.ToSlash(rel)
}

// used returns every object the modules' non-test code reaches: by name,
// through an interface, or by the errors conventions.
func (l *loader) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	var ifaces []*types.Interface
	var concrete []*types.Named
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			addIface(tn.Type())
			if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) && n.TypeParams().Len() == 0 {
				concrete = append(concrete, n)
			}
		}
	}
	// Named interfaces of every package the modules import, directly or
	// not: the standard library's fmt.Stringer, json.Marshaler,
	// heap.Interface, http.Handler and the like.
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range l.pkgs {
		walk(p.types)
	}
	walk(conventions)

	for _, n := range concrete {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		if mset.Len() == 0 {
			continue
		}
		for _, it := range ifaces {
			if mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
					used[origin(sel.Obj())] = true
				}
			}
		}
	}
	return used
}

// conventions holds the interfaces that reach methods without a named
// interface in sight: error itself, and the ones errors.Is, errors.As and
// errors.Unwrap declare inside their own bodies.
var conventions = func() *types.Package {
	const src = `package conventions

type (
	errorIface interface{ Error() string }
	isIface    interface{ Is(error) bool }
	asIface    interface{ As(any) bool }
	unwrap     interface{ Unwrap() error }
	unwrapAll  interface{ Unwrap() []error }
)
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "conventions.go", src, 0)
	if err != nil {
		panic(err)
	}
	pkg, err := new(types.Config).Check("conventions", fset, []*ast.File{f}, nil)
	if err != nil {
		panic(err)
	}
	return pkg
}()
