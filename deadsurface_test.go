package spright_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadSurfaceAllowed are the names under internal/ that no non-test code
// uses and that stay anyway, each with its reason. A key is pkg.Name,
// pkg.Type.Method, or a bare package name standing for all of its names.
var deadSurfaceAllowed = map[string]string{
	"core.Ctx.PutObject":    "handler API: a function stores a large object for the next hop",
	"core.Ctx.ReplyObject":  "handler API: a function replies with a stored object",
	"core.Ctx.Objects":      "handler API: a function reads the objects its request carries",
	"core.Ctx.FunctionName": "handler API: a function serving several chain steps learns which one runs",
	"objstore.Store.Lookup": "handler API: a function finds the object an earlier request stored under a key (Ctx.PutObject)",
	"grpcbase":              "the gRPC-style baseline that the root BenchmarkE2E_GRPCBaseline measures SPRIGHT against",
	"core.SProxy.Revoke":    "TestHandoffSnapshotVisibility: a filter edge the copy-on-write table drops is refused from the next send on, queued or claimed",
	"ebpf.Kernel.MapCount":  "TestClosedChainReleasesEBPFState: a deleted chain's maps leave its node's registry (Kernel.DeleteMap)",
	"ebpf.Map.Range":        "TestEngineParityOnRealChain and the fast-path differential tests: both engines leave every map entry equal",
	"fault.Injector.Add":    "the fault injector's only way to take a rule: spright.NewFaultInjector returns an empty one for chaos runs",
	"core.Tracer.InFlight":  "trace-leak detector: tests assert that every sampled trace a chain starts is finished",
}

// TestNoDeadSurface type-checks every package of the repository, bench/,
// examples/ and cmd/ included, and fails on each func, type, var and const
// declared at package level under internal/, and each method of a named type
// there, that no non-test code uses. Exempt are a method that satisfies an
// interface the checked code names or an imported std package declares,
// Unwrap, a constant whose const block has a used member, and the names in
// deadSurfaceAllowed. An allowlist entry that matches nothing dead fails, and
// so does any type error, so a loader fault cannot pass by checking nothing.
func TestNoDeadSurface(t *testing.T) {
	dead, err := deadSurface(".", "github.com/spright-go/spright")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range dead {
		if !allowed(deadSurfaceAllowed, name) {
			t.Errorf("%s: no non-test code uses it; delete it or allowlist it with a reason", name)
		}
	}
	for _, key := range staleAllowed(deadSurfaceAllowed, dead) {
		t.Errorf("allowlist entry %s matches no dead name: remove it", key)
	}
	if len(deadSurfaceAllowed) >= 30 {
		t.Errorf("allowlist holds %d entries; keep it under 30", len(deadSurfaceAllowed))
	}
}

// TestDeadSurfaceRules pins each rule of the dead-surface scan on the fixture
// module in testdata/deadsurface, so the gate cannot pass by flagging nothing
// or by exempting everything.
func TestDeadSurfaceRules(t *testing.T) {
	dead, err := deadSurface(filepath.Join("testdata", "deadsurface"), "example.com/fix")
	if err != nil {
		t.Fatal(err)
	}
	flagged := make(map[string]bool)
	for _, name := range dead {
		flagged[name] = true
	}
	for _, tc := range []struct {
		rule string
		name string
		dead bool
	}{
		{"used-func-kept", "fix.Used", false},
		{"unused-func-flagged", "fix.Unused", true},
		{"self-call-is-no-use", "fix.Recurse", true},
		{"used-method-kept", "fix.Thing.Live", false},
		{"test-only-method-flagged", "fix.Thing.TestOnly", true},
		{"receiver-is-no-use", "fix.Orphan", true},
		{"std-interface-method-exempt", "fix.Thing.String", false},
		{"universe-interface-method-exempt", "fix.Err.Error", false},
		{"module-interface-method-exempt", "fix.Thing.Close", false},
		{"unwrap-exempt", "fix.Err.Unwrap", false},
		{"const-with-used-sibling-exempt", "fix.CodeB", false},
		{"lone-const-flagged", "fix.Lone", true},
		{"unexported-var-flagged", "fix.scratch", true},
	} {
		if flagged[tc.name] != tc.dead {
			t.Errorf("%s: %s flagged = %v, want %v (flagged: %v)", tc.rule, tc.name, flagged[tc.name], tc.dead, dead)
		}
	}
	allow := map[string]string{
		"fix.Unused": "dead and allowlisted",
		"fix.Used":   "used, so stale",
		"fix.Gone":   "declared nowhere, so stale",
		"fix":        "a package entry matches its dead names",
	}
	if got, want := staleAllowed(allow, dead), []string{"fix.Gone", "fix.Used"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stale-allowlist-entry-fails: staleAllowed = %v, want %v", got, want)
	}
	if !allowed(allow, "fix.Thing.TestOnly") {
		t.Error("package-entry-allows: fix.Thing.TestOnly not allowed by the entry fix")
	}
}

// allowed reports whether the allowlist holds name or its package.
func allowed(allow map[string]string, name string) bool {
	_, byName := allow[name]
	_, byPkg := allow[name[:strings.IndexByte(name, '.')]]
	return byName || byPkg
}

// staleAllowed returns, sorted, the allowlist entries that match no dead name.
func staleAllowed(allow map[string]string, dead []string) []string {
	matched := make(map[string]bool)
	for _, name := range dead {
		matched[name] = true
		matched[name[:strings.IndexByte(name, '.')]] = true
	}
	var stale []string
	for key := range allow {
		if !matched[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return stale
}

// deadSurface loads every non-test package under root, whose module path is
// mod, and returns, sorted, the names under root/internal that no loaded code
// uses and no rule exempts: pkg.Name for package-level names and
// pkg.Type.Method for methods.
func deadSurface(root, mod string) ([]string, error) {
	l := &surfaceLoader{
		fset: token.NewFileSet(),
		root: root,
		mod:  mod,
		std:  importer.Default(),
		pkgs: make(map[string]*surfacePkg),
	}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		_, err = l.ImportFrom(strings.TrimSuffix(mod+"/"+filepath.ToSlash(rel), "/."), "", 0)
		if err == errNoGoFiles {
			return nil
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if len(l.typeErrs) > 0 {
		return nil, fmt.Errorf("type errors: %v", l.typeErrs)
	}
	internal := mod + "/internal"
	var checked int
	for path := range l.pkgs {
		if path == internal || strings.HasPrefix(path, internal+"/") {
			checked++
		}
	}
	if checked == 0 {
		return nil, fmt.Errorf("no package under %s loaded", internal)
	}
	return l.dead(internal), nil
}

var errNoGoFiles = errors.New("no buildable non-test Go files")

// surfaceLoader type-checks the module's packages from source, and the
// standard library's from export data.
type surfaceLoader struct {
	fset     *token.FileSet
	root     string
	mod      string
	std      types.Importer
	pkgs     map[string]*surfacePkg // by import path; nil while loading
	typeErrs []error
}

type surfacePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *surfaceLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *surfaceLoader) ImportFrom(path, _ string, _ types.ImportMode) (*types.Package, error) {
	if path != l.mod && !strings.HasPrefix(path, l.mod+"/") {
		return l.std.Import(path)
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.pkg, nil
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.mod)))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		ok, err := build.Default.MatchFile(dir, name)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, errNoGoFiles
	}
	l.pkgs[path] = nil
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l, Error: func(err error) { l.typeErrs = append(l.typeErrs, err) }}
	pkg, _ := conf.Check(path, l.fset, files, info)
	l.pkgs[path] = &surfacePkg{pkg: pkg, files: files, info: info}
	return pkg, nil
}

// dead returns the names declared in the packages under internal that no
// loaded package uses outside the name's own declaration, less the exempt.
func (l *surfaceLoader) dead(internal string) []string {
	span := make(map[types.Object]ast.Node) // each declared object's own declaration
	block := make(map[types.Object]*ast.GenDecl)
	receiver := make(map[*ast.Ident]bool)
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					span[p.info.Defs[decl.Name]] = decl
					if decl.Recv != nil {
						ast.Inspect(decl.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receiver[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							span[p.info.Defs[spec.Name]] = spec
						case *ast.ValueSpec:
							for _, id := range spec.Names {
								span[p.info.Defs[id]] = spec
								block[p.info.Defs[id]] = decl
							}
						}
					}
				}
			}
		}
	}
	used := make(map[types.Object]bool)
	use := func(id *ast.Ident, obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if n := span[obj]; receiver[id] || n != nil && n.Pos() <= id.Pos() && id.Pos() < n.End() {
			return
		}
		used[obj] = true
	}
	var ifaces []*types.Interface
	addIface := func(typ types.Type) {
		if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
			return
		}
		if it, ok := typ.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	for _, p := range l.pkgs {
		for id, obj := range p.info.Uses {
			use(id, obj)
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for sel, s := range p.info.Selections {
			use(sel.Sel, s.Obj())
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			if tv.IsType() {
				addIface(tv.Type)
			}
		}
		for _, imp := range p.pkg.Imports() {
			if l.pkgs[imp.Path()] != nil {
				continue
			}
			for _, name := range imp.Scope().Names() {
				if obj := imp.Scope().Lookup(name); obj.Exported() {
					if tn, ok := obj.(*types.TypeName); ok {
						addIface(tn.Type())
					}
				}
			}
		}
	}
	satisfies := func(m *types.Func, recv types.Type) bool {
		if m.Name() == "Unwrap" {
			return true
		}
		for _, it := range ifaces {
			if obj, _, _ := types.LookupFieldOrMethod(it, false, m.Pkg(), m.Name()); obj == nil {
				continue
			}
			if types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
				return true
			}
		}
		return false
	}
	var dead []string
	for path, p := range l.pkgs {
		if path != internal && !strings.HasPrefix(path, internal+"/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if name == "_" || name == "init" {
				continue
			}
			if !used[obj] && !siblingUsed(obj, block, p.info, used) {
				dead = append(dead, p.pkg.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !used[m] && !satisfies(m, named) {
					dead = append(dead, p.pkg.Name()+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(dead)
	return dead
}

// siblingUsed reports whether obj is a constant in a parenthesised const
// block another used constant shares: an encoding table keeps every code.
func siblingUsed(obj types.Object, block map[types.Object]*ast.GenDecl, info *types.Info, used map[types.Object]bool) bool {
	decl := block[obj]
	if _, ok := obj.(*types.Const); !ok || decl == nil || !decl.Lparen.IsValid() {
		return false
	}
	for _, spec := range decl.Specs {
		for _, id := range spec.(*ast.ValueSpec).Names {
			if used[info.Defs[id]] {
				return true
			}
		}
	}
	return false
}
