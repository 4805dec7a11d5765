package spright_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIdentifier is a backticked token shaped like a Go name or selector,
// optionally called: `Gateway.Stats()`, `ChainSpec`, `obs.OTLPJSON`.
var docIdentifier = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*)*)(?:\\(\\))?`")

// stdlibSelectors are package qualifiers the docs use for the standard
// library; what follows them is not declared in this module.
var stdlibSelectors = []string{"atomic.", "errors.", "http.", "io.", "net.", "os.", "syscall.", "time."}

// externalNames are names the docs cite from outside the module: the Go
// runtime and standard library, and the Linux eBPF API the paper builds on.
var externalNames = map[string]bool{
	"AddUint32":                 true,
	"BPF_MAP_TYPE_PERCPU_ARRAY": true,
	"Broadcast":                 true,
	"Gosched":                   true,
	"RLock":                     true,
	"RWMutex":                   true,
	"findRunnable":              true,
}

// TestDocsNameLiveIdentifiers: every Go name README.md, DESIGN.md and
// EXPERIMENTS.md cite in backticks is declared somewhere in the repository,
// so a rename or a deletion cannot leave the docs describing code that is
// gone. A token is checked when it has an uppercase letter or a dot; each of
// its dot-separated parts with an uppercase letter must be declared.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	declared := declaredNames(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, m := range docIdentifier.FindAllStringSubmatch(line, -1) {
				tok := m[1]
				if !strings.ContainsAny(tok, ".ABCDEFGHIJKLMNOPQRSTUVWXYZ") ||
					strings.HasSuffix(tok, ".md") || strings.HasSuffix(tok, ".json") ||
					hasAnyPrefix(tok, stdlibSelectors) {
					continue
				}
				for _, part := range strings.Split(tok, ".") {
					if strings.ToLower(part) != part && !declared[part] && !externalNames[part] {
						t.Errorf("%s:%d: %s names %s, declared nowhere in the module", doc, i+1, m[0], part)
					}
				}
			}
		}
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// declaredNames parses every Go file of the repository and collects the
// names it declares: packages, funcs, methods, types, fields, parameters,
// consts and vars. A name bound by := is a function's private detail, not
// something the docs should cite.
func declaredNames(t *testing.T) map[string]bool {
	t.Helper()
	names := make(map[string]bool)
	add := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id != nil {
				names[id.Name] = true
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		add(f.Name)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				add(n.Name)
			case *ast.TypeSpec:
				add(n.Name)
			case *ast.ValueSpec:
				add(n.Names...)
			case *ast.Field: // struct fields, interface methods, parameters
				add(n.Names...)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}
