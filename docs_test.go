package spright_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
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

// docMetric is a backticked metric family name: spright_ and name characters,
// with {a,b} alternatives inside the name, optionally ending in a * (a
// prefix) and a {…} label set: `spright_failures_total{kind}`,
// `spright_ring_{enqueues,dequeues}_total`, `spright_prewarm_*`.
var docMetric = regexp.MustCompile("`(spright_(?:[a-z0-9_]|\\{[a-z0-9_,]+\\}[a-z0-9_])*)(\\*)?(?:\\{[^`]*\\})?`")

// TestDocsNameLiveIdentifiers: every Go name README.md, DESIGN.md and
// EXPERIMENTS.md cite in backticks is declared somewhere in the repository,
// and every metric family they cite is named by a string literal of its
// non-test Go, so a rename or a deletion cannot leave the docs describing
// code or telemetry that is gone. A Go token is checked when it has an
// uppercase letter or a dot; each of its dot-separated parts with an
// uppercase letter must be declared. A metric name is checked whole, each
// {a,b} alternative on its own; one ending in _ or * is checked as a prefix
// of some literal.
func TestDocsNameLiveIdentifiers(t *testing.T) {
	declared, literals := moduleNames(t)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, ref := range docMetrics(line) {
				if !namedByLiteral(ref.name, ref.prefix, literals) {
					t.Errorf("%s:%d: cites metric %s, which no string literal in non-test Go names", doc, i+1, ref.name)
				}
			}
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

// metricRef is one metric name a doc line cites; prefix is set when the
// citation ends in _ or * and so stands for every family that starts with it.
type metricRef struct {
	name   string
	prefix bool
}

// docMetrics returns every metric name a doc line cites in backticks, each
// {a,b} alternative on its own.
func docMetrics(line string) []metricRef {
	var refs []metricRef
	for _, m := range docMetric.FindAllStringSubmatch(line, -1) {
		for _, name := range alternatives(m[1]) {
			refs = append(refs, metricRef{name, m[2] == "*" || strings.HasSuffix(name, "_")})
		}
	}
	return refs
}

// TestDocMetricCitations pins how a doc line's metric citations are read and
// checked, so the docs test cannot pass by reading no names at all: label
// sets are dropped, {a,b} alternatives are checked one by one, a trailing *
// or _ makes a prefix, and a name no literal holds is dead.
func TestDocMetricCitations(t *testing.T) {
	literals := map[string]bool{
		"spright_gateway_admitted_total": true,
		"spright_failures_total":         true,
		"spright_ring_enqueues_total":    true,
		"spright_ring_dequeues_total":    true,
		"spright_prewarm_hits_total":     true,
	}
	for _, tc := range []struct {
		name string
		line string
		want []metricRef
		live bool
	}{
		{"plain", "reads `spright_gateway_admitted_total` per chain",
			[]metricRef{{"spright_gateway_admitted_total", false}}, true},
		{"label-set", "`spright_failures_total{kind}`",
			[]metricRef{{"spright_failures_total", false}}, true},
		{"label-values", "`spright_failures_total{kind=\"terminal\"}`",
			[]metricRef{{"spright_failures_total", false}}, true},
		{"alternatives", "`spright_ring_{enqueues,dequeues}_total`",
			[]metricRef{{"spright_ring_enqueues_total", false}, {"spright_ring_dequeues_total", false}}, true},
		{"star-prefix", "`spright_prewarm_*`",
			[]metricRef{{"spright_prewarm_", true}}, true},
		{"underscore-prefix", "`spright_ring_`",
			[]metricRef{{"spright_ring_", true}}, true},
		{"two-on-a-line", "`spright_failures_total` and `spright_prewarm_*`",
			[]metricRef{{"spright_failures_total", false}, {"spright_prewarm_", true}}, true},
		{"not-a-metric", "`Gateway.Stats()` and spright_failures_total unquoted", nil, true},
		{"dead-name", "`spright_shm_detaches_total`",
			[]metricRef{{"spright_shm_detaches_total", false}}, false},
		{"dead-prefix", "`spright_shm_attach*`",
			[]metricRef{{"spright_shm_attach", true}}, false},
		{"one-dead-alternative", "`spright_ring_{enqueues,resizes}_total`",
			[]metricRef{{"spright_ring_enqueues_total", false}, {"spright_ring_resizes_total", false}}, false},
		{"name-not-prefix", "`spright_failures`",
			[]metricRef{{"spright_failures", false}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := docMetrics(tc.line)
			if len(got) != len(tc.want) {
				t.Fatalf("docMetrics(%q) = %v, want %v", tc.line, got, tc.want)
			}
			live := true
			for i, ref := range got {
				if ref != tc.want[i] {
					t.Fatalf("docMetrics(%q) = %v, want %v", tc.line, got, tc.want)
				}
				live = live && namedByLiteral(ref.name, ref.prefix, literals)
			}
			if live != tc.live {
				t.Fatalf("%q: every name live = %v, want %v", tc.line, live, tc.live)
			}
		})
	}
}

// alternatives expands a metric name's {a,b} groups into every name it
// stands for.
func alternatives(name string) []string {
	open := strings.IndexByte(name, '{')
	if open < 0 {
		return []string{name}
	}
	end := open + strings.IndexByte(name[open:], '}')
	var out []string
	for _, alt := range strings.Split(name[open+1:end], ",") {
		out = append(out, alternatives(name[:open]+alt+name[end+1:])...)
	}
	return out
}

// namedByLiteral reports whether some literal is name, or with prefix set
// starts with it.
func namedByLiteral(name string, prefix bool, literals map[string]bool) bool {
	if !prefix {
		return literals[name]
	}
	for lit := range literals {
		if strings.HasPrefix(lit, name) {
			return true
		}
	}
	return false
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// moduleNames parses every Go file of the repository but the fixtures under
// testdata and collects the names it declares — packages, funcs, methods,
// types, fields, parameters, consts and vars — and the string literals of its
// non-test files. A name bound by := is a function's private detail, not
// something the docs should cite.
func moduleNames(t *testing.T) (names, literals map[string]bool) {
	t.Helper()
	names, literals = make(map[string]bool), make(map[string]bool)
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
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
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
		test := strings.HasSuffix(path, "_test.go")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind != token.STRING || test {
					break
				}
				if s, err := strconv.Unquote(n.Value); err == nil {
					literals[s] = true
				}
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
	return names, literals
}
