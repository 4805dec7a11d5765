package spright_test

import (
	"bufio"
	"bytes"
	"os/exec"
	"strings"
	"testing"
)

// hotPathInlines are the functions of a hop that the compiler must inline,
// per package: a function worker's hop to one function is then one call frame
// in internal/core (Chain.sendOrClaim) and one in internal/ebpf
// (Kernel.RunDescriptor). Each is a common case whose cold branches live in a
// function of their own.
var hotPathInlines = map[string][]string{
	"./internal/core": {
		"(*Router).sole",         // PickInstance's sole instance with a closed breaker
		"(*Instance).claimOwn",   // claim's first stripe
		"(*Instance).release",    // the slot back; the wake is out of line
		"redirected",             // SPROXY's verdict read off the run
		"(*ringTransport).route", // D-SPRIGHT's verdict
	},
	"./internal/ebpf": {
		"(*eproxyFast).run",   // EPROXY's fast path, inlined into RunMeta
		"(*Kernel).countFast", // the run's accounting
	},
}

// TestHotPathInlines builds internal/core and internal/ebpf with the
// inliner's report (-gcflags=-m=2) and requires "can inline" for every
// function of hotPathInlines. A function that grows past the budget fails
// with the inliner's own reason, which names its cost.
func TestHotPathInlines(t *testing.T) {
	goCmd, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command to build with: ", err)
	}
	pkgs := make([]string, 0, len(hotPathInlines))
	for pkg := range hotPathInlines {
		pkgs = append(pkgs, pkg)
	}
	cmd := exec.Command(goCmd, append([]string{"build", "-gcflags=-m=2"}, pkgs...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	verdicts := inlinerVerdicts(out)
	for pkg, fns := range hotPathInlines {
		for _, fn := range fns {
			key := strings.TrimPrefix(pkg, "./") + "/" + fn
			switch v, ok := verdicts[key]; {
			case !ok:
				t.Errorf("%s: the inliner reports nothing on %s; is it declared there?", pkg, fn)
			case !strings.HasPrefix(v, "can inline"):
				t.Errorf("%s: %s", pkg, v)
			}
		}
	}
}

// inlinerVerdicts maps "dir/function" to the inliner's line on it, less the
// position: "can inline … with cost N …" or "cannot inline …: reason".
func inlinerVerdicts(out []byte) map[string]string {
	verdicts := make(map[string]string)
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		at := strings.Index(line, ": can inline ")
		if at < 0 {
			at = strings.Index(line, ": cannot inline ")
		}
		if at < 0 {
			continue
		}
		pos, verdict := line[:at], line[at+2:]
		dir := pos
		if slash := strings.LastIndexByte(pos, '/'); slash >= 0 {
			dir = pos[:slash]
		}
		name := strings.TrimPrefix(strings.TrimPrefix(verdict, "cannot inline "), "can inline ")
		if end := strings.IndexAny(name, ": "); end >= 0 {
			name = name[:end]
		}
		verdicts[dir+"/"+name] = verdict
	}
	return verdicts
}
