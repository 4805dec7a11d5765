package obs

// Diagnostic bundles: when the SLO watchdog trips, the evidence — the
// flight events and tail traces around the breach, the full stats
// snapshot, and process profiles — is written to disk *at breach time*,
// before the bounded rings evict it. A bundle is one directory under the
// configured bundle dir, served read-only at /debug/bundle/.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// BundleSpec describes one diagnostic bundle capture.
type BundleSpec struct {
	// Dir is the parent directory; the bundle is written to Dir/ID/.
	Dir string
	// ID names the bundle (e.g. "<chain>-<unixnano>").
	ID string
	// Meta is marshaled to meta.json: the why (chain, breach kind,
	// measured vs target, timestamps).
	Meta any
	// Events (events.json) are the flight events surrounding the breach.
	Events []Event
	// Traces (traces.json, one OTLP/HTTP JSON document) are the retained
	// traces, trace IDs included.
	Traces []TraceData
	// Stats (stats.json) is the full gateway/chain stats snapshot.
	Stats any
	// SLO (slo.json) is the window report that tripped the watchdog.
	SLO any
	// CPUProfile, when > 0, samples a CPU profile for that long into
	// cpu.pprof (skipped if another CPU profile is already running).
	CPUProfile time.Duration
}

// cpuProfileBusy serializes CPU profiling: the runtime supports one
// profile at a time process-wide, and a watchdog may trip on several
// chains at once.
var cpuProfileBusy atomic.Bool

// WriteBundle captures spec into Dir/ID, returning the bundle directory.
// Profile failures are recorded in profile_errors.txt rather than failing
// the bundle: partial evidence beats none.
func WriteBundle(spec BundleSpec) (string, error) {
	if spec.Dir == "" {
		return "", fmt.Errorf("obs: bundle dir not configured")
	}
	dir := filepath.Join(spec.Dir, spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var profErrs []string
	write := func(name string, b []byte, err error) {
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644)
		}
		if err != nil {
			profErrs = append(profErrs, fmt.Sprintf("%s: %v", name, err))
		}
	}
	writeJSON := func(name string, v any) {
		if v == nil {
			return
		}
		b, err := json.MarshalIndent(v, "", "  ")
		write(name, b, err)
	}
	writeJSON("meta.json", spec.Meta)
	if spec.Events != nil {
		writeJSON("events.json", spec.Events)
	}
	traces, err := OTLPJSON(spec.Traces)
	write("traces.json", traces, err)
	writeJSON("stats.json", spec.Stats)
	writeJSON("slo.json", spec.SLO)

	// Goroutine dump (debug=2: full stacks, the "what was everyone doing"
	// view) and a heap profile.
	if f, err := os.Create(filepath.Join(dir, "goroutine.txt")); err == nil {
		if p := pprof.Lookup("goroutine"); p != nil {
			_ = p.WriteTo(f, 2)
		}
		_ = f.Close()
	} else {
		profErrs = append(profErrs, fmt.Sprintf("goroutine.txt: %v", err))
	}
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			profErrs = append(profErrs, fmt.Sprintf("heap.pprof: %v", werr))
		}
		_ = f.Close()
	} else {
		profErrs = append(profErrs, fmt.Sprintf("heap.pprof: %v", err))
	}

	if spec.CPUProfile > 0 {
		if cpuProfileBusy.CompareAndSwap(false, true) {
			if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
				if serr := pprof.StartCPUProfile(f); serr == nil {
					time.Sleep(spec.CPUProfile)
					pprof.StopCPUProfile()
				} else {
					profErrs = append(profErrs, fmt.Sprintf("cpu.pprof: %v", serr))
				}
				_ = f.Close()
			} else {
				profErrs = append(profErrs, fmt.Sprintf("cpu.pprof: %v", err))
			}
			cpuProfileBusy.Store(false)
		} else {
			profErrs = append(profErrs, "cpu.pprof: another CPU profile in progress, skipped")
		}
	}

	if len(profErrs) > 0 {
		body := ""
		for _, e := range profErrs {
			body += e + "\n"
		}
		_ = os.WriteFile(filepath.Join(dir, "profile_errors.txt"), []byte(body), 0o644)
	}
	return dir, nil
}
