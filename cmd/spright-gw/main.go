// Command spright-gw runs a real SPRIGHT node: it deploys a demo function
// chain (an uppercase echo chain or the full online boutique) on the
// in-process dataplane and serves it over HTTP through the cluster ingress
// gateway.
//
//	spright-gw -listen :8080 -app boutique
//	curl -d 'hello' http://localhost:8080/boutique/   (chain 0, GET "/")
//
// With -nodes N the cluster simulates N worker nodes joined by the
// loopback mesh transport, and -place pins functions to nodes:
//
//	spright-gw -app echo -nodes 2 -place upper=worker-1,exclaim=worker-2
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/spright-go/spright/internal/boutique"
	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/orchestrator"
	"github.com/spright-go/spright/internal/transport"
)

func main() {
	listen := flag.String("listen", ":8080", "HTTP listen address")
	app := flag.String("app", "echo", "application to deploy: echo or boutique")
	mode := flag.String("mode", "event", "descriptor transport: event (S-SPRIGHT) or polling (D-SPRIGHT)")
	traceFile := flag.String("trace-file", "", "append completed traces to this file as OTLP JSON lines")
	autoscale := flag.Bool("autoscale", false, "enable the autoscaling control plane (EWMA, hysteresis, scale-to-zero)")
	asTarget := flag.Int("autoscale-target", 32, "concurrency target per instance")
	minReplicas := flag.Int("min-replicas", 0, "replica floor per function (0 allows scale-to-zero)")
	maxReplicas := flag.Int("max-replicas", 8, "replica ceiling per function")
	scaleToZeroAfter := flag.Duration("scale-to-zero-after", 30*time.Second, "retire an idle chain to zero replicas after this long (0 disables)")
	prewarm := flag.Int("prewarm", 1, "prewarmed instances to hold per function for fast scale-from-zero (0 disables)")
	parkCapacity := flag.Int("park-capacity", 256, "requests parked at the gateway while a zero-replica function resumes (0 disables parking)")
	parkTimeout := flag.Duration("park-timeout", time.Second, "longest a parked request waits for an instance before being shed")
	maxPending := flag.Int("max-pending", 0, "admission ceiling on in-flight requests; beyond it requests shed with Retry-After (0 = unlimited)")
	nodes := flag.Int("nodes", 1, "simulated worker nodes; >1 starts the loopback mesh transport between them")
	place := flag.String("place", "", "comma-separated fn=node placements, e.g. upper=worker-1,exclaim=worker-2")
	sloP99 := flag.Duration("slo-p99", 0, "SLO watchdog: window p99 latency target; a breach captures a diagnostic bundle (0 disables the watchdog)")
	sloWindow := flag.Duration("slo-window", 10*time.Second, "SLO watchdog: sliding evaluation window")
	sloMaxErrRate := flag.Float64("slo-max-error-rate", 0, "SLO watchdog: window error-rate ceiling, e.g. 0.01 (0 disables the error objective)")
	bundleDir := flag.String("bundle-dir", "", "directory for breach diagnostic bundles, served at /debug/bundle/ (empty disables capture)")
	flag.Parse()

	if *nodes < 1 {
		fmt.Fprintln(os.Stderr, "-nodes must be >= 1")
		os.Exit(2)
	}

	m := core.ModeEvent
	if *mode == "polling" {
		m = core.ModePolling
	}

	cluster := orchestrator.NewCluster(*nodes)
	var spec core.ChainSpec
	switch *app {
	case "echo":
		spec = core.ChainSpec{
			Name: "echo",
			Mode: m,
			Functions: []core.FunctionSpec{
				{Name: "upper", Handler: func(ctx *core.Ctx) error {
					b := ctx.Payload()
					for i := range b {
						if b[i] >= 'a' && b[i] <= 'z' {
							b[i] -= 32
						}
					}
					return nil
				}},
				{Name: "exclaim", Handler: func(ctx *core.Ctx) error {
					return ctx.SetPayload(append(ctx.Payload(), '!'))
				}},
			},
			Routes: []core.RouteSpec{
				{From: "", To: []string{"upper"}},
				{From: "upper", To: []string{"exclaim"}},
			},
		}
	case "boutique":
		spec = boutique.Spec(boutique.SpecOptions{Mode: m})
	default:
		fmt.Fprintf(os.Stderr, "unknown app %q\n", *app)
		os.Exit(2)
	}

	if *autoscale {
		spec.Admission = core.AdmissionPolicy{
			MaxPending:   *maxPending,
			ParkCapacity: *parkCapacity,
			ParkTimeout:  *parkTimeout,
		}
	}

	if *place != "" {
		byFn := make(map[string]int, len(spec.Functions))
		for i := range spec.Functions {
			byFn[spec.Functions[i].Name] = i
		}
		for _, kv := range strings.Split(*place, ",") {
			fn, node, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || fn == "" || node == "" {
				fmt.Fprintf(os.Stderr, "bad -place entry %q (want fn=node)\n", kv)
				os.Exit(2)
			}
			i, known := byFn[fn]
			if !known {
				fmt.Fprintf(os.Stderr, "-place names unknown function %q\n", fn)
				os.Exit(2)
			}
			spec.Functions[i].Node = node
		}
	}

	var (
		dep *orchestrator.Deployment
		pd  *orchestrator.PlacedDeployment
		err error
	)
	if *nodes > 1 || *place != "" {
		if err = cluster.StartMesh(transport.Config{}); err != nil {
			log.Fatalf("mesh: %v", err)
		}
		pd, err = cluster.Controller.DeployPlacedChain(spec)
		if err != nil {
			log.Fatalf("deploy: %v", err)
		}
		dep = pd.Head()
		for fn, node := range pd.Placement() {
			log.Printf("placed %s on %s", fn, node)
		}
	} else {
		dep, err = cluster.Controller.DeployChain(spec)
		if err != nil {
			log.Fatalf("deploy: %v", err)
		}
	}
	log.Printf("chain %q deployed (%s) with %d function instances",
		spec.Name, m, len(dep.Chain.Instances()))

	if *autoscale {
		asCfg := orchestrator.AutoscalerConfig{
			Target:           *asTarget,
			MinReplicas:      *minReplicas,
			MaxReplicas:      *maxReplicas,
			ScaleToZeroAfter: *scaleToZeroAfter,
			Prewarm:          *prewarm,
		}
		var as *orchestrator.Autoscaler
		if pd != nil {
			as, err = pd.EnableAutoscaling(asCfg)
		} else {
			as, err = cluster.Controller.EnableAutoscaling(spec.Name, asCfg)
		}
		if err != nil {
			log.Fatalf("autoscale: %v", err)
		}
		defer as.Close()
		log.Printf("autoscaling enabled: target=%d replicas=[%d,%d] scale-to-zero-after=%s prewarm=%d park=%d/%s max-pending=%d",
			*asTarget, *minReplicas, *maxReplicas, *scaleToZeroAfter, *prewarm, *parkCapacity, *parkTimeout, *maxPending)
	}

	if *bundleDir != "" {
		cluster.Observability().SetBundleDir(*bundleDir)
	}
	if *sloP99 > 0 || *sloMaxErrRate > 0 {
		wd, err := cluster.Controller.EnableSLOWatchdog(spec.Name, orchestrator.SLOPolicy{
			TargetP99:    *sloP99,
			MaxErrorRate: *sloMaxErrRate,
			Window:       *sloWindow,
			BundleDir:    *bundleDir,
		})
		if err != nil {
			log.Fatalf("slo watchdog: %v", err)
		}
		log.Printf("SLO watchdog enabled: p99<=%s error-rate<=%.4f window=%s bundles=%q (cooldown %s)",
			*sloP99, *sloMaxErrRate, *sloWindow, *bundleDir, wd.Policy().BundleCooldown)
	}

	mux := http.NewServeMux()
	mux.Handle("/", boutiqueAware(cluster.Ingress, *app, spec.Name))
	// Admin surface: /metrics (Prometheus exposition), /healthz
	// (circuit-breaker and pool-leak aware), /traces (retained distributed
	// traces as OTLP/HTTP JSON, ?limit=N to bound) and
	// /debug/pprof/ — all backed by the cluster's observability layer, into
	// which every deployed chain registers.
	cluster.Observability().Attach(mux)
	if *traceFile != "" {
		stopExp, err := cluster.Observability().StartFileExporter(*traceFile)
		if err != nil {
			log.Fatalf("trace exporter: %v", err)
		}
		defer stopExp()
		log.Printf("exporting traces to %s (OTLP JSON lines)", *traceFile)
	}
	log.Printf("serving on %s (POST /%s/<path>, GET /metrics /healthz /traces /events /slo /debug/bundle/ /debug/pprof/)",
		*listen, spec.Name)
	log.Fatal(http.ListenAndServe(*listen, mux))
}

// boutiqueAware wraps the ingress: for the boutique app it translates a
// ?chain=N query into the in-payload {chain, step} header the functions
// expect.
func boutiqueAware(ingress http.Handler, app, chainName string) http.Handler {
	if app != "boutique" {
		return ingress
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ci := 0
		if q := r.URL.Query().Get("chain"); q != "" {
			if v, err := strconv.Atoi(q); err == nil && v >= 0 && v < 6 {
				ci = v
			}
		}
		// Stream the client's body behind the header, so the gateway's body
		// cap applies to it as it arrives.
		hdr := boutique.EncodeRequest(ci, nil)
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/" + chainName + "/"
		r2.Body = io.NopCloser(io.MultiReader(bytes.NewReader(hdr), r.Body))
		r2.ContentLength = -1
		if r.ContentLength >= 0 {
			r2.ContentLength = int64(len(hdr)) + r.ContentLength
		}
		ingress.ServeHTTP(w, r2)
	})
}
