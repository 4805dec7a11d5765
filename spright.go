// Package spright is a Go implementation of SPRIGHT (SIGCOMM '22):
// a high-performance, event-driven serverless dataplane that moves
// function-chain traffic through shared memory instead of the kernel
// network stack.
//
// A chain's messages are 16-byte packet descriptors referencing payloads
// in a private shared-memory pool; an eBPF-style SK_MSG program (SPROXY,
// executed by this repository's verifier-checked VM) redirects descriptors
// between function sockets via a sockmap, enforcing the chain's security
// domain and collecting L7 metrics in kernel maps along the way. Direct
// Function Routing lets functions invoke each other without bouncing
// through the gateway, and protocol adaptation (HTTP, MQTT, CoAP,
// CloudEvents) runs as event-driven hooks inside the gateway.
//
// Quickstart:
//
//	cluster := spright.NewCluster(1)
//	dep, err := cluster.Controller.DeployChain(spright.ChainSpec{
//	    Name: "hello",
//	    Functions: []spright.FunctionSpec{
//	        {Name: "greet", Handler: func(ctx *spright.Ctx) error {
//	            return ctx.SetPayload(append([]byte("hello, "), ctx.Payload()...))
//	        }},
//	    },
//	    Routes: []spright.RouteSpec{{From: "", To: []string{"greet"}}},
//	})
//	// dep.Gateway.Invoke(...) or http.ListenAndServe(addr, dep.Gateway)
//
// The paper's evaluation (Tables 1–2, Figs. 2–12) regenerates via
// cmd/spright-bench; see DESIGN.md and EXPERIMENTS.md.
package spright

import (
	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/fault"
	"github.com/spright-go/spright/internal/obs"
	"github.com/spright-go/spright/internal/orchestrator"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/shm/objstore"
	"github.com/spright-go/spright/internal/transport"
)

// Core dataplane types, re-exported as the public API surface.
type (
	// ChainSpec declares a function chain: its functions, its DFR
	// routing table, its transport mode and its pool geometry.
	ChainSpec = core.ChainSpec
	// FunctionSpec declares one function of a chain.
	FunctionSpec = core.FunctionSpec
	// RouteSpec is one Direct-Function-Routing entry; From "" routes
	// the gateway ingress to the chain's head function.
	RouteSpec = core.RouteSpec
	// Handler is a user function: run-to-completion, asynchronous,
	// mutating its message in place (zero-copy).
	Handler = core.Handler
	// Ctx is one invocation's view of the in-flight message.
	Ctx = core.Ctx
	// Mode selects the descriptor transport (event-driven vs polling).
	Mode = core.Mode
	// Chain is a deployed function chain.
	Chain = core.Chain
	// Gateway is a chain's SPRIGHT gateway; it implements http.Handler.
	Gateway = core.Gateway
	// Instance is one running function pod.
	Instance = core.Instance
	// RetryPolicy bounds transient-error retries on descriptor sends.
	RetryPolicy = core.RetryPolicy
	// HealthPolicy configures per-instance circuit breaking.
	HealthPolicy = core.HealthPolicy
	// GatewayStats snapshots a chain's counters: the gateway's
	// invocations and the chain's failure/recovery activity.
	GatewayStats = core.GatewayStats

	// FaultInjector is a deterministic, seedable fault injector wired
	// into a chain via ChainSpec.Injector (testing/chaos only).
	FaultInjector = fault.Injector
	// FaultRule scopes one injected fault (op, function, hop,
	// probability, count bound).
	FaultRule = fault.Rule
	// FaultOp enumerates injectable fault kinds.
	FaultOp = fault.Op

	// Adapter translates an application protocol to chain messages.
	Adapter = core.Adapter
	// MQTTAdapter handles MQTT CONNECT/PUBLISH at the gateway.
	MQTTAdapter = core.MQTTAdapter
	// CoAPAdapter handles CoAP requests at the gateway.
	CoAPAdapter = core.CoAPAdapter
	// CloudEventAdapter handles CloudEvents-structured JSON.
	CloudEventAdapter = core.CloudEventAdapter
	// HTTPAdapter handles raw HTTP/1.1 bytes (preloaded on gateways).
	HTTPAdapter = core.HTTPAdapter

	// Cluster is the control plane: controller, scheduler, ingress.
	Cluster = orchestrator.Cluster
	// Deployment is one placed chain with its gateway and node.
	Deployment = orchestrator.Deployment
	// WorkerNode is one node's kernels and shared-memory manager.
	WorkerNode = orchestrator.WorkerNode
	// Autoscaler scales a deployment's functions on concurrency: EWMA
	// demand signals, hysteresis, scale-to-zero and self-healing.
	Autoscaler = orchestrator.Autoscaler
	// AutoscalerConfig tunes the autoscaler (smoothing, hysteresis,
	// cooldowns, scale-to-zero, prewarm). The zero value of each knob
	// reproduces the legacy instantaneous controller.
	AutoscalerConfig = orchestrator.AutoscalerConfig
	// ScaleDecision is one recorded autoscaling action.
	ScaleDecision = orchestrator.ScaleDecision
	// PrewarmPool holds pre-wired instances for fast scale-from-zero.
	PrewarmPool = orchestrator.PrewarmPool
	// AdmissionPolicy configures gateway overload shedding and
	// scale-from-zero request parking (ChainSpec.Admission).
	AdmissionPolicy = core.AdmissionPolicy
	// OverloadError is the typed shed error carrying reason and
	// retry-after; errors.Is(err, ErrOverload) matches it.
	OverloadError = core.OverloadError

	// Observability is a cluster's metrics/health/trace layer: the
	// Prometheus registry every deployed chain registers into and the
	// admin endpoints (/metrics, /healthz, /traces, /debug/pprof/) behind
	// Cluster.Observability(). Mount it with Attach(mux) or AdminMux().
	Observability = obs.Observability
	// Tracer is a chain's sampled distributed tracer
	// (ChainSpec.TraceSampleEvery).
	Tracer = core.Tracer
	// Trace is one recorded request: a span tree through a chain.
	Trace = core.Trace
	// Span is one stage of a traced request (queue wait, redirect,
	// handler, drain, …).
	Span = core.Span
	// TraceID is a 128-bit distributed trace identity.
	TraceID = core.TraceID
	// TraceContext is the trace identity a request carries through the
	// shared-memory path (and across chains via WithTraceContext).
	TraceContext = shm.TraceContext

	// ObjectPolicy configures a chain's ephemeral shared-memory object
	// store: the resident budget, the per-object cap and the spill
	// directory (ChainSpec.Objects).
	ObjectPolicy = core.ObjectPolicy
	// ObjectStore is a chain's keyed, ref-counted large-payload tier
	// layered on the shared-memory pool (Chain.ObjectStore).
	ObjectStore = objstore.Store
	// ObjectHandle is a compact (8-byte) generation-checked reference to
	// a stored object; it rides descriptor trace headroom between hops.
	ObjectHandle = objstore.Handle
	// ObjectWriter streams a multi-slab object into the store
	// (Ctx.CreateObject / ObjectStore.Create).
	ObjectWriter = objstore.Writer
	// Object is an open zero-copy reader over a stored object's slabs.
	Object = objstore.Object
	// ObjectStoreStats snapshots an object store's counters.
	ObjectStoreStats = objstore.Stats

	// PlacedDeployment is one chain spread across worker nodes by
	// FunctionSpec.Node: intra-node hops stay on the zero-copy
	// shared-memory path, cross-node hops ride the batched mesh
	// transport (Cluster.StartMesh, Controller.DeployPlacedChain).
	PlacedDeployment = orchestrator.PlacedDeployment
	// MeshConfig tunes the inter-node transport: send-ring capacity,
	// write batching, reconnect backoff and the chaos injector. The
	// zero value picks the defaults.
	MeshConfig = transport.Config
	// Mesh is one node's inter-node transport endpoint (stats, peers).
	Mesh = transport.Mesh
)

// WithTraceContext attaches an upstream trace context to a context.Context
// so a Gateway.Invoke joins the caller's distributed trace; handlers get
// their context from Ctx.TraceContext.
var WithTraceContext = core.WithTraceContext

// Transport modes.
const (
	// ModeEvent is S-SPRIGHT: eBPF SK_MSG + sockmap descriptor delivery,
	// zero CPU when idle (the paper's recommended configuration).
	ModeEvent = core.ModeEvent
	// ModePolling is D-SPRIGHT: DPDK-style busy-polled rings — lower
	// delivery latency, a dedicated core per consumer.
	ModePolling = core.ModePolling
)

// NoReply is the caller sentinel for fire-and-forget invocations.
const NoReply = core.NoReply

// Injectable fault operations (see FaultRule.Op).
const (
	// FaultPanic makes the target handler panic (tests panic isolation).
	FaultPanic = fault.OpPanic
	// FaultError makes the target handler return ErrInjected.
	FaultError = fault.OpError
	// FaultDelay stalls the target handler by the rule's Delay.
	FaultDelay = fault.OpDelay
	// FaultDrop silently discards the message at the target handler.
	FaultDrop = fault.OpDrop
	// FaultQueueFull fails descriptor sends on the rule's hop as if the
	// destination socket queue were full (tests the retry path).
	FaultQueueFull = fault.OpQueueFull
)

// Re-exported sentinel errors for errors.Is checks.
var (
	// ErrBackpressure signals pool exhaustion: the chain is at capacity.
	ErrBackpressure = core.ErrBackpressure
	// ErrFiltered signals a descriptor rejected by the security domain.
	ErrFiltered = core.ErrFiltered
	// ErrHandlerPanic wraps a handler panic absorbed by panic isolation.
	ErrHandlerPanic = core.ErrHandlerPanic
	// ErrAllUnhealthy signals every instance of a hop is circuit-broken.
	ErrAllUnhealthy = core.ErrAllUnhealthy
	// ErrInjected is the error returned by FaultError injections.
	ErrInjected = fault.ErrInjected
	// ErrShortBuffer signals Gateway.InvokeInto's dst was too small.
	ErrShortBuffer = core.ErrShortBuffer
	// ErrOverload signals a request deliberately shed by admission
	// control (overload, full park queue, or park timeout).
	ErrOverload = core.ErrOverload
	// ErrPayloadTooLarge signals a payload over the pool buffer size with
	// no object tier available, or over the chain's per-object cap. The
	// gateway maps it to HTTP 413.
	ErrPayloadTooLarge = shm.ErrPayloadTooLarge
	// ErrObjectsDisabled signals Ctx object APIs on a chain whose spec
	// set Objects.Disable.
	ErrObjectsDisabled = core.ErrObjectsDisabled
)

// NewFaultInjector builds a deterministic injector from a seed; add rules
// with Add and wire it into a chain via ChainSpec.Injector.
func NewFaultInjector(seed uint64) *FaultInjector { return fault.New(seed) }

// NewCluster provisions a cluster with n worker nodes, a controller, a
// chain-level scheduler and a cluster-wide ingress gateway.
func NewCluster(n int) *Cluster { return orchestrator.NewCluster(n) }

// NewAutoscaler builds a concurrency-target autoscaler for a deployment.
func NewAutoscaler(dep *Deployment, target int) *Autoscaler {
	return orchestrator.NewAutoscaler(dep, target)
}

// NewAutoscalerWithConfig builds an autoscaler from an explicit config —
// the full control plane: EWMA smoothing, hysteresis, cooldowns,
// scale-to-zero and prewarming. Prefer Controller.EnableAutoscaling,
// which also wires the gateway's park notifier and the obs collector.
func NewAutoscalerWithConfig(dep *Deployment, cfg AutoscalerConfig) *Autoscaler {
	return orchestrator.NewAutoscalerWithConfig(dep, cfg)
}
