// Package orchestrator provides SPRIGHT's control plane (Fig. 3): the
// cluster-wide SPRIGHT controller cooperating with per-node kubelets to
// create chains (the Fig. 6 startup flow), a chain-level placement engine
// (functions of one chain are co-located on a node, §3.8), a cluster-wide
// ingress gateway routing external requests to per-chain SPRIGHT gateways,
// health probing, and a metrics-driven autoscaler hook.
package orchestrator

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/ebpf"
	"github.com/spright-go/spright/internal/obs"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/transport"
)

// WorkerNode is one node's infrastructure: its eBPF kernel, its shared
// memory manager (the DPDK primary process), its kubelet and its mesh.
type WorkerNode struct {
	Name    string
	Kernel  *ebpf.Kernel
	ShmMgr  *shm.Manager
	Kubelet *Kubelet

	// Mesh is the node's inter-node transport endpoint (nil until
	// Cluster.StartMesh). placed maps base chain name → this node's
	// variant of a placed chain, the frame handler's dispatch table.
	Mesh *transport.Mesh

	mu     sync.Mutex
	chains map[string]*Deployment
	placed map[string]*Deployment
}

// NewWorkerNode provisions a node.
func NewWorkerNode(name string) *WorkerNode {
	n := &WorkerNode{
		Name:   name,
		Kernel: ebpf.NewKernel(),
		ShmMgr: shm.NewManager(),
		chains: make(map[string]*Deployment),
		placed: make(map[string]*Deployment),
	}
	n.Kubelet = &Kubelet{node: n}
	return n
}

// Chains returns the number of chains deployed on the node.
func (n *WorkerNode) Chains() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.chains)
}

// Deployment is one deployed chain: where it runs and its dataplane.
type Deployment struct {
	Node    *WorkerNode
	Chain   *core.Chain
	Gateway *core.Gateway

	unobserve func()      // drops the chain's obs registrations (may be nil)
	ctl       *Controller // whose table DeployChain entered it in (nil otherwise)

	asMu        sync.Mutex
	autoscaler  *Autoscaler
	unobserveAS func()

	// sloMon is the chain's sliding-window SLO monitor (set by
	// observeDeployment); watchdog is the breach detector layered on top of
	// it (nil until EnableSLOWatchdog). Both are ticked by the gateway's
	// metrics agent, so neither owns a goroutine.
	sloMu    sync.Mutex
	sloMon   *obs.SLOMonitor
	watchdog *SLOWatchdog
}

// Close tears the deployment down. It leaves the node's and the controller's
// tables first, so the ingress routes nothing more to it, and once Close
// returns its name can be deployed again. Only the first Close tears anything
// down — the one that finds the node's table still mapping the name to the
// deployment — so closing it again after the name was redeployed leaves the
// new deployment alone.
func (d *Deployment) Close() {
	name := d.Chain.Name()
	d.Node.mu.Lock()
	mine := d.Node.chains[name] == d
	if mine {
		delete(d.Node.chains, name)
	}
	d.Node.mu.Unlock()
	if !mine {
		return
	}
	if ctl := d.ctl; ctl != nil {
		ctl.mu.Lock()
		if ctl.deploys[name] == d {
			delete(ctl.deploys, name)
		}
		ctl.mu.Unlock()
	}
	// The watchdog goes before the monitor it reads; both go before the
	// gateway whose agent ticks them.
	d.sloMu.Lock()
	wd := d.watchdog
	d.watchdog = nil
	d.sloMu.Unlock()
	if wd != nil {
		wd.close()
	}
	// The control plane goes first: no scale actions may race teardown.
	d.asMu.Lock()
	as, unobsAS := d.autoscaler, d.unobserveAS
	d.autoscaler, d.unobserveAS = nil, nil
	d.asMu.Unlock()
	if as != nil {
		as.Close()
	}
	if unobsAS != nil {
		unobsAS()
	}
	if d.unobserve != nil {
		d.unobserve()
	}
	d.Gateway.Close()
	d.Chain.Close()
	_ = d.Node.ShmMgr.Release(name)
}

// Kubelet is the per-node pod manager the controller instructs (§3.1). It
// performs the node-local steps of the Fig. 6 startup flow.
type Kubelet struct {
	node *WorkerNode
}

// CreateChain executes the node-local startup flow of Fig. 6:
// ① a dedicated shared-memory manager/pool for the chain, ② pool
// initialization, ③ a dedicated SPRIGHT gateway, ④ function startup with
// SPROXY attachment and filter-rule configuration. Steps ①②④ happen inside
// core.NewChain (pool creation, instance startup, filter configuration);
// step ③ is the gateway construction.
func (k *Kubelet) CreateChain(spec core.ChainSpec) (*Deployment, error) {
	c, err := core.NewChain(k.node.Kernel, k.node.ShmMgr, spec)
	if err != nil {
		return nil, err
	}
	g, err := core.NewGateway(c)
	if err != nil {
		c.Close()
		_ = k.node.ShmMgr.Release(spec.Name)
		return nil, err
	}
	d := &Deployment{Node: k.node, Chain: c, Gateway: g}
	k.node.mu.Lock()
	k.node.chains[spec.Name] = d
	k.node.mu.Unlock()
	return d, nil
}

// ProbeResult is one instance's health state.
type ProbeResult struct {
	Function    string
	Instance    uint32
	Crashes     uint64
	CircuitOpen bool // ejected from routing: the instance is unhealthy
}

// Probe performs the §3.3 health checks: SPRIGHT dispenses with the queue
// proxy's probing and instead asks each function's socket directly (the
// "minimal change of opening an additional socket" — here the descriptor
// socket doubles as the probe target). An instance whose circuit breaker
// is open — the dataplane has stopped routing to it — is unhealthy.
func (k *Kubelet) Probe(d *Deployment) []ProbeResult {
	var out []ProbeResult
	for _, in := range d.Chain.Instances() {
		out = append(out, ProbeResult{
			Function:    in.Function(),
			Instance:    in.ID(),
			Crashes:     in.Crashes(),
			CircuitOpen: in.CircuitOpen(),
		})
	}
	return out
}

// Scheduler places chains onto nodes. SPRIGHT's deployment constraint
// (§3.8) is chain-granular: every function of a chain lands on one node.
type Scheduler struct {
	mu    sync.Mutex
	nodes []*WorkerNode
}

// ErrNoNodes is returned when the cluster has no workers.
var ErrNoNodes = errors.New("orchestrator: no worker nodes")

// Place picks the least-loaded node (fewest chains) for a new chain.
func (s *Scheduler) Place() (*WorkerNode, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.nodes) == 0 {
		return nil, ErrNoNodes
	}
	best := s.nodes[0]
	for _, n := range s.nodes[1:] {
		if n.Chains() < best.Chains() {
			best = n
		}
	}
	return best, nil
}

// Controller is the cluster-wide SPRIGHT controller (Fig. 3): it receives
// chain creation requests, drives placement, and instructs the selected
// node's kubelet.
type Controller struct {
	sched *Scheduler
	obsv  *obs.Observability

	mu      sync.Mutex
	deploys map[string]*Deployment
}

// Cluster bundles the control plane with its worker nodes.
type Cluster struct {
	Controller *Controller
	Ingress    *IngressGateway
	nodes      []*WorkerNode
	obsv       *obs.Observability
}

// NewCluster provisions n worker nodes with a controller, a cluster-wide
// ingress gateway, and the observability layer every deployed chain
// registers its collectors into.
func NewCluster(n int) *Cluster {
	if n <= 0 {
		n = 1
	}
	nodes := make([]*WorkerNode, n)
	for i := range nodes {
		nodes[i] = NewWorkerNode(fmt.Sprintf("worker-%d", i+1))
	}
	o := obs.New()
	// Each node's eBPF engine counters are scraped for the node's lifetime
	// (nodes are never removed from a cluster).
	for _, wn := range nodes {
		wn := wn
		o.Registry().Register("node:"+wn.Name, func() []obs.Family { return collectNode(wn) })
	}
	ctrl := &Controller{
		sched:   &Scheduler{nodes: nodes},
		obsv:    o,
		deploys: make(map[string]*Deployment),
	}
	return &Cluster{
		Controller: ctrl,
		Ingress:    &IngressGateway{controller: ctrl},
		nodes:      nodes,
		obsv:       o,
	}
}

// Nodes returns the cluster's worker nodes.
func (c *Cluster) Nodes() []*WorkerNode { return c.nodes }

// Observability returns the cluster's metrics/health/trace layer — the
// registry behind the admin endpoints (/metrics, /healthz, /traces).
func (c *Cluster) Observability() *obs.Observability { return c.obsv }

// DeployChain places and creates a chain, returning its deployment.
func (ctl *Controller) DeployChain(spec core.ChainSpec) (*Deployment, error) {
	ctl.mu.Lock()
	if _, dup := ctl.deploys[spec.Name]; dup {
		ctl.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: chain %q already deployed", spec.Name)
	}
	ctl.mu.Unlock()

	node, err := ctl.sched.Place()
	if err != nil {
		return nil, err
	}
	d, err := node.Kubelet.CreateChain(spec)
	if err != nil {
		return nil, err
	}
	d.unobserve = observeDeployment(ctl.obsv, d)
	d.ctl = ctl
	ctl.mu.Lock()
	ctl.deploys[spec.Name] = d
	ctl.mu.Unlock()
	return d, nil
}

// EnableAutoscaling attaches the autoscaling control plane to a deployed
// chain: an EWMA controller evaluating every cfg.Interval (kicked awake
// immediately when a request parks on a zero-replica function), an
// optional prewarm pool, and an obs collector exporting the controller's
// state. Returns the running autoscaler; call Deployment.Close (or
// Autoscaler.Close) to stop it.
func (ctl *Controller) EnableAutoscaling(name string, cfg AutoscalerConfig) (*Autoscaler, error) {
	d, ok := ctl.Deployment(name)
	if !ok {
		return nil, fmt.Errorf("orchestrator: chain %q not deployed", name)
	}
	d.asMu.Lock()
	defer d.asMu.Unlock()
	if d.autoscaler != nil {
		return nil, fmt.Errorf("orchestrator: chain %q already autoscaled", name)
	}
	as := NewAutoscalerWithConfig(d, cfg)
	if cfg.Prewarm > 0 {
		as.prewarm = NewPrewarmPool(d, cfg.Prewarm)
		as.prewarm.Fill()
	}
	// A parked request kicks the controller awake: resume latency is the
	// scheduler's, not the evaluation interval's.
	d.Gateway.SetParkNotifier(func(string) { as.Kick() })
	if ctl.obsv != nil {
		key := "autoscaler:" + name
		o := ctl.obsv
		o.Registry().Register(key, func() []obs.Family { return collectAutoscaler(d, as) })
		d.unobserveAS = func() { o.Registry().Unregister(key) }
		// Bridge the decision ring onto the flight recorder: every scale
		// action also lands in the chain's event journal (Value packs
		// from<<32|to replicas).
		fr := o.Flight()
		as.SetDecisionSink(func(sd ScaleDecision) {
			fr.Emit(name, obs.EventScale, sd.Function, sd.Reason,
				int64(sd.From)<<32|int64(sd.To))
		})
	}
	as.Start(as.cfg.Interval)
	d.autoscaler = as
	return as, nil
}

// Deployment looks a chain up by name.
func (ctl *Controller) Deployment(name string) (*Deployment, bool) {
	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	d, ok := ctl.deploys[name]
	return d, ok
}

// IngressGateway is the cluster-wide ingress (Fig. 3) distributing
// external requests to the SPRIGHT gateways of different chains. Requests
// address a chain by the first path segment: /<chain>/rest-of-path.
type IngressGateway struct {
	controller *Controller
}

// ServeHTTP implements http.Handler.
func (ig *IngressGateway) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	chain, rest, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	d, ok := ig.controller.Deployment(chain)
	if !ok {
		http.NotFound(w, r)
		return
	}
	r2 := r.Clone(r.Context())
	r2.URL.Path = "/" + rest
	d.Gateway.ServeHTTP(w, r2)
}
