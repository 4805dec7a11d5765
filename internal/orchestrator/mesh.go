package orchestrator

// Multi-node D-SPRIGHT: chains whose functions are placed on different
// worker nodes. Within a node every hop stays on the unchanged zero-copy
// shm + SPROXY path; a hop whose next function lives elsewhere runs a
// transport *stub* instead — a normal chain instance whose handler encodes
// the descriptor-equivalent (caller, routing target, trace context) plus
// payload into a wire frame and queues it on the mesh's batched per-peer
// outbox. The receiving node's gateway re-materializes the payload into
// its own shm pool (Gateway.InvokeRemote) and re-enters the local dispatch
// path; the response rides back as a frame and completes the origin's
// pending request (Gateway.CompleteRemote). Trace context crosses on the
// frame, so one trace ID spans both nodes.

import (
	"fmt"
	"time"

	"github.com/spright-go/spright/internal/core"
	"github.com/spright-go/spright/internal/obs"
	"github.com/spright-go/spright/internal/shm"
	"github.com/spright-go/spright/internal/transport"
	"github.com/spright-go/spright/internal/wire"
)

// StartMesh wires every worker node into a full transport mesh: one
// listener and one batched sender per peer, each node's frame handler bound
// to its placed-chain table, and a per-node obs collector under
// "mesh:<node>". Idempotent per node.
func (c *Cluster) StartMesh(cfg transport.Config) error {
	for _, n := range c.nodes {
		if n.Mesh != nil {
			continue
		}
		m := transport.NewMesh(n.Name, cfg)
		node := n
		m.SetHandler(node.handleFrame)
		m.SetDropHandler(node.handleDrop)
		if c.obsv != nil {
			// Journal link events on the flight recorder: drops carry the
			// victim chain (the frame metadata names it), reconnects are
			// cluster-scope link facts.
			fr := c.obsv.Flight()
			nodeName := n.Name
			m.SetDropHandler(func(meta transport.FrameMeta, reason string, err error) {
				fr.Emit(meta.Chain, obs.EventMeshDrop, nodeName, reason, 1)
				node.handleDrop(meta, reason, err)
			})
			m.SetReconnectHandler(func(peer string, attempts int) {
				fr.Emit("", obs.EventMeshReconnect, nodeName+"->"+peer, "", int64(attempts))
			})
		}
		if err := m.Listen("127.0.0.1:0"); err != nil {
			return fmt.Errorf("orchestrator: mesh listen on %s: %w", n.Name, err)
		}
		n.Mesh = m
		if c.obsv != nil {
			c.obsv.Registry().Register("mesh:"+n.Name, func() []obs.Family { return collectMesh(m) })
		}
	}
	for _, a := range c.nodes {
		for _, b := range c.nodes {
			if a != b {
				a.Mesh.AddPeer(b.Name, b.Mesh.Addr())
			}
		}
	}
	return nil
}

// StopMesh shuts every node's transport endpoint down and drops the mesh
// collectors. Placed chains must be closed first.
func (c *Cluster) StopMesh() {
	for _, n := range c.nodes {
		if n.Mesh == nil {
			continue
		}
		if c.obsv != nil {
			c.obsv.Registry().Unregister("mesh:" + n.Name)
		}
		n.Mesh.Close()
		n.Mesh = nil
	}
}

// handleFrame is the node's inbound dispatch, run on the mesh's receive loop:
// requests re-enter the local gateway, responses complete the local pending
// request they answer. Nothing here outlives the call except what the
// gateway copied: a request's reply address (sender, chain, caller) rides in
// its pending entry as a core.RemoteOrigin, and whoever finishes the request
// answers through n.Respond.
func (n *WorkerNode) handleFrame(from string, f *wire.Frame) {
	n.mu.Lock()
	d := n.placed[f.Chain]
	n.mu.Unlock()
	switch f.Type {
	case wire.TypeRequest:
		noReply := f.Flags&wire.FlagNoReply != 0
		origin := core.RemoteOrigin{Node: from, Chain: f.Chain, Caller: f.Caller}
		if d == nil {
			if !noReply && from != "" {
				n.Respond(origin, nil, fmt.Errorf("node %s: chain %q not placed here", n.Name, f.Chain))
			}
			return
		}
		tc := shm.TraceContext{TraceHi: f.TraceHi, TraceLo: f.TraceLo, Span: f.TraceSpan, Flags: f.TraceFlags}
		if noReply {
			_ = d.Gateway.InvokeRemote(f.Fn, f.Topic, f.Payload, f.Obj, tc, origin, nil)
			return
		}
		// f.Payload aliases the receive buffer, which dies when this handler
		// returns; InvokeRemote copies it into the local pool before returning.
		if err := d.Gateway.InvokeRemote(f.Fn, f.Topic, f.Payload, f.Obj, tc, origin, n); err != nil {
			// Refused (overload shed, pool exhaustion, no instance): answer
			// immediately so the origin fails fast instead of waiting out
			// its deadline.
			n.Respond(origin, nil, err)
		}
	case wire.TypeResponse:
		if d == nil {
			return
		}
		var rerr error
		if f.Flags&wire.FlagError != 0 {
			rerr = fmt.Errorf("orchestrator: remote node %s: %s", from, f.Err)
		}
		d.Gateway.CompleteRemote(f.Caller, f.Payload, rerr)
	}
}

// Respond implements core.Responder: it answers the peer that forwarded a
// request here, on the goroutine that finished the request — usually the
// worker of the chain's last local function, which encodes body straight
// from the reply's pool buffer onto the peer's outbox. Mesh.Send never
// blocks (a full backlog is ErrBacklog), so it cannot wedge that worker.
// The frame lives on this stack: Send copies it while encoding.
func (n *WorkerNode) Respond(o core.RemoteOrigin, body []byte, err error) {
	mesh := n.Mesh
	if mesh == nil {
		return
	}
	rf := wire.Frame{Type: wire.TypeResponse, Caller: o.Caller, Chain: o.Chain, Payload: body}
	if err != nil {
		rf.Flags, rf.Payload, rf.Err = wire.FlagError, nil, err.Error()
	}
	if serr := mesh.Send(o.Node, &rf); serr != nil && err == nil {
		// The response itself was unsendable (e.g. a reply object larger
		// than MaxFrame). An error frame is small and always encodable —
		// deliver that so the origin fails fast instead of timing out on a
		// blackholed caller slot.
		n.Respond(o, nil, fmt.Errorf("node %s: response undeliverable: %v", n.Name, serr))
	}
}

// handleDrop attributes a frame the transport gave up on: an undeliverable
// request fails its local pending caller immediately (reason carried in the
// error) instead of leaving it to die of deadline.
func (n *WorkerNode) handleDrop(meta transport.FrameMeta, reason string, err error) {
	if meta.Type != wire.TypeRequest || meta.Caller == core.NoReply {
		return
	}
	n.mu.Lock()
	d := n.placed[meta.Chain]
	n.mu.Unlock()
	if d == nil {
		return
	}
	d.Gateway.CompleteRemote(meta.Caller, nil,
		fmt.Errorf("orchestrator: cross-node forward of %s dropped (%s): %w", meta.Fn, reason, err))
}

// stubEnv late-binds the stub handlers of one variant to their deployment
// and mesh: handlers are constructed before the chain (the spec needs them),
// but cannot run until traffic flows, by which time env is filled.
type stubEnv struct {
	dep  *Deployment
	mesh *transport.Mesh
}

// makeStub builds the transport stub for fn placed on peer: the local chain
// routes descriptors to it exactly like a real instance, and it converts
// each one into a wire frame on peer's outbox. The local buffer is
// always surrendered — Drop on success, the chain's failure path (release +
// notify) on error — so cross-node forwarding can never leak pool buffers.
func makeStub(env *stubEnv, chainName, fn, peer string) core.Handler {
	return func(ctx *core.Ctx) error {
		tc := ctx.TraceContext()
		start := time.Now()
		caller := ctx.Caller()
		f := wire.Frame{
			Type:    wire.TypeRequest,
			Caller:  caller,
			Chain:   chainName,
			Fn:      fn,
			Topic:   ctx.Topic,
			Payload: ctx.Payload(),
		}
		if caller == core.NoReply {
			f.Flags = wire.FlagNoReply
		}
		// An attached object must cross with the message — the local buffer
		// (and with it the object reference) is surrendered below, so a frame
		// without the object's bytes would silently deliver an empty body. A
		// carrier object IS the body (>BufSize admission, ReplyObject): it
		// travels as the frame payload and the remote gateway re-admits it
		// through its own large-payload path. An auxiliary object rides the
		// frame's object section and is re-materialized into the remote
		// store. Objects too big for one frame fail the caller explicitly
		// via Send's ErrFrameTooBig — never a silent truncation.
		if h := ctx.ObjectHandle(); h.Valid() {
			r, err := ctx.OpenObject()
			if err != nil {
				return fmt.Errorf("orchestrator: forward %s to %s: open attached object: %w", fn, peer, err)
			}
			obj := make([]byte, r.Size())
			if r.Size() > 0 {
				if _, err := r.ReadAt(obj, 0); err != nil {
					_ = r.Close()
					return fmt.Errorf("orchestrator: forward %s to %s: read attached object: %w", fn, peer, err)
				}
			}
			_ = r.Close()
			if ctx.ObjectIsPayload() {
				f.Payload = obj
			} else {
				f.Obj = obj
				f.Flags |= wire.FlagObject
			}
		}
		// The cross-node hop gets its own span; the remote node's request
		// span parents under it (the frame carries its ID), so the hop is
		// visible in the assembled trace as the bridge between nodes.
		if tc.Sampled() {
			if tr := env.dep.Chain.Tracer(); tr != nil {
				sid := tr.RecordSpan(caller, core.Span{
					Parent: tc.Span, Stage: core.StageXNodeForward, Function: fn,
					Instance: ctx.Instance(), Start: start, End: time.Now(),
				})
				if sid != 0 {
					tc.Span = sid
				}
			}
		}
		f.TraceHi, f.TraceLo, f.TraceSpan, f.TraceFlags = tc.TraceHi, tc.TraceLo, tc.Span, tc.Flags
		if err := env.mesh.Send(peer, &f); err != nil {
			// The chain's handler-error path releases the buffer and fails
			// the pending caller with this error.
			return fmt.Errorf("orchestrator: forward %s to %s: %w", fn, peer, err)
		}
		ctx.Drop()
		return nil
	}
}

// PlacedDeployment is one chain deployed across nodes: a per-node variant
// (real handlers for the functions placed there, transport stubs for the
// rest) plus the placement map. The head variant — the one holding the
// ingress hop — carries the chain's base name and serves Invoke traffic.
type PlacedDeployment struct {
	Name      string
	ctl       *Controller
	head      *Deployment
	placement map[string]string      // function → node name
	variants  map[string]*Deployment // node name → variant
	nodes     map[string]*WorkerNode // node name → node
}

// Head returns the head-node variant (the chain under its base name).
func (pd *PlacedDeployment) Head() *Deployment { return pd.head }

// Gateway returns the head variant's gateway — the chain's ingress.
func (pd *PlacedDeployment) Gateway() *core.Gateway { return pd.head.Gateway }

// Variant returns the named node's variant of the chain (nil if the node
// is not involved).
func (pd *PlacedDeployment) Variant(node string) *Deployment { return pd.variants[node] }

// Placement returns a copy of the function → node map.
func (pd *PlacedDeployment) Placement() map[string]string {
	out := make(map[string]string, len(pd.placement))
	for fn, nd := range pd.placement {
		out[fn] = nd
	}
	return out
}

// DeployPlacedChain deploys a chain whose FunctionSpec.Node fields place
// functions on named worker nodes ("" places on the head node). Requires
// Cluster.StartMesh first. Each involved node gets a variant chain; the
// head node's variant keeps the base name and is registered with the
// controller, so the ingress gateway and EnableAutoscaling address it as
// usual.
func (ctl *Controller) DeployPlacedChain(spec core.ChainSpec) (*PlacedDeployment, error) {
	ctl.mu.Lock()
	if _, dup := ctl.deploys[spec.Name]; dup {
		ctl.mu.Unlock()
		return nil, fmt.Errorf("orchestrator: chain %q already deployed", spec.Name)
	}
	ctl.mu.Unlock()

	nodes := ctl.sched.nodes
	if len(nodes) == 0 {
		return nil, ErrNoNodes
	}
	byName := make(map[string]*WorkerNode, len(nodes))
	for _, n := range nodes {
		byName[n.Name] = n
	}

	// Resolve the head node: the placement of the ingress function, or the
	// first worker when unplaced.
	ingressFn := ""
	for _, r := range spec.Routes {
		if r.From == "" && len(r.To) > 0 {
			ingressFn = r.To[0]
			break
		}
	}
	if ingressFn == "" {
		return nil, fmt.Errorf("orchestrator: chain %q has no ingress route", spec.Name)
	}
	headNode := nodes[0].Name
	for _, fs := range spec.Functions {
		if fs.Name == ingressFn && fs.Node != "" {
			headNode = fs.Node
		}
	}

	// Full placement: every unplaced function rides on the head node.
	placement := make(map[string]string, len(spec.Functions))
	involved := []string{headNode}
	for _, fs := range spec.Functions {
		node := fs.Node
		if node == "" {
			node = headNode
		}
		if _, ok := byName[node]; !ok {
			return nil, fmt.Errorf("orchestrator: function %q placed on unknown node %q", fs.Name, node)
		}
		if byName[node].Mesh == nil {
			return nil, fmt.Errorf("orchestrator: node %q has no mesh (call Cluster.StartMesh)", node)
		}
		placement[fs.Name] = node
		seen := false
		for _, in := range involved {
			if in == node {
				seen = true
			}
		}
		if !seen {
			involved = append(involved, node)
		}
	}

	pd := &PlacedDeployment{
		Name: spec.Name, ctl: ctl,
		placement: placement,
		variants:  make(map[string]*Deployment, len(involved)),
		nodes:     make(map[string]*WorkerNode, len(involved)),
	}
	envs := make(map[string]*stubEnv, len(involved))

	fail := func(err error) (*PlacedDeployment, error) {
		for _, d := range pd.variants {
			d.Close()
		}
		return nil, err
	}

	for _, nodeName := range involved {
		nd := byName[nodeName]
		env := &stubEnv{mesh: nd.Mesh}
		envs[nodeName] = env
		vspec := spec
		if nodeName != headNode {
			vspec.Name = spec.Name + "@" + nodeName
		}
		fns := make([]core.FunctionSpec, len(spec.Functions))
		for i, fs := range spec.Functions {
			fs.Node = placement[fs.Name]
			if fs.Node != nodeName {
				// Remote function: a single stub instance forwards to its
				// placement node.
				fs = core.FunctionSpec{
					Name: fs.Name, Node: fs.Node, Instances: 1,
					Handler: makeStub(env, spec.Name, fs.Name, fs.Node),
				}
			}
			fns[i] = fs
		}
		vspec.Functions = fns
		d, err := nd.Kubelet.CreateChain(vspec)
		if err != nil {
			return fail(fmt.Errorf("orchestrator: variant on %s: %w", nodeName, err))
		}
		env.dep = d
		// Cross-node entry points: a local function whose route
		// predecessor lives on another node is re-injected by this
		// node's gateway when the frame arrives, so the gateway needs
		// the direct dispatch edge — now and for future instances.
		for _, r := range spec.Routes {
			if r.From == "" || placement[r.From] == nodeName {
				continue
			}
			for _, to := range r.To {
				if placement[to] != nodeName {
					continue
				}
				if err := d.Chain.AllowGatewayIngress(to); err != nil {
					return fail(fmt.Errorf("orchestrator: ingress grant on %s: %w", nodeName, err))
				}
			}
		}
		d.unobserve = observeDeployment(ctl.obsv, d)
		pd.variants[nodeName] = d
		pd.nodes[nodeName] = nd
	}
	pd.head = pd.variants[headNode]

	// Expose the variants to the frame handlers only after every node's
	// stub environment is bound — no frame may find a half-built chain.
	for nodeName, d := range pd.variants {
		nd := byName[nodeName]
		nd.mu.Lock()
		nd.placed[spec.Name] = d
		nd.mu.Unlock()
	}
	ctl.mu.Lock()
	ctl.deploys[spec.Name] = pd.head
	ctl.mu.Unlock()
	return pd, nil
}

// EnableAutoscaling attaches the autoscaler to the head variant and extends
// its demand signal with the cross-node send-ring backlog: frames queued
// for a remotely-placed function count toward that function's demand, so a
// backed-up mesh link drives the same scale-up a deep local queue would.
func (pd *PlacedDeployment) EnableAutoscaling(cfg AutoscalerConfig) (*Autoscaler, error) {
	as, err := pd.ctl.EnableAutoscaling(pd.Name, cfg)
	if err != nil {
		return nil, err
	}
	headNode := pd.nodes[pd.head.Node.Name]
	as.SetRemoteBacklog(func(fn string) int {
		peer := pd.placement[fn]
		if peer == "" || peer == headNode.Name || headNode.Mesh == nil {
			return 0
		}
		return headNode.Mesh.QueuedTo(peer)
	})
	return as, nil
}

// Close tears down every variant and removes the chain from the frame
// handlers and the controller.
func (pd *PlacedDeployment) Close() {
	for nodeName, nd := range pd.nodes {
		nd.mu.Lock()
		delete(nd.placed, pd.Name)
		nd.mu.Unlock()
		_ = nodeName
	}
	pd.ctl.mu.Lock()
	if pd.ctl.deploys[pd.Name] == pd.head {
		delete(pd.ctl.deploys, pd.Name)
	}
	pd.ctl.mu.Unlock()
	for _, d := range pd.variants {
		d.Close()
	}
}

// collectMesh snapshots one node's transport counters into the
// spright_net_* families: per-peer frames/bytes sent and received, flush
// count, the batched-frames-per-write summary, send backlog depth,
// reconnects, and reason-attributed drops.
func collectMesh(m *transport.Mesh) []obs.Family {
	st := m.Stats()
	node := m.Node()

	framesSent := obs.Family{Name: "spright_net_frames_sent_total",
		Help: "Wire frames fully handed to the kernel per peer link.", Type: obs.Counter}
	bytesSent := obs.Family{Name: "spright_net_bytes_sent_total",
		Help: "Encoded frame bytes sent per peer link.", Type: obs.Counter}
	writes := obs.Family{Name: "spright_net_writes_total",
		Help: "Batched flushes per peer link, one write each.", Type: obs.Counter}
	reconnects := obs.Family{Name: "spright_net_reconnects_total",
		Help: "Times a peer link was re-dialed after a connection loss.", Type: obs.Counter}
	depth := obs.Family{Name: "spright_net_send_ring_depth",
		Help: "Frames accepted for the peer link and not yet written or dropped.", Type: obs.Gauge}
	drops := obs.Family{Name: "spright_net_drops_total",
		Help: "Frames the transport gave up on, by reason (backlog, conn_down, closed).",
		Type: obs.Counter}
	perWrite := obs.Family{Name: "spright_net_frames_per_write",
		Help: "Distribution of frames coalesced into each flush.", Type: obs.Summary}

	for _, ps := range st.Sent {
		ls := obs.L("node", node, "peer", ps.Peer)
		framesSent.Samples = append(framesSent.Samples, obs.Sample{Labels: ls, Value: float64(ps.FramesSent)})
		bytesSent.Samples = append(bytesSent.Samples, obs.Sample{Labels: ls, Value: float64(ps.BytesSent)})
		writes.Samples = append(writes.Samples, obs.Sample{Labels: ls, Value: float64(ps.Writes)})
		reconnects.Samples = append(reconnects.Samples, obs.Sample{Labels: ls, Value: float64(ps.Reconnects)})
		depth.Samples = append(depth.Samples, obs.Sample{Labels: ls, Value: float64(ps.QueueDepth)})
		for _, reason := range []string{transport.DropBacklog, transport.DropConnDown, transport.DropClosed} {
			drops.Samples = append(drops.Samples, obs.Sample{
				Labels: obs.L("node", node, "peer", ps.Peer, "reason", reason),
				Value:  float64(ps.Drops[reason]),
			})
		}
		sub := obs.SummaryFamily("spright_net_frames_per_write", "", ls, ps.FramesPerWrite)
		perWrite.Samples = append(perWrite.Samples, sub.Samples...)
	}

	framesRecv := obs.Family{Name: "spright_net_frames_received_total",
		Help: "Wire frames decoded per remote peer.", Type: obs.Counter}
	bytesRecv := obs.Family{Name: "spright_net_bytes_received_total",
		Help: "Frame bytes (prefix included) received per remote peer.", Type: obs.Counter}
	for _, rs := range st.Received {
		ls := obs.L("node", node, "peer", rs.Peer)
		framesRecv.Samples = append(framesRecv.Samples, obs.Sample{Labels: ls, Value: float64(rs.FramesReceived)})
		bytesRecv.Samples = append(bytesRecv.Samples, obs.Sample{Labels: ls, Value: float64(rs.BytesReceived)})
	}

	return []obs.Family{
		framesSent, bytesSent, writes, reconnects, depth, drops, perWrite,
		framesRecv, bytesRecv,
		obs.CounterFamily("spright_net_recv_errors_total",
			"Inbound connections torn down on framing or decode errors.",
			obs.L("node", node), float64(st.RecvErrors)),
	}
}
