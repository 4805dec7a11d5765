package ebpf

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spright-go/spright/internal/shm"
)

// ProgType declares which hook a program may attach to, mirroring
// bpf_prog_type.
type ProgType int

// Program types used by SPRIGHT.
const (
	ProgTypeXDP   ProgType = iota
	ProgTypeTC             // sched_cls
	ProgTypeSKMsg          // sk_msg (the SPROXY program type)
	ProgTypeSockOps
)

func (t ProgType) String() string {
	switch t {
	case ProgTypeXDP:
		return "xdp"
	case ProgTypeTC:
		return "tc"
	case ProgTypeSKMsg:
		return "sk_msg"
	case ProgTypeSockOps:
		return "sock_ops"
	default:
		return fmt.Sprintf("progtype(%d)", int(t))
	}
}

// XDP verdict codes (enum xdp_action).
const (
	XDPAborted  int64 = 0
	XDPDrop     int64 = 1
	XDPPass     int64 = 2
	XDPTx       int64 = 3
	XDPRedirect int64 = 4
)

// SK_MSG verdict codes.
const (
	SKDrop int64 = 0
	SKPass int64 = 1
)

// Program is an unloaded program: a name, a type and its instructions.
type Program struct {
	Name  string
	Type  ProgType
	Insns []Insn
}

// progMapRef caches a map referenced by a program's OpLoadMapFD
// instructions, resolved once at load time so each execution resolves
// handles from this table instead of taking the kernel registry lock.
type progMapRef struct {
	fd int
	m  *Map
}

// LoadedProgram is a verified program resident in the kernel.
type LoadedProgram struct {
	prog   *Program
	kernel *Kernel
	maps   []progMapRef

	// sproxy or eproxy is the fast path of a program that matched that shape
	// at Load, as its concrete type, which a run calls directly; with
	// neither, the program runs on the interpreter.
	sproxy *sproxyFast
	eproxy *eproxyFast
}

// Kernel is the per-node eBPF subsystem: the registry of maps and loaded
// programs plus the execution engine. One Kernel instance backs one
// simulated worker node.
type Kernel struct {
	// Run accounting, striped (see runStripe). First in the struct, each
	// stripe 64 bytes with its words in the first 24: wherever within a line
	// the allocation starts (Go puts an 8-byte header before an object this
	// large), no two stripes' words share one, and none shares one with the
	// fields below (TestPerCPUArrayLayout).
	stripes [Stripes]runStripe

	mu   sync.RWMutex
	maps map[int]*Map
	next int

	// How many programs are loaded, and how many of them have a fast path.
	// With the stripes' per-engine run counts, fallback regressions (a hot
	// program silently dropping to the interpreter) show up here and in
	// /metrics.
	loadedProgs   atomic.Int64
	compiledProgs atomic.Int64

	// fastOff disables the fast paths kernel-wide, forcing every run through
	// the interpreter — the differential-test oracle switch.
	fastOff atomic.Bool
}

// NewKernel creates an empty eBPF subsystem.
func NewKernel() *Kernel {
	return &Kernel{
		maps: make(map[int]*Map),
		next: 3, // fds 0-2 are taken, as on a real system
	}
}

// CreateMap creates a map and assigns it a file descriptor.
func (k *Kernel) CreateMap(spec MapSpec) (*Map, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	fd := k.next
	m, err := newMap(spec, fd)
	if err != nil {
		return nil, err
	}
	k.next++
	k.maps[fd] = m
	return m, nil
}

func (k *Kernel) mapByFD(fd int) *Map {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.maps[fd]
}

// RemoveMaps drops maps from the registry: their fds no longer resolve for
// Load. Loaded programs reach their maps through their own map tables, so
// one still running is unaffected.
func (k *Kernel) RemoveMaps(ms ...*Map) {
	k.mu.Lock()
	for _, m := range ms {
		delete(k.maps, m.fd)
	}
	k.mu.Unlock()
}

// MapCount reports how many maps the registry holds.
func (k *Kernel) MapCount() int {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return len(k.maps)
}

// Load verifies a program and makes it executable. The maps referenced by
// OpLoadMapFD instructions are resolved here, once, into the program's map
// table; executions resolve handles against that table lock-free. A program
// that matches a recognized SPROXY/EPROXY shape gets its shape-specialized
// fast path; every other program runs on the interpreter.
func (k *Kernel) Load(p *Program) (*LoadedProgram, error) {
	if err := k.verify(p); err != nil {
		return nil, fmt.Errorf("load %q: %w", p.Name, err)
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	lp := &LoadedProgram{prog: p, kernel: k}
	for _, in := range p.Insns {
		if in.Op != OpLoadMapFD {
			continue
		}
		fd := int(uint32(in.Imm))
		seen := false
		for _, ref := range lp.maps {
			if ref.fd == fd {
				seen = true
				break
			}
		}
		if !seen {
			lp.maps = append(lp.maps, progMapRef{fd: fd, m: k.maps[fd]})
		}
	}
	lp.sproxy, lp.eproxy, _ = matchFast(lp)
	if lp.sproxy != nil || lp.eproxy != nil {
		k.compiledProgs.Add(1)
	}
	k.loadedProgs.Add(1)
	return lp, nil
}

// Unload counts a program out of the loaded/compiled gauges. Call it once,
// when the program's owner is done with it; the kernel holds no reference to
// a loaded program, so nothing else needs releasing.
func (k *Kernel) Unload(lp *LoadedProgram) {
	if lp.sproxy != nil || lp.eproxy != nil {
		k.compiledProgs.Add(-1)
	}
	k.loadedProgs.Add(-1)
}

// SetJIT enables or disables the fast paths kernel-wide. Disabling them
// forces every run through the interpreter — differential tests run the
// same programs on both settings and compare everything observable.
func (k *Kernel) SetJIT(on bool) { k.fastOff.Store(!on) }

// Stripes is how many ways per-run written state is split (a power of two):
// the kernel's run counters, a per-CPU array's copies, and in internal/core an
// instance's concurrency slots and hop counters.
//
// A run is on one stripe, the stand-in for the CPU it runs on: it counts
// itself there and its bpf_map_lookup_elem on a per-CPU array resolves to that
// stripe's copy. The stripe is the caller's to name, the same on either
// engine: RunDescriptor and RunMeta take it from their caller, which hangs its
// own per-hop words on the same one, and Run, the entry of tools, is on
// stripe 0. The dataplane's callers carry a stripe dealt to a pooled object
// of their own (NextStripe): a sync.Pool hands a P its own object back in
// practice, so each core keeps to its own stripe with no further mechanism.
// Nothing depends on that for more than speed — every striped word is still
// written atomically, and two cores on one stripe only share its lines again.
const Stripes = 8

// runStripe is one cache line of run accounting: how many runs took a fast
// path, how many the interpreter, and the instructions they ran.
// Every program run on the node counts itself, so on a single set of counters
// every core writes one line per run — a line that would also sit beside
// fastOff and env, which every run reads.
type runStripe struct {
	fastRuns   atomic.Uint64
	interpRuns atomic.Uint64
	insns      atomic.Uint64
	_          [5]uint64
}

// stripeSeq deals stripes 1..Stripes-1 to pooled objects; stripe 0 is Run's.
var stripeSeq atomic.Uint32

// NextStripe deals a stripe to a pooled object that will carry it for the runs
// its holders make.
func NextStripe() uint32 { return 1 + stripeSeq.Add(1)%(Stripes-1) }

// EngineStats is the kernel's execution record, exported to /metrics.
type EngineStats struct {
	JITRuns    uint64 // runs executed by a shape-specialized fast path
	InterpRuns uint64 // runs executed by the interpreter
	Insns      uint64 // instructions the runs executed, on either engine
	Loaded     int64  // programs loaded
	Compiled   int64  // loaded programs with a fast path
}

// EngineStats reports the fast-path-vs-interpreter run counters, the
// instructions run and the loaded/compiled program gauges.
func (k *Kernel) EngineStats() EngineStats {
	es := EngineStats{Loaded: k.loadedProgs.Load(), Compiled: k.compiledProgs.Load()}
	for i := range k.stripes {
		es.JITRuns += k.stripes[i].fastRuns.Load()
		es.InterpRuns += k.stripes[i].interpRuns.Load()
		es.Insns += k.stripes[i].insns.Load()
	}
	return es
}

// countFast counts a fast-path run of insns instructions on stripe.
func (k *Kernel) countFast(stripe uint32, insns int) {
	st := &k.stripes[stripe&(Stripes-1)]
	st.insns.Add(uint64(insns))
	st.fastRuns.Add(1)
}

// interpret runs a prepared exec state on the interpreter, counts the run on
// its stripe and returns the state to the pool.
func (k *Kernel) interpret(st *execState) (Result, error) {
	res, err := st.run()
	rs := &k.stripes[st.on&(Stripes-1)]
	rs.insns.Add(uint64(res.Insns))
	rs.interpRuns.Add(1)
	putExec(st)
	return res, err
}

// ctx layouts. All context structs start with data/data_end pointers like
// their kernel counterparts, so programs written against one hook parse
// packet bounds identically.
const (
	ctxOffData    = 0  // u64: pointer to start of packet/message data
	ctxOffDataEnd = 8  // u64: pointer past the end of data
	ctxOffIfindex = 16 // u32: ingress ifindex (XDP/TC) or local sock id (SK_MSG)
	ctxOffMark    = 20 // u32: mark (TC only)
	ctxSize       = 24
)

// execPool recycles execState instances across runs. All hot-path storage
// (ctx, stack, map-value table, descriptor staging buffer) is inline in the
// struct, so a pooled run performs zero heap allocation.
var execPool = sync.Pool{New: func() any { return new(execState) }}

// reset re-arms an exec state for one run over a frame of frameLen bytes.
// The stack and registers are zeroed — the verifier does not track
// stack-slot initialization, so a recycled dirty stack must not leak state
// between runs — and the map-value table is emptied so a previous run's
// regions neither alias nor pin this run's.
func (st *execState) reset(frameLen int, ifindex uint32) {
	st.reg = [numRegisters]uint64{}
	clear(st.stack[:])
	st.res = Result{}
	for i := 0; i < st.nSlots && i < maxInlineMapVals; i++ {
		st.mapVals[i] = nil
	}
	st.nSlots = 0
	st.overflow = st.overflow[:0]

	binary.LittleEndian.PutUint64(st.ctx[ctxOffData:], packetBase)
	binary.LittleEndian.PutUint64(st.ctx[ctxOffDataEnd:], packetBase+uint64(frameLen))
	binary.LittleEndian.PutUint32(st.ctx[ctxOffIfindex:], ifindex)
	binary.LittleEndian.PutUint32(st.ctx[ctxOffMark:], 0)

	st.reg[R1] = ctxBase
	st.reg[R10] = stackBase + StackSize
}

// getExec prepares a pooled execState for one run on stripe over a frame of
// frameLen bytes, its packet region empty until the caller sets it.
func (k *Kernel) getExec(lp *LoadedProgram, frameLen int, ifindex, stripe uint32, env Env) *execState {
	st := execPool.Get().(*execState)
	st.kernel = k
	st.prog = lp
	st.env = env
	if env == nil {
		st.env = nullEnv{}
	}
	st.on = stripe
	st.reset(frameLen, ifindex)
	return st
}

// putExec returns an execState to the pool, dropping references so pooled
// instances don't pin packets, maps or sockets.
func putExec(st *execState) {
	st.kernel = nil
	st.prog = nil
	st.env = nil
	st.packet = nil
	for i := 0; i < st.nSlots && i < maxInlineMapVals; i++ {
		st.mapVals[i] = nil
	}
	st.overflow = nil
	st.nSlots = 0
	st.res = Result{} // drops the RedirectSock reference
	execPool.Put(st)
}

// runFast runs lp on its fast path, if it has one and they are on, over a
// frame of frameLen bytes starting with word if readable; ok says if it ran.
func (k *Kernel) runFast(lp *LoadedProgram, word uint32, readable bool, frameLen int, ifindex, stripe uint32) (res Result, err error, ok bool) {
	switch {
	case k.fastOff.Load():
		return res, nil, false
	case lp.sproxy != nil:
		res.Ret, res.RedirectSock, res.Insns, err = lp.sproxy.run(word, readable, frameLen, ifindex, stripe)
	case lp.eproxy != nil:
		res.Ret, res.Insns = lp.eproxy.run(frameLen, stripe)
	default:
		return res, nil, false
	}
	k.countFast(stripe, res.Insns)
	return res, err, true
}

// Run executes a loaded program over data (packet or message bytes) with the
// given ingress ifindex, on stripe 0 on either engine. The program reads and
// writes data in place. It is the entry of tools (the benchmark probes), and
// the only one that reports the whole Result.
func (k *Kernel) Run(lp *LoadedProgram, data []byte, ifindex uint32, env Env) (Result, error) {
	var word uint32
	if len(data) >= 4 {
		word = leU32(data)
	}
	if res, err, ok := k.runFast(lp, word, len(data) >= 4, len(data), ifindex, 0); ok {
		return res, err
	}
	st := k.getExec(lp, len(data), ifindex, 0, env)
	st.packet = data
	return k.interpret(st)
}

// RunDescriptor runs an SK_MSG program on stripe over d's 16-byte wire form
// and returns the verdict and the redirected socket. SPROXY's fast path gets
// d's first word by value, so nothing is staged or escapes; with none, or
// after SetJIT(false), the interpreter runs over d.Marshal() in the exec state.
func (k *Kernel) RunDescriptor(lp *LoadedProgram, d shm.Descriptor, ifindex, stripe uint32) (int64, SockRef, error) {
	if p := lp.sproxy; p != nil && !k.fastOff.Load() {
		ret, sock, insns, err := p.run(d.NextFn, true, shm.DescriptorSize, ifindex, stripe)
		k.countFast(stripe, insns)
		return ret, sock, err
	}
	res, err, ok := k.runFast(lp, d.NextFn, true, shm.DescriptorSize, ifindex, stripe)
	if !ok {
		st := k.getExec(lp, shm.DescriptorSize, ifindex, stripe, nil)
		st.desc = d.Marshal()
		st.packet = st.desc[:]
		res, err = k.interpret(st)
	}
	return res.Ret, res.RedirectSock, err
}

// RunMeta executes a program on stripe over a synthetic frame of frameLen
// bytes whose contents are inaccessible: ctx data/data_end describe the frame
// bounds, but any dereference of packet memory faults. Metrics-only programs
// (the EPROXY monitor reads just data/data_end from the ctx) run this way
// without the caller materializing a frame at all.
func (k *Kernel) RunMeta(lp *LoadedProgram, frameLen int, ifindex, stripe uint32) (int64, error) {
	if p := lp.eproxy; p != nil && !k.fastOff.Load() {
		ret, insns := p.run(frameLen, stripe)
		k.countFast(stripe, insns)
		return ret, nil
	}
	if res, err, ok := k.runFast(lp, 0, false, frameLen, ifindex, stripe); ok {
		return res.Ret, err
	}
	res, err := k.interpret(k.getExec(lp, frameLen, ifindex, stripe, nil))
	return res.Ret, err
}
