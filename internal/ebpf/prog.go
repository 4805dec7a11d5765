package ebpf

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
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

// TC verdict codes (subset of tc actions).
const (
	TCActOK       int64 = 0
	TCActShot     int64 = 2
	TCActRedirect int64 = 7
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
	fd     int
	maps   []progMapRef

	// fast is a shape-specialized runner when the program matched a
	// recognized SPROXY/EPROXY shape at Load time; when it did not,
	// fallback says why and the program runs on the interpreter.
	fast     fastRunner
	fallback string
}

// FD returns the program's file descriptor.
func (lp *LoadedProgram) FD() int { return lp.fd }

// Name returns the program name.
func (lp *LoadedProgram) Name() string { return lp.prog.Name }

// Type returns the program type.
func (lp *LoadedProgram) Type() ProgType { return lp.prog.Type }

// Len returns the instruction count.
func (lp *LoadedProgram) Len() int { return len(lp.prog.Insns) }

// Engine reports the fastest backend this program can execute on. The
// kernel-level switch (SetJIT) can still force the interpreter at run time.
func (lp *LoadedProgram) Engine() EngineKind {
	if lp.fast != nil {
		return EngineFast
	}
	return EngineInterp
}

// FallbackReason explains why a program has no fast path (empty when it
// has one): it matches no recognized shape, or a geometry guard of the shape
// it matches declined.
func (lp *LoadedProgram) FallbackReason() string { return lp.fallback }

// envBox wraps the Env interface in a struct so atomic.Value sees one
// consistent concrete type across stores of different Env implementations.
type envBox struct{ e Env }

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

	env atomic.Value // envBox

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

// NewKernel creates an empty eBPF subsystem with a null environment.
func NewKernel() *Kernel {
	k := &Kernel{
		maps: make(map[int]*Map),
		next: 3, // fds 0-2 are taken, as on a real system
	}
	k.env.Store(envBox{nullEnv{}})
	return k
}

// SetEnv installs the host environment used by helpers (time, FIB).
func (k *Kernel) SetEnv(e Env) {
	if e == nil {
		e = nullEnv{}
	}
	k.env.Store(envBox{e})
}

func (k *Kernel) currentEnv() Env {
	return k.env.Load().(envBox).e
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
	lp := &LoadedProgram{prog: p, kernel: k, fd: k.next}
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
	lp.fast, lp.fallback = matchFast(lp)
	if lp.fast != nil {
		k.compiledProgs.Add(1)
	}
	k.loadedProgs.Add(1)
	k.next++
	return lp, nil
}

// Unload counts a program out of the loaded/compiled gauges. Call it once,
// when the program's owner is done with it; the kernel holds no reference to
// a loaded program, so nothing else needs releasing.
func (k *Kernel) Unload(lp *LoadedProgram) {
	if lp.fast != nil {
		k.compiledProgs.Add(-1)
	}
	k.loadedProgs.Add(-1)
}

// SetJIT enables or disables the fast paths kernel-wide. Disabling them
// forces every run through the interpreter — differential tests run the
// same programs on both settings and compare everything observable.
func (k *Kernel) SetJIT(on bool) { k.fastOff.Store(!on) }

// JITEnabled reports whether the fast paths are active.
func (k *Kernel) JITEnabled() bool { return !k.fastOff.Load() }

// Stripes is how many ways per-run written state is split (a power of two):
// the kernel's run counters, a per-CPU array's copies, and in internal/core an
// instance's concurrency slots and hop counters.
//
// A run is on one stripe, the stand-in for the CPU it runs on: it counts
// itself there and its bpf_map_lookup_elem on a per-CPU array resolves to that
// stripe's copy. RunCopy and RunMeta are told the stripe by their caller, which
// hangs its own per-hop words on the same one; Run, which is not, uses its
// pooled exec state's. A stripe is a property of a pooled object
// (NextStripe): a sync.Pool hands a P its own object back in practice, so each
// core keeps to its own stripe with no further mechanism. Nothing depends on
// that for more than speed — every striped word is still written atomically, and
// two cores on one stripe only share its lines again.
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

// unpooledStripe is the stripe of a run that has none to be on: a fast-path
// Run (the hooks' and a bare caller's), whose caller passed none and which
// takes no pooled state that could carry one. No pooled object is dealt it.
const unpooledStripe = 0

// stripeSeq deals the other stripes, 1..Stripes-1, to pooled objects.
var stripeSeq atomic.Uint32

// NextStripe deals a stripe to a pooled object that will carry it for the runs
// its holders make.
func NextStripe() uint32 { return 1 + stripeSeq.Add(1)%(Stripes-1) }

// Stats reports cumulative execution statistics.
func (k *Kernel) Stats() (runs, insns uint64) {
	for i := range k.stripes {
		st := &k.stripes[i]
		runs += st.fastRuns.Load() + st.interpRuns.Load()
		insns += st.insns.Load()
	}
	return runs, insns
}

// EngineStats is the per-engine execution breakdown exported to /metrics.
type EngineStats struct {
	JITRuns    uint64 // runs executed by a shape-specialized fast path
	InterpRuns uint64 // runs executed by the interpreter
	Loaded     int64  // programs loaded
	Compiled   int64  // loaded programs with a fast path
}

// EngineStats reports the fast-path-vs-interpreter run counters and the
// loaded/compiled program gauges.
func (k *Kernel) EngineStats() EngineStats {
	es := EngineStats{Loaded: k.loadedProgs.Load(), Compiled: k.compiledProgs.Load()}
	for i := range k.stripes {
		es.JITRuns += k.stripes[i].fastRuns.Load()
		es.InterpRuns += k.stripes[i].interpRuns.Load()
	}
	return es
}

// fastOf returns lp's shape-specialized runner if the fast paths are on.
func (k *Kernel) fastOf(lp *LoadedProgram) fastRunner {
	if k.fastOff.Load() {
		return nil
	}
	return lp.fast
}

// interpret runs a prepared exec state on the interpreter and counts the run.
func (k *Kernel) interpret(st *execState) (Result, error) {
	res, err := st.run()
	rs := &k.stripes[st.on&(Stripes-1)]
	rs.insns.Add(uint64(res.Insns))
	rs.interpRuns.Add(1)
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
// (ctx, stack, map-value table, RunCopy staging buffer) is inline in the
// struct, so a pooled run performs zero heap allocation.
var execPool = sync.Pool{New: func() any { return &execState{stripe: NextStripe()} }}

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

// getExec prepares a pooled execState for one run, on the state's own stripe
// until the caller says otherwise.
func (k *Kernel) getExec(lp *LoadedProgram, frameLen int, ifindex uint32, env Env) *execState {
	st := execPool.Get().(*execState)
	st.kernel = k
	st.prog = lp
	st.env = env
	if env == nil {
		st.env = k.currentEnv()
	}
	st.on = st.stripe
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
	st.pktWrite = false
	st.msgData = nil
	for i := 0; i < st.nSlots && i < maxInlineMapVals; i++ {
		st.mapVals[i] = nil
	}
	st.overflow = nil
	st.nSlots = 0
	st.res = Result{} // drops the RedirectSock reference
	execPool.Put(st)
}

// Run executes a loaded program over data (packet or message bytes) with
// the given ingress ifindex. The program reads and writes data in place.
// It is the common engine behind the hook dispatchers in hooks.go. Its caller
// names no stripe: an interpreted run is on its pooled exec state's, a
// fast-path run, which takes no pooled state, on unpooledStripe.
func (k *Kernel) Run(lp *LoadedProgram, data []byte, ifindex uint32, env Env) (Result, error) {
	if f := k.fastOf(lp); f != nil {
		return k.runFast(f, data, len(data), ifindex, unpooledStripe)
	}
	st := k.getExec(lp, len(data), ifindex, env)
	res, err := k.interpretOver(st, data)
	putExec(st)
	return res, err
}

// runFast runs a shape-specialized runner on stripe and counts the run there.
func (k *Kernel) runFast(f fastRunner, pkt []byte, frameLen int, ifindex, stripe uint32) (Result, error) {
	res, err := f(pkt, frameLen, ifindex, stripe)
	st := &k.stripes[stripe&(Stripes-1)]
	st.insns.Add(uint64(res.Insns))
	st.fastRuns.Add(1)
	return res, err
}

// interpretOver interprets st's program over packet, readable and writable.
func (k *Kernel) interpretOver(st *execState, packet []byte) (Result, error) {
	st.packet = packet
	st.pktWrite = true
	st.msgData = packet
	return k.interpret(st)
}

// RunCopy executes a program on stripe over a private copy of data, leaving
// the caller's slice unread after return and unaliased by the VM. Small frames
// (descriptors) are staged in the exec state's inline buffer, so the send
// path does not allocate; larger frames fall back to an explicit copy.
func (k *Kernel) RunCopy(lp *LoadedProgram, data []byte, ifindex uint32, env Env, stripe uint32) (Result, error) {
	if f := k.fastOf(lp); f != nil {
		// The fast paths neither write nor retain the frame, but f is an
		// indirect call, so escape analysis must assume it leaks its
		// arguments — running directly over the caller's bytes would heap-
		// allocate stack-backed frames (e.g. the marshaled descriptor in
		// SProxy.Send). Stage small frames through a pooled buffer to keep
		// the send path at zero allocations.
		if len(data) <= pktCopySize {
			buf := fastBufPool.Get().(*fastBuf)
			n := copy(buf.b[:], data)
			res, err := k.runFast(f, buf.b[:n], n, ifindex, stripe)
			fastBufPool.Put(buf)
			return res, err
		}
		big := append([]byte(nil), data...)
		return k.runFast(f, big, len(big), ifindex, stripe)
	}
	st := k.getExec(lp, len(data), ifindex, env)
	st.on = stripe
	var packet []byte
	if len(data) > pktCopySize {
		packet = append(packet, data...)
	} else {
		packet = st.pktCopy[:copy(st.pktCopy[:], data)]
	}
	res, err := k.interpretOver(st, packet)
	putExec(st)
	return res, err
}

// RunMeta executes a program on stripe over a synthetic frame of frameLen
// bytes whose contents are inaccessible: ctx data/data_end describe the frame
// bounds, but any dereference of packet memory faults. Metrics-only programs
// (the EPROXY monitor reads just data/data_end from the ctx) run this way
// without the caller materializing a frame at all.
func (k *Kernel) RunMeta(lp *LoadedProgram, frameLen int, ifindex uint32, env Env, stripe uint32) (Result, error) {
	if f := k.fastOf(lp); f != nil {
		return k.runFast(f, nil, frameLen, ifindex, stripe)
	}
	st := k.getExec(lp, frameLen, ifindex, env)
	st.on = stripe
	res, err := k.interpret(st)
	putExec(st)
	return res, err
}
