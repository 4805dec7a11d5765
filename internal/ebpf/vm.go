package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"github.com/spright-go/spright/internal/shm"
)

// StackSize is the per-invocation stack available through R10, matching the
// kernel's 512-byte eBPF stack.
const StackSize = 512

// MaxRuntimeInsns is the dynamic instruction budget per program run — the
// runtime analog of the kernel verifier's one-million-instruction
// complexity limit.
const MaxRuntimeInsns = 1 << 20

// Virtual address-space layout. Regions never overlap: the context struct,
// packet data, stack and map values each live under a distinct base, and —
// crucially for the interpreter's load/store fast path — under a distinct
// value of addr>>regionShift, so an access resolves its region in O(1)
// from the address bits instead of scanning a region list.
const (
	ctxBase    uint64 = 0x0000_1000_0000_0000
	packetBase uint64 = 0x0000_2000_0000_0000
	stackBase  uint64 = 0x0000_7ff0_0000_0000
	mapValBase uint64 = 0x0000_4000_0000_0000
	mapValStep uint64 = 0x0000_0000_0001_0000

	// regionShift selects the address bits that identify a region class.
	regionShift = 44

	// map handles returned by OpLoadMapFD are tagged so that helpers can
	// tell them apart from pointers.
	mapHandleTag uint64 = 0xEB9F_0000_0000_0000
)

// Runtime errors.
var (
	ErrOutOfBounds  = errors.New("ebpf: memory access out of bounds")
	ErrBudget       = errors.New("ebpf: instruction budget exceeded")
	ErrDivByZero    = errors.New("ebpf: division by zero")
	ErrBadMapHandle = errors.New("ebpf: register does not hold a map handle")
)

// errPCOutOfRange is pre-built: faults are returned from inside the execution
// hot loop, so they must not allocate — a program that faults on every run
// would otherwise turn the 0 allocs/op guarantee into a per-fault
// fmt.Errorf. The sentinel carries the fault class; the faulting address is
// diagnosable from the program counter in Result.Insns.
var errPCOutOfRange = errors.New("ebpf: pc out of program bounds")

// maxInlineMapVals is how many distinct map-value regions one run can map
// before spilling to a heap slice. SPROXY maps two (filter hit + metrics
// slot); eight leaves generous headroom without growing the exec state.
const maxInlineMapVals = 8

// Env is the host environment visible to helpers, passed per run; a nil Env
// yields zero time and an empty FIB.
type Env interface {
	// Now returns kernel monotonic time in nanoseconds (bpf_ktime_get_ns).
	Now() int64
	// FIBLookup resolves a destination address to an egress interface
	// index (bpf_fib_lookup). ok is false when no route exists.
	FIBLookup(daddr uint32, ingressIf uint32) (egressIf uint32, ok bool)
}

type nullEnv struct{}

func (nullEnv) Now() int64                              { return 0 }
func (nullEnv) FIBLookup(uint32, uint32) (uint32, bool) { return 0, false }

// Result is the outcome of one program execution.
type Result struct {
	Ret   int64 // R0 at exit (the verdict)
	Insns int   // dynamic instructions executed

	// RedirectIf is set when bpf_redirect chose an egress interface.
	RedirectIf uint32
	HasIfRedir bool

	// RedirectSock is set when bpf_msg_redirect_map selected a socket.
	RedirectSock SockRef
}

// execState is one program invocation's machine state. Instances are pooled
// (see execPool in prog.go) so a steady-state run performs no allocation:
// the context struct, the 512-byte stack and the descriptor staging buffer
// are inline arrays, and map-value regions occupy a fixed inline table.
type execState struct {
	kernel *Kernel
	prog   *LoadedProgram
	env    Env
	reg    [numRegisters]uint64
	res    Result

	ctx   [ctxSize]byte
	stack [StackSize]byte
	desc  [shm.DescriptorSize]byte

	// packet aliases the caller's data (Run) or the inline desc staging
	// buffer (RunDescriptor), readable and writable, or is empty for
	// metadata-only frames (RunMeta).
	packet []byte

	// map-value regions, indexed by (addr-mapValBase)/mapValStep. Values
	// wider than mapValStep reserve extra nil continuation slots.
	mapVals  [maxInlineMapVals][]byte
	nSlots   int
	overflow [][]byte

	// on is the stripe the current run is on, the one its caller named.
	on uint32
}

func (st *execState) slot(i int) []byte {
	if i < maxInlineMapVals {
		return st.mapVals[i]
	}
	return st.overflow[i-maxInlineMapVals]
}

func (st *execState) addSlot(b []byte) {
	if st.nSlots < maxInlineMapVals {
		st.mapVals[st.nSlots] = b
	} else {
		st.overflow = append(st.overflow, b)
	}
	st.nSlots++
}

func sameSlice(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

// mapValue maps a live map-value slice into the address space, returning
// its virtual address (what bpf_map_lookup_elem hands back). Re-looking-up
// a value already mapped in this run returns the existing region instead of
// growing the table, so lookup loops do not accrete address-space state.
func (st *execState) mapValue(data []byte) uint64 {
	for i := 0; i < st.nSlots; i++ {
		if sameSlice(st.slot(i), data) {
			return mapValBase + uint64(i)*mapValStep
		}
	}
	base := mapValBase + uint64(st.nSlots)*mapValStep
	st.addSlot(data)
	if len(data) > 0 {
		for extra := (len(data) - 1) / int(mapValStep); extra > 0; extra-- {
			st.addSlot(nil) // continuation slots of a wide value
		}
	}
	return base
}

// access resolves a virtual address range to backing bytes. Region classes
// are disjoint in bits [44,48), so resolution is a single switch on the
// address — no scan, no allocation.
func (st *execState) access(addr uint64, size int) ([]byte, error) {
	n := uint64(size)
	switch addr >> regionShift {
	case ctxBase >> regionShift:
		if off := addr - ctxBase; off < ctxSize && off+n <= ctxSize {
			return st.ctx[off : off+n], nil
		}
	case packetBase >> regionShift:
		if off := addr - packetBase; off < uint64(len(st.packet)) && off+n <= uint64(len(st.packet)) {
			return st.packet[off : off+n], nil
		}
	case stackBase >> regionShift:
		if off := addr - stackBase; off < StackSize && off+n <= StackSize {
			return st.stack[off : off+n], nil
		}
	case mapValBase >> regionShift:
		if idx := int((addr - mapValBase) / mapValStep); idx < st.nSlots {
			for idx > 0 && st.slot(idx) == nil {
				idx-- // walk back to the head slot of a wide value
			}
			data := st.slot(idx)
			if off := addr - (mapValBase + uint64(idx)*mapValStep); off+n <= uint64(len(data)) {
				return data[off : off+n], nil
			}
		}
	}
	return nil, ErrOutOfBounds
}

func loadUint(b []byte, size Size) uint64 {
	switch size {
	case B:
		return uint64(b[0])
	case H:
		return uint64(binary.LittleEndian.Uint16(b))
	case W:
		return uint64(binary.LittleEndian.Uint32(b))
	default:
		return binary.LittleEndian.Uint64(b)
	}
}

func storeUint(b []byte, size Size, v uint64) {
	switch size {
	case B:
		b[0] = byte(v)
	case H:
		binary.LittleEndian.PutUint16(b, uint16(v))
	case W:
		binary.LittleEndian.PutUint32(b, uint32(v))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// atomicStripes backs the slow path of atomicAddBytes for unaligned or
// sub-word operands. Striped by address, so even the fallback never
// serializes unrelated counters behind one lock.
var atomicStripes [64]sync.Mutex

// atomicAddBytes implements BPF_XADD semantics: a LOCK-prefixed add on the
// target word. Aligned word/dword operands — the only shapes SPRIGHT's
// metric programs emit, guaranteed by the 8-byte-aligned array-map slab —
// map to real CPU atomics, so concurrent executions (across chains or
// within one) never contend on a shared mutex. Unaligned and byte/half
// operands fall back to an address-striped lock.
func atomicAddBytes(b []byte, size Size, delta uint64) {
	p := unsafe.Pointer(&b[0])
	switch size {
	case DW:
		if uintptr(p)&7 == 0 {
			atomic.AddUint64((*uint64)(p), delta)
			return
		}
	case W:
		if uintptr(p)&3 == 0 {
			atomic.AddUint32((*uint32)(p), uint32(delta))
			return
		}
	}
	mu := &atomicStripes[(uintptr(p)>>3)%uintptr(len(atomicStripes))]
	mu.Lock()
	storeUint(b, size, loadUint(b, size)+delta)
	mu.Unlock()
}

// run interprets the program until exit, error, or budget exhaustion.
func (st *execState) run() (Result, error) {
	insns := st.prog.prog.Insns
	pc := 0
	for {
		if st.res.Insns >= MaxRuntimeInsns {
			return st.res, ErrBudget
		}
		if pc < 0 || pc >= len(insns) {
			return st.res, errPCOutOfRange
		}
		in := insns[pc]
		st.res.Insns++
		switch in.Op {
		case OpMovImm:
			st.reg[in.Dst] = uint64(in.Imm)
		case OpMovReg:
			st.reg[in.Dst] = st.reg[in.Src]
		case OpAddImm:
			st.reg[in.Dst] += uint64(in.Imm)
		case OpAddReg:
			st.reg[in.Dst] += st.reg[in.Src]
		case OpSubImm:
			st.reg[in.Dst] -= uint64(in.Imm)
		case OpSubReg:
			st.reg[in.Dst] -= st.reg[in.Src]
		case OpMulImm:
			st.reg[in.Dst] *= uint64(in.Imm)
		case OpMulReg:
			st.reg[in.Dst] *= st.reg[in.Src]
		case OpDivImm:
			st.reg[in.Dst] /= uint64(in.Imm) // imm==0 rejected by verifier
		case OpDivReg:
			if st.reg[in.Src] == 0 {
				return st.res, ErrDivByZero
			}
			st.reg[in.Dst] /= st.reg[in.Src]
		case OpModImm:
			st.reg[in.Dst] %= uint64(in.Imm)
		case OpModReg:
			if st.reg[in.Src] == 0 {
				return st.res, ErrDivByZero
			}
			st.reg[in.Dst] %= st.reg[in.Src]
		case OpAndImm:
			st.reg[in.Dst] &= uint64(in.Imm)
		case OpAndReg:
			st.reg[in.Dst] &= st.reg[in.Src]
		case OpOrImm:
			st.reg[in.Dst] |= uint64(in.Imm)
		case OpOrReg:
			st.reg[in.Dst] |= st.reg[in.Src]
		case OpXorImm:
			st.reg[in.Dst] ^= uint64(in.Imm)
		case OpXorReg:
			st.reg[in.Dst] ^= st.reg[in.Src]
		case OpLshImm:
			st.reg[in.Dst] <<= uint64(in.Imm) & 63
		case OpLshReg:
			st.reg[in.Dst] <<= st.reg[in.Src] & 63
		case OpRshImm:
			st.reg[in.Dst] >>= uint64(in.Imm) & 63
		case OpRshReg:
			st.reg[in.Dst] >>= st.reg[in.Src] & 63
		case OpArshImm:
			st.reg[in.Dst] = uint64(int64(st.reg[in.Dst]) >> (uint64(in.Imm) & 63))
		case OpArshReg:
			st.reg[in.Dst] = uint64(int64(st.reg[in.Dst]) >> (st.reg[in.Src] & 63))
		case OpNeg:
			st.reg[in.Dst] = uint64(-int64(st.reg[in.Dst]))

		case OpLoad:
			b, err := st.access(st.reg[in.Src]+uint64(int64(in.Off)), int(in.Size))
			if err != nil {
				return st.res, err
			}
			st.reg[in.Dst] = loadUint(b, in.Size)
		case OpStore:
			b, err := st.access(st.reg[in.Dst]+uint64(int64(in.Off)), int(in.Size))
			if err != nil {
				return st.res, err
			}
			storeUint(b, in.Size, st.reg[in.Src])
		case OpStoreImm:
			b, err := st.access(st.reg[in.Dst]+uint64(int64(in.Off)), int(in.Size))
			if err != nil {
				return st.res, err
			}
			storeUint(b, in.Size, uint64(in.Imm))
		case OpAtomicAdd:
			b, err := st.access(st.reg[in.Dst]+uint64(int64(in.Off)), int(in.Size))
			if err != nil {
				return st.res, err
			}
			atomicAddBytes(b, in.Size, st.reg[in.Src])

		case OpLoadMapFD:
			st.reg[in.Dst] = mapHandleTag | uint64(uint32(in.Imm))

		case OpJa:
			pc += int(in.Off)
		case OpJeqImm:
			if st.reg[in.Dst] == uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJeqReg:
			if st.reg[in.Dst] == st.reg[in.Src] {
				pc += int(in.Off)
			}
		case OpJneImm:
			if st.reg[in.Dst] != uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJneReg:
			if st.reg[in.Dst] != st.reg[in.Src] {
				pc += int(in.Off)
			}
		case OpJgtImm:
			if st.reg[in.Dst] > uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJgtReg:
			if st.reg[in.Dst] > st.reg[in.Src] {
				pc += int(in.Off)
			}
		case OpJgeImm:
			if st.reg[in.Dst] >= uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJgeReg:
			if st.reg[in.Dst] >= st.reg[in.Src] {
				pc += int(in.Off)
			}
		case OpJltImm:
			if st.reg[in.Dst] < uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJltReg:
			if st.reg[in.Dst] < st.reg[in.Src] {
				pc += int(in.Off)
			}
		case OpJleImm:
			if st.reg[in.Dst] <= uint64(in.Imm) {
				pc += int(in.Off)
			}
		case OpJleReg:
			if st.reg[in.Dst] <= st.reg[in.Src] {
				pc += int(in.Off)
			}
		case OpJsgtImm:
			if int64(st.reg[in.Dst]) > in.Imm {
				pc += int(in.Off)
			}
		case OpJsgtReg:
			if int64(st.reg[in.Dst]) > int64(st.reg[in.Src]) {
				pc += int(in.Off)
			}

		case OpCall:
			if err := st.call(HelperID(in.Imm)); err != nil {
				return st.res, err
			}
		case OpExit:
			st.res.Ret = int64(st.reg[R0])
			return st.res, nil
		default:
			return st.res, fmt.Errorf("ebpf: invalid opcode %d at pc %d", in.Op, pc)
		}
		pc++
	}
}

// mapFromHandle resolves a tagged map handle in a register. Programs load
// handles through OpLoadMapFD, whose targets were resolved at Load time
// into the program's map table — the common case costs a short scan of
// that table, no kernel lock.
func (st *execState) mapFromHandle(v uint64) (*Map, error) {
	if v&mapHandleTag != mapHandleTag {
		return nil, ErrBadMapHandle
	}
	fd := int(uint32(v))
	for i := range st.prog.maps {
		if st.prog.maps[i].fd == fd {
			return st.prog.maps[i].m, nil
		}
	}
	m := st.kernel.mapByFD(fd)
	if m == nil {
		return nil, fmt.Errorf("%w: no map with fd %d", ErrBadMapHandle, fd)
	}
	return m, nil
}
