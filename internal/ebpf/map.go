package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MapType enumerates the supported eBPF map types.
type MapType int

// Map types used by SPRIGHT: arrays and hashes for metrics and routing,
// sockmaps for SPROXY's socket redirection, a hash used as the
// inter-function descriptor filter (§3.4), and per-CPU arrays for the counters
// a program bumps on every descriptor.
const (
	MapTypeArray MapType = iota
	MapTypeHash
	MapTypeSockMap
	MapTypePerCPUArray
)

func (t MapType) String() string {
	switch t {
	case MapTypeArray:
		return "array"
	case MapTypeHash:
		return "hash"
	case MapTypeSockMap:
		return "sockmap"
	case MapTypePerCPUArray:
		return "percpu_array"
	default:
		return fmt.Sprintf("maptype(%d)", int(t))
	}
}

// MapSpec declares a map before creation, mirroring struct bpf_map_def.
type MapSpec struct {
	Name       string
	Type       MapType
	KeySize    int
	ValueSize  int
	MaxEntries int
}

// Map errors.
var (
	ErrKeyNotFound = errors.New("ebpf: key not found")
	ErrMapFull     = errors.New("ebpf: map full")
	ErrBadKey      = errors.New("ebpf: bad key size")
	ErrBadValue    = errors.New("ebpf: bad value size")
	ErrWideHashKey = errors.New("ebpf: hash map keys are at most 8 bytes")
)

// Map is an in-"kernel" key/value store shared between programs and
// userspace, the configurability mechanism of §3.1. All methods are safe
// for concurrent use.
//
// Array maps are backed by one 8-byte-aligned slab ([]uint64), each entry
// padded to a word multiple. That alignment is what lets OpAtomicAdd run as
// a real CPU atomic on the value word (see atomicAddBytes), and array
// lookups/updates go through word-wise atomic copies instead of the map
// mutex — concurrent metric reads and increments never serialize.
//
// A per-CPU array (BPF_MAP_TYPE_PERCPU_ARRAY) keeps Stripes copies of the
// array, each on cache lines of its own. bpf_map_lookup_elem inside a run
// resolves to the copy of the stripe the run is on — under the interpreter and
// the fast paths alike — so two cores bumping one counter write two lines.
// User space sees one array whose every word is the sum of the copies' words:
// Lookup, LookupU32Into and Range read sums, Update leaves the value in one
// copy and zero in the rest so that a Lookup returns it, Delete zeroes all of
// them. The verifier does not tell the two array types apart.
//
// A hash map keys its table on a word: the key's bytes, at most 8 (CreateMap
// refuses wider with ErrWideHashKey), read little-endian. Range hands keys back
// as KeySize bytes.
//
// Hash maps and sockmaps are copy-on-write: a writer rebuilds the table
// under mu and publishes it with one atomic store before it returns, so a
// lookup is one atomic load and no lock, and an Update or Delete that has
// returned is never contradicted by a later lookup. Writers pay a copy of
// the table; both kinds are written by the control plane (filter rules,
// socket registration), not per message.
type Map struct {
	spec MapSpec
	fd   int

	// array backing: slab words, valWords per entry; the byte view a lookup
	// returns aliases the slab, which is never reallocated. copies is 1, or
	// Stripes for a per-CPU array, whose copy c starts c*stride words into
	// the slab; a plain array's stride is 0, so the word of (stripe, entry)
	// is computed the same way for both.
	slab     []uint64
	valWords int
	copies   int
	stride   int

	mu    sync.Mutex                         // serializes hash and sockmap writers
	hash  atomic.Pointer[map[uint64][]byte]  // MapTypeHash: published snapshot, never mutated
	socks atomic.Pointer[map[uint32]SockRef] // MapTypeSockMap: likewise
}

// SockRef is a sockmap entry: the kernel-side reference to a socket that
// msg_redirect_map selects. The kernel never delivers to it; the caller of
// the run does, to the socket it handed UpdateSock.
type SockRef interface {
	// SockID identifies the socket (for tests and diagnostics).
	SockID() uint32
}

// alignedBytes allocates n bytes with 8-byte alignment by backing them with
// a []uint64 — Go's tiny allocator does not guarantee word alignment for
// small byte slices, and atomicAddBytes needs it.
func alignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	w := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&w[0])), n)
}

func newMap(spec MapSpec, fd int) (*Map, error) {
	if spec.KeySize <= 0 && spec.Type != MapTypeSockMap {
		return nil, fmt.Errorf("ebpf: map %q: key size must be positive", spec.Name)
	}
	if spec.MaxEntries <= 0 {
		return nil, fmt.Errorf("ebpf: map %q: max entries must be positive", spec.Name)
	}
	m := &Map{spec: spec, fd: fd}
	switch spec.Type {
	case MapTypeArray, MapTypePerCPUArray:
		if spec.KeySize != 4 {
			return nil, fmt.Errorf("ebpf: array map %q requires 4-byte keys", spec.Name)
		}
		m.valWords = (spec.ValueSize + 7) / 8
		m.copies = 1
		if spec.Type == MapTypePerCPUArray {
			// Whole cache lines per copy, the first on a line boundary.
			m.copies = Stripes
			m.stride = (spec.MaxEntries*m.valWords + lineWords - 1) &^ (lineWords - 1)
		}
		if m.valWords > 0 {
			m.slab = lineAligned((m.copies-1)*m.stride + spec.MaxEntries*m.valWords)
		}
	case MapTypeHash:
		if spec.KeySize > 8 {
			return nil, fmt.Errorf("ebpf: map %q: %w", spec.Name, ErrWideHashKey)
		}
		m.hash.Store(&map[uint64][]byte{})
	case MapTypeSockMap:
		m.socks.Store(&map[uint32]SockRef{})
	default:
		return nil, fmt.Errorf("ebpf: unsupported map type %v", spec.Type)
	}
	return m, nil
}

// lineWords is a cache line in slab words.
const lineWords = 8

// lineAligned allocates n zeroed words starting on a cache-line boundary.
func lineAligned(n int) []uint64 {
	w := make([]uint64, n+lineWords-1)
	off := 0
	for uintptr(unsafe.Pointer(&w[off]))%(lineWords*8) != 0 {
		off++
	}
	return w[off : off+n : off+n]
}

// word returns the first slab word of entry idx in the copy a run on stripe
// sees: the stripe's own copy of a per-CPU array, the one copy of a plain one.
func (m *Map) word(stripe uint32, idx int) *uint64 {
	return &m.slab[int(stripe&(Stripes-1))*m.stride+idx*m.valWords]
}

// view is word's byte view: what bpf_map_lookup_elem hands a run on stripe.
func (m *Map) view(stripe uint32, idx int) []byte {
	if m.valWords == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(m.word(stripe, idx))), m.spec.ValueSize)
}

// isArray reports whether m is slab-backed: an array or a per-CPU array.
func (m *Map) isArray() bool {
	return m.spec.Type == MapTypeArray || m.spec.Type == MapTypePerCPUArray
}

// hashKey is a hash map key's word: its bytes, little-endian.
func hashKey(key []byte) uint64 {
	var k uint64
	for i, b := range key {
		k |= uint64(b) << (8 * i)
	}
	return k
}

// FD returns the map's file descriptor (its handle in programs).
func (m *Map) FD() int { return m.fd }

// Spec returns the creation spec.
func (m *Map) Spec() MapSpec { return m.spec }

func (m *Map) arrayIndex(key []byte) (int, error) {
	if len(key) != 4 {
		return 0, ErrBadKey
	}
	idx := int(binary.LittleEndian.Uint32(key))
	if idx < 0 || idx >= m.spec.MaxEntries {
		return 0, ErrKeyNotFound
	}
	return idx, nil
}

// atomicReadInto copies array entry idx into out word-atomically, so a
// reader never observes a torn counter mid-increment and the race detector
// sees properly paired atomics against OpAtomicAdd. Each word read is the sum
// over the map's copies: exact once the runs that add to them have returned.
func (m *Map) atomicReadInto(idx int, out []byte) {
	var word [8]byte
	off := 0
	for j := 0; j < m.valWords && off < len(out); j++ {
		var sum uint64
		for c := 0; c < m.copies; c++ {
			sum += atomic.LoadUint64(&m.slab[c*m.stride+idx*m.valWords+j])
		}
		binary.NativeEndian.PutUint64(word[:], sum)
		off += copy(out[off:], word[:])
	}
}

// atomicWrite stores value into array entry idx word-atomically: into the
// first copy, the others zeroed, so the sum a reader takes is value. A partial
// trailing word is merged read-modify-write; concurrent adds to padding
// bytes cannot occur because padding is never exposed to programs.
func (m *Map) atomicWrite(idx int, value []byte) {
	var word [8]byte
	for j := 0; j < m.valWords; j++ {
		w := &m.slab[idx*m.valWords+j]
		off := j * 8
		if rem := len(value) - off; rem >= 8 {
			atomic.StoreUint64(w, binary.NativeEndian.Uint64(value[off:]))
		} else {
			binary.NativeEndian.PutUint64(word[:], atomic.LoadUint64(w))
			copy(word[:rem], value[off:])
			atomic.StoreUint64(w, binary.NativeEndian.Uint64(word[:]))
		}
	}
	m.zeroCopies(1, idx)
}

// zeroCopies clears entry idx in every copy from the given one on.
func (m *Map) zeroCopies(from, idx int) {
	for c := from; c < m.copies; c++ {
		for j := 0; j < m.valWords; j++ {
			atomic.StoreUint64(&m.slab[c*m.stride+idx*m.valWords+j], 0)
		}
	}
}

// Lookup returns a copy of the value for key.
func (m *Map) Lookup(key []byte) ([]byte, error) {
	switch m.spec.Type {
	case MapTypeArray, MapTypePerCPUArray:
		idx, err := m.arrayIndex(key)
		if err != nil {
			return nil, err
		}
		out := make([]byte, m.spec.ValueSize)
		m.atomicReadInto(idx, out)
		return out, nil
	default:
		v, err := m.LookupRef(key)
		return append([]byte(nil), v...), err
	}
}

// LookupU32Into reads the value for a uint32 key into out without
// allocating a key or a result — the zero-alloc variant for hot userspace
// readers (metric scrapes on the request path).
func (m *Map) LookupU32Into(key uint32, out []byte) error {
	switch m.spec.Type {
	case MapTypeArray, MapTypePerCPUArray:
		if int(key) >= m.spec.MaxEntries {
			return ErrKeyNotFound
		}
		if len(out) < m.spec.ValueSize {
			return ErrBadValue
		}
		m.atomicReadInto(int(key), out[:m.spec.ValueSize])
		return nil
	default:
		var kb [4]byte
		binary.LittleEndian.PutUint32(kb[:], key)
		v, err := m.LookupRef(kb[:])
		if err != nil {
			return err
		}
		if len(out) < len(v) {
			return ErrBadValue
		}
		copy(out, v)
		return nil
	}
}

// LookupRef returns the live (aliased) value slice for in-place mutation
// (programs write through it, like the pointer bpf_map_lookup_elem returns
// in the kernel). Array entries alias the fixed slab and hash entries are
// read from the published snapshot, so no lock is taken. Of a per-CPU array
// it returns stripe 0's copy, the one Run sees.
func (m *Map) LookupRef(key []byte) ([]byte, error) {
	return m.lookupRef(0, key)
}

// lookupRef is LookupRef for a run on stripe.
func (m *Map) lookupRef(stripe uint32, key []byte) ([]byte, error) {
	switch m.spec.Type {
	case MapTypeArray, MapTypePerCPUArray:
		idx, err := m.arrayIndex(key)
		if err != nil {
			return nil, err
		}
		return m.view(stripe, idx), nil
	case MapTypeHash:
		if len(key) != m.spec.KeySize {
			return nil, ErrBadKey
		}
		v, ok := (*m.hash.Load())[hashKey(key)]
		if !ok {
			return nil, ErrKeyNotFound
		}
		return v, nil
	default:
		return nil, fmt.Errorf("ebpf: lookup unsupported on %v map", m.spec.Type)
	}
}

// Update inserts or replaces the value for key.
func (m *Map) Update(key, value []byte) error {
	switch m.spec.Type {
	case MapTypeArray, MapTypePerCPUArray:
		idx, err := m.arrayIndex(key)
		if err != nil {
			return err
		}
		if len(value) != m.spec.ValueSize {
			return ErrBadValue
		}
		m.atomicWrite(idx, value)
		return nil
	case MapTypeHash:
		if len(key) != m.spec.KeySize {
			return ErrBadKey
		}
		if len(value) != m.spec.ValueSize {
			return ErrBadValue
		}
		v := alignedBytes(len(value))
		copy(v, value)
		m.mu.Lock()
		defer m.mu.Unlock()
		return cowStore(&m.hash, hashKey(key), v, m.spec.MaxEntries)
	default:
		return fmt.Errorf("ebpf: update unsupported on %v map", m.spec.Type)
	}
}

// Delete removes key.
func (m *Map) Delete(key []byte) error {
	switch {
	case m.spec.Type == MapTypeHash && len(key) == m.spec.KeySize:
		m.mu.Lock()
		defer m.mu.Unlock()
		return cowDelete(&m.hash, hashKey(key))
	case m.spec.Type == MapTypeHash || len(key) != 4:
		return ErrBadKey
	}
	return m.DeleteU32(binary.LittleEndian.Uint32(key))
}

// DeleteU32 removes a uint32 key without allocating the wire form.
func (m *Map) DeleteU32(key uint32) error {
	if m.isArray() {
		if int(key) >= m.spec.MaxEntries {
			return ErrKeyNotFound
		}
		m.zeroCopies(0, int(key))
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.spec.Type == MapTypeSockMap {
		return cowDelete(&m.socks, key)
	}
	if m.spec.KeySize != 4 {
		return ErrBadKey
	}
	return cowDelete(&m.hash, uint64(key))
}

// cowStore publishes a copy of the table p points to with key set to v,
// refusing a new key that would take it past max entries. Writers hold mu.
func cowStore[K comparable, V any](p *atomic.Pointer[map[K]V], key K, v V, max int) error {
	cur := *p.Load()
	if _, ok := cur[key]; !ok && len(cur) >= max {
		return ErrMapFull
	}
	next := maps.Clone(cur)
	next[key] = v
	p.Store(&next)
	return nil
}

// cowDelete publishes a copy of the table p points to without key.
func cowDelete[K comparable, V any](p *atomic.Pointer[map[K]V], key K) error {
	cur := *p.Load()
	if _, ok := cur[key]; !ok {
		return ErrKeyNotFound
	}
	next := maps.Clone(cur)
	delete(next, key)
	p.Store(&next)
	return nil
}

// UpdateSock installs a socket reference under key (userspace control-plane
// operation: the SPRIGHT gateway registers each new function instance's
// socket here, §3.2.1). The sockmap is copy-on-write: updates copy under
// the mutex, so the per-message LookupSock on the redirect path is
// lock-free.
func (m *Map) UpdateSock(key uint32, s SockRef) error {
	if m.spec.Type != MapTypeSockMap {
		return fmt.Errorf("ebpf: UpdateSock on %v map", m.spec.Type)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return cowStore(&m.socks, key, s, m.spec.MaxEntries)
}

// LookupSock returns the socket registered under key.
func (m *Map) LookupSock(key uint32) (SockRef, error) {
	if m.spec.Type != MapTypeSockMap {
		return nil, fmt.Errorf("ebpf: LookupSock on %v map", m.spec.Type)
	}
	s, ok := (*m.socks.Load())[key]
	if !ok {
		return nil, ErrKeyNotFound
	}
	return s, nil
}

// Range calls fn for every populated entry with copies of the key and
// value (array maps: every index; hash maps: every present key; sockmaps
// are not supported). Iteration order is unspecified. It stops early if fn
// returns false. Differential tests use this to compare full map state
// across engines.
func (m *Map) Range(fn func(key, value []byte) bool) {
	switch m.spec.Type {
	case MapTypeArray, MapTypePerCPUArray:
		for i := 0; i < m.spec.MaxEntries; i++ {
			key := make([]byte, 4)
			binary.LittleEndian.PutUint32(key, uint32(i))
			val := make([]byte, m.spec.ValueSize)
			m.atomicReadInto(i, val)
			if !fn(key, val) {
				return
			}
		}
	case MapTypeHash:
		for k, v := range *m.hash.Load() {
			key := binary.LittleEndian.AppendUint64(nil, k)[:m.spec.KeySize]
			if !fn(key, append([]byte(nil), v...)) {
				return
			}
		}
	}
}

// U32Key encodes a uint32 map key.
func U32Key(k uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, k)
	return b
}

// U64FromValue decodes a uint64 map value.
func U64FromValue(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
