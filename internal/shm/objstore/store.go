// Package objstore implements SPRIGHT's ephemeral shared-memory object
// store: a per-chain keyed tier for intermediates that outlive a single
// hop or exceed a single pool slab (ML pipeline tensors, analytics DAG
// partials, >BufSize request payloads).
//
// An object is a ref-counted sequence of pool slabs — assembled once by a
// chunked write, then read in place by any number of consumers holding its
// compact 64-bit handle. Handles ride the pool's descriptor-adjacent
// headroom (shm.Pool.SetObjHandle), so descriptors stay 16 bytes and the
// handle follows the message across hops, fan-out branches and the
// response path exactly like the trace context does. The reference the
// buffer carries is released by the pool's object release hook when the
// buffer's own reference count reaches zero: object lifetime is tied to
// request completion, and a leaked object surfaces in LeakCheck (the
// store's, and — while resident — the pool's).
//
// Cold objects spill to a file-backed tier (LRU, pinned objects exempt)
// when a resident-byte budget is exceeded or when the pool itself runs
// dry, and reload transparently on the next Open. This is the tiered
// ephemeral-storage shape of "Shattering the Ephemeral Storage Cost
// Barrier": the hot tier is the chain's shared memory, the cold tier is a
// local file, and callers never see the difference beyond latency.
package objstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"

	"github.com/spright-go/spright/internal/shm"
)

// Store errors.
var (
	// ErrStoreClosed marks operations against a closed store.
	ErrStoreClosed = errors.New("objstore: store closed")
	// ErrStaleHandle marks a handle whose object was already released (or
	// never existed) — the use-after-free of the object tier, made loud.
	ErrStaleHandle = errors.New("objstore: stale object handle")
	// ErrNoObject marks Open/Ref of the zero handle (no object attached).
	ErrNoObject = errors.New("objstore: no object")
	// ErrWriterCommitted marks writes to an already sealed writer.
	ErrWriterCommitted = errors.New("objstore: writer already committed")
)

// Handle is the compact object identity carried in buffer headroom:
// generation in the high 32 bits, object ID in the low 32. The zero Handle
// means "no object".
type Handle uint64

// handleOf packs an object's identity.
func handleOf(id, gen uint32) Handle { return Handle(uint64(gen)<<32 | uint64(id)) }

func (h Handle) id() uint32  { return uint32(h) }
func (h Handle) gen() uint32 { return uint32(h >> 32) }

// Valid reports whether the handle names an object at all (it may still be
// stale).
func (h Handle) Valid() bool { return h != 0 }

func (h Handle) String() string {
	return fmt.Sprintf("obj{id=%d gen=%d}", h.id(), h.gen())
}

// Config tunes one store.
type Config struct {
	// MaxResidentBytes bounds the store's shared-memory footprint
	// (slab-capacity bytes of resident objects). Beyond it the coldest
	// unpinned objects spill to the file tier. 0 disables the budget:
	// objects spill only when the pool itself is exhausted.
	MaxResidentBytes int64
	// MaxObjectBytes caps a single object; a chunked write that would
	// exceed it fails with shm.ErrPayloadTooLarge (the gateway maps that
	// to HTTP 413). 0 = unlimited.
	MaxObjectBytes int64
	// SpillDir is the file-backed tier's directory ("" = os.TempDir()).
	SpillDir string
}

// Stats is a snapshot of store activity for the metrics exporter.
type Stats struct {
	// Objects is the number of live objects; Resident/Spilled split them
	// by tier.
	Objects  int
	Resident int
	Spilled  int
	// ResidentBytes is the shared-memory footprint (slab capacity) of
	// resident objects; SpilledBytes the payload bytes parked in files.
	ResidentBytes int64
	SpilledBytes  int64
	// Puts counts committed objects; Deletes objects whose last reference
	// dropped; Refs/Opens reference and reader activity.
	Puts    uint64
	Deletes uint64
	Refs    uint64
	Opens   uint64
	// Spills/Reloads count tier transitions, with byte totals;
	// ExhaustSpills is the subset of spills forced by pool exhaustion
	// rather than the resident-byte budget.
	Spills        uint64
	Reloads       uint64
	SpillBytes    uint64
	ReloadBytes   uint64
	ExhaustSpills uint64
	// SpillErrors counts failed spill attempts (file-tier I/O errors).
	SpillErrors uint64
}

// object is one stored object. Slab membership and tier state are guarded
// by the store mutex; while pins > 0 the object is wired resident and its
// slab slice is immutable, so readers touch it without the lock.
type object struct {
	id   uint32
	gen  uint32
	key  string
	size int64

	refs int // lifetime references (creator, buffers, explicit Refs)
	pins int // open readers; pinned objects cannot spill

	// busy marks a tier transition (spill or reload) whose file I/O is
	// running with the store mutex RELEASED: the object is excluded from
	// spill candidacy, Open/Spill wait it out on Store.cond, and the
	// transition holds its own reference so the object cannot be deleted
	// mid-I/O.
	busy bool

	slabs   []uint32 // pool handles (resident)
	spilled bool
	path    string // spill file (spilled)

	prev, next *object // LRU links (resident objects only)
}

// footprint is the object's shared-memory cost in slab-capacity bytes.
func (o *object) footprint(bufSize int) int64 {
	return int64(len(o.slabs)) * int64(bufSize)
}

// Store is a keyed, ref-counted object store layered on one chain's pool.
// It is safe for concurrent use.
type Store struct {
	pool *shm.Pool
	cfg  Config

	mu       sync.Mutex
	cond     *sync.Cond // broadcast when a busy tier transition finishes
	objs     map[uint32]*object
	byKey    map[string]uint32 // key → latest object ID (non-empty keys)
	nextID   uint32
	nextGen  uint32
	resident int64 // footprint bytes of resident objects
	closed   bool

	// lruHead/lruTail: most-recently-used at head; spill victims come from
	// the tail. Sentinel-free: nil ends.
	lruHead, lruTail *object

	stats Stats

	// eventHook observes tier transitions ("spill"/"reload" with payload
	// bytes) for the flight recorder. Guarded by mu; invoked with mu held,
	// so it must be fast and must not call back into the store.
	eventHook func(event string, bytes int64)

	readerPool sync.Pool // *Object
}

// New builds a store over pool and registers its release hook, so object
// references attached to buffers (shm.Pool.SetObjHandle) are returned when
// the buffer dies. One store per pool.
func New(pool *shm.Pool, cfg Config) *Store {
	s := &Store{
		pool:  pool,
		cfg:   cfg,
		objs:  make(map[uint32]*object),
		byKey: make(map[string]uint32),
	}
	s.cond = sync.NewCond(&s.mu)
	s.readerPool.New = func() any { return new(Object) }
	pool.SetObjReleaseHook(func(obj uint64) { _ = s.Release(Handle(obj)) })
	return s
}

// SetEventHook installs an observer for tier transitions: fn is called
// with "spill" or "reload" and the object's payload byte count whenever an
// object changes tier. The hook runs with the store lock held — it must be
// fast, non-blocking, and must never call back into the store.
func (s *Store) SetEventHook(fn func(event string, bytes int64)) {
	s.mu.Lock()
	s.eventHook = fn
	s.mu.Unlock()
}

// notifyLocked fires the event hook. Callers hold s.mu.
func (s *Store) notifyLocked(event string, bytes int64) {
	if s.eventHook != nil {
		s.eventHook(event, bytes)
	}
}

// MaxObjectBytes returns the per-object size cap (0 = unlimited) — the
// gateway sizes its HTTP body limiter from it so an oversized request is
// refused while streaming in, not after being buffered whole.
func (s *Store) MaxObjectBytes() int64 { return s.cfg.MaxObjectBytes }

// --- LRU maintenance (store.mu held) ---

func (s *Store) lruPushFront(o *object) {
	o.prev, o.next = nil, s.lruHead
	if s.lruHead != nil {
		s.lruHead.prev = o
	}
	s.lruHead = o
	if s.lruTail == nil {
		s.lruTail = o
	}
}

func (s *Store) lruRemove(o *object) {
	if o.prev != nil {
		o.prev.next = o.next
	} else if s.lruHead == o {
		s.lruHead = o.next
	}
	if o.next != nil {
		o.next.prev = o.prev
	} else if s.lruTail == o {
		s.lruTail = o.prev
	}
	o.prev, o.next = nil, nil
}

func (s *Store) lruTouch(o *object) {
	if s.lruHead == o {
		return
	}
	s.lruRemove(o)
	s.lruPushFront(o)
}

// --- writing ---

// Writer assembles one object from pool slabs via chunked writes. It is
// not safe for concurrent use. Either Commit or Abort must be called, or
// the staged slabs leak (and surface in the pool's LeakCheck).
type Writer struct {
	s      *Store
	key    string
	slabs  []uint32
	filled int // slabs[:filled] hold data; the rest were taken ahead for the Write in progress
	size   int64
	cur    []byte // unwritten remainder of slabs[filled-1]
	sealed bool
}

// Create starts a chunked object write under key ("" = anonymous).
func (s *Store) Create(key string) *Writer {
	return &Writer{s: s, key: key}
}

// Write appends p to the object, allocating pool slabs as needed. On pool
// exhaustion the store spills its coldest unpinned objects to the file
// tier and retries; only a pool with nothing left to spill refuses the
// write. Implements io.Writer.
func (w *Writer) Write(p []byte) (int, error) {
	if w.sealed {
		return 0, ErrWriterCommitted
	}
	if max := w.s.cfg.MaxObjectBytes; max > 0 && w.size+int64(len(p)) > max {
		return 0, fmt.Errorf("%w: object %d > %d",
			shm.ErrPayloadTooLarge, w.size+int64(len(p)), max)
	}
	written := 0
	for len(p) > 0 {
		if len(w.cur) == 0 {
			if w.filled == len(w.slabs) {
				if err := w.takeSlabs(len(p)); err != nil {
					return written, err
				}
			}
			b, berr := w.s.pool.Bytes(w.slabs[w.filled])
			if berr != nil {
				return written, berr
			}
			w.filled++
			w.cur = b
		}
		n := copy(w.cur, p)
		w.cur = w.cur[n:]
		p = p[n:]
		w.size += int64(n)
		written += n
	}
	return written, nil
}

// Commit seals the object and returns its handle, holding one reference
// for the caller (release it with Store.Release, or transfer it by
// attaching the handle to a buffer).
func (w *Writer) Commit() (Handle, error) {
	if w.sealed {
		return 0, ErrWriterCommitted
	}
	w.sealed = true
	s := w.s
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		w.releaseSlabs()
		return 0, ErrStoreClosed
	}
	s.nextID++
	s.nextGen++
	o := &object{
		id:    s.nextID,
		gen:   s.nextGen,
		key:   w.key,
		size:  w.size,
		refs:  1,
		slabs: w.slabs,
	}
	s.objs[o.id] = o
	if o.key != "" {
		s.byKey[o.key] = o.id
	}
	s.resident += o.footprint(s.pool.BufSize())
	s.lruPushFront(o)
	s.stats.Puts++
	s.enforceBudgetLocked(o)
	s.mu.Unlock()
	w.slabs = nil
	return handleOf(o.id, o.gen), nil
}

// Abort discards an uncommitted object, returning its slabs to the pool.
func (w *Writer) Abort() {
	if w.sealed {
		return
	}
	w.sealed = true
	w.releaseSlabs()
}

func (w *Writer) releaseSlabs() {
	w.s.pool.PutN(w.slabs)
	w.slabs = nil
}

// slabBatch bounds how many slabs one pool call hands a writer, so a large
// write does not sweep the freelist in one go under the shard locks.
const slabBatch = 64

// takeSlabs appends to w.slabs the slabs the n bytes still to be written
// need, up to slabBatch of them, in one pool call. A pool that gives none goes
// through allocSlab, which spills cold objects and retries, for one.
func (w *Writer) takeSlabs(n int) error {
	bufSize := w.s.pool.BufSize()
	need := min((n+bufSize-1)/bufSize, slabBatch)
	base := len(w.slabs)
	w.slabs = slices.Grow(w.slabs, need)[:base+need]
	got := w.s.pool.GetN(w.slabs[base:])
	w.slabs = w.slabs[:base+got]
	if got > 0 {
		return nil
	}
	h, err := w.s.allocSlab()
	if err != nil {
		return err
	}
	w.slabs = append(w.slabs, h)
	return nil
}

// Put stores data as one object under key in a single chunked write.
func (s *Store) Put(key string, data []byte) (Handle, error) {
	w := s.Create(key)
	if _, err := w.Write(data); err != nil {
		w.Abort()
		return 0, err
	}
	return w.Commit()
}

// allocSlab gets one pool buffer, spilling cold objects on exhaustion.
func (s *Store) allocSlab() (uint32, error) {
	for {
		h, err := s.pool.Get()
		if err == nil {
			return h, nil
		}
		if !errors.Is(err, shm.ErrPoolExhausted) {
			return 0, err
		}
		s.mu.Lock()
		spilled := s.spillColdestLocked(nil)
		if spilled {
			s.stats.ExhaustSpills++
		}
		s.mu.Unlock()
		if !spilled {
			return 0, err
		}
	}
}

// enforceBudgetLocked spills LRU-cold objects until the resident footprint
// fits the configured budget. keep (may be nil) is exempted so a freshly
// committed or reloaded object is never immediately re-spilled.
func (s *Store) enforceBudgetLocked(keep *object) {
	if s.cfg.MaxResidentBytes <= 0 {
		return
	}
	for s.resident > s.cfg.MaxResidentBytes {
		if !s.spillColdestLocked(keep) {
			return
		}
	}
}

// spillColdestLocked spills the least-recently-used unpinned resident
// object, reporting whether one was found. Called with s.mu held; the
// victim's file I/O runs with the lock released (see spillObjectLocked),
// so the lock may be dropped and re-acquired before this returns.
func (s *Store) spillColdestLocked(keep *object) bool {
	for o := s.lruTail; o != nil; o = o.prev {
		if o.pins > 0 || o.busy || o == keep || len(o.slabs) == 0 {
			continue
		}
		if err := s.spillObjectLocked(o); err != nil {
			s.stats.SpillErrors++
			if s.closed {
				return false
			}
			// o survived the failed spill (still resident, still linked),
			// so the walk can continue past it.
			continue
		}
		return true
	}
	return false
}

// unrefLocked drops one reference with s.mu held, removing the object when
// the count reaches zero. The freed slab handles are returned so the caller
// can release them to the pool (safe under s.mu — object slabs never carry
// attached handles, so pool.Put cannot re-enter the store).
func (s *Store) unrefLocked(o *object) []uint32 {
	o.refs--
	if o.refs > 0 {
		return nil
	}
	// Last reference: remove the object. Open readers hold a reference, so
	// pins are necessarily zero here.
	delete(s.objs, o.id)
	if o.key != "" && s.byKey[o.key] == o.id {
		delete(s.byKey, o.key)
	}
	if o.spilled {
		if o.path != "" {
			_ = os.Remove(o.path)
			o.path = ""
		}
	} else {
		s.resident -= o.footprint(s.pool.BufSize())
		s.lruRemove(o)
	}
	slabs := o.slabs
	o.slabs = nil
	s.stats.Deletes++
	return slabs
}

// putSlabs returns freed slab handles to the pool, in one call.
func (s *Store) putSlabs(slabs []uint32) { s.pool.PutN(slabs) }

// spillObjectLocked writes o's payload to the file tier and frees its
// slabs. Called with s.mu held and returns with it held, but the file
// creation and writes run with the lock RELEASED: o is marked busy (no
// other transition or reader touches it — Open waits on s.cond)
// and holds a transition reference so a concurrent Release cannot delete
// it mid-write. Hot-path Open/Release/Put on other objects therefore never
// stall behind spill I/O.
func (s *Store) spillObjectLocked(o *object) error {
	o.busy = true
	o.refs++ // transition reference
	slabs := o.slabs
	size := o.size
	s.mu.Unlock()

	var path string
	f, err := os.CreateTemp(s.spillDir(), fmt.Sprintf("spright-obj-%d-%d-*", o.id, o.gen))
	if err == nil {
		path = f.Name()
		left := size
		for _, h := range slabs {
			if left <= 0 {
				break
			}
			b, berr := s.pool.Bytes(h)
			if berr != nil {
				err = berr
				break
			}
			n := int64(len(b))
			if n > left {
				n = left
			}
			if _, werr := f.Write(b[:n]); werr != nil {
				err = werr
				break
			}
			left -= n
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}

	s.mu.Lock()
	o.busy = false
	s.cond.Broadcast()
	if err == nil && s.closed {
		// Close ran mid-spill: keep the object resident (Close's contract
		// leaves leaked residents attributable in the pool's LeakCheck)
		// and discard the file.
		err = ErrStoreClosed
	}
	if err != nil {
		if path != "" {
			_ = os.Remove(path)
		}
		s.putSlabs(s.unrefLocked(o))
		return err
	}
	s.resident -= o.footprint(s.pool.BufSize())
	s.lruRemove(o)
	s.putSlabs(o.slabs)
	o.slabs = nil
	o.spilled = true
	o.path = path
	s.stats.Spills++
	s.stats.SpillBytes += uint64(size)
	s.notifyLocked("spill", size)
	s.putSlabs(s.unrefLocked(o))
	return nil
}

// reloadObjectLocked brings a spilled object back into pool slabs. Same
// locking contract as spillObjectLocked: called and returns with s.mu
// held, file reads and slab fills run with the lock released while o is
// busy and holds a transition reference.
func (s *Store) reloadObjectLocked(o *object) error {
	o.busy = true
	o.refs++ // transition reference
	path := o.path
	size := o.size
	s.mu.Unlock()

	bufSize := s.pool.BufSize()
	nSlabs := int((size + int64(bufSize) - 1) / int64(bufSize))
	slabs := make([]uint32, 0, nSlabs)
	var exhaustSpills uint64
	f, err := os.Open(path)
	if err == nil {
		left := size
		for len(slabs) < nSlabs {
			h, gerr := s.pool.Get()
			if gerr != nil {
				if !errors.Is(gerr, shm.ErrPoolExhausted) {
					err = gerr
					break
				}
				// Pool pressure during reload spills *other* cold objects;
				// o itself is busy and therefore never its own victim.
				s.mu.Lock()
				ok := s.spillColdestLocked(o)
				s.mu.Unlock()
				if !ok {
					err = gerr
					break
				}
				exhaustSpills++
				continue
			}
			slabs = append(slabs, h)
			b, berr := s.pool.Bytes(h)
			if berr != nil {
				err = berr
				break
			}
			n := int64(len(b))
			if n > left {
				n = left
			}
			if _, rerr := io.ReadFull(f, b[:n]); rerr != nil {
				err = fmt.Errorf("objstore: reload %s: %w", path, rerr)
				break
			}
			left -= n
		}
		_ = f.Close()
	}

	s.mu.Lock()
	o.busy = false
	s.cond.Broadcast()
	s.stats.ExhaustSpills += exhaustSpills
	if err != nil {
		s.putSlabs(slabs)
		s.putSlabs(s.unrefLocked(o))
		// Close skipped this object's spill file while the reload owned
		// it; with the reload abandoned, finish that cleanup here.
		if s.closed && o.spilled && o.path != "" {
			_ = os.Remove(o.path)
			o.path = ""
		}
		return err
	}
	_ = os.Remove(path)
	o.path = ""
	o.spilled = false
	o.slabs = slabs
	s.resident += o.footprint(bufSize)
	s.lruPushFront(o)
	s.stats.Reloads++
	s.stats.ReloadBytes += uint64(size)
	s.notifyLocked("reload", size)
	s.enforceBudgetLocked(o)
	s.putSlabs(s.unrefLocked(o))
	return nil
}

func (s *Store) spillDir() string {
	if s.cfg.SpillDir != "" {
		return s.cfg.SpillDir
	}
	return os.TempDir()
}

// --- reference counting ---

// lookupLocked resolves a handle, failing loudly on stale generations.
func (s *Store) lookupLocked(h Handle) (*object, error) {
	if h == 0 {
		return nil, ErrNoObject
	}
	o, ok := s.objs[h.id()]
	if !ok || o.gen != h.gen() {
		return nil, fmt.Errorf("%w: %s", ErrStaleHandle, h)
	}
	return o, nil
}

// Ref takes one additional reference on the object (fan-out consumers,
// caching a handle past the current request).
func (s *Store) Ref(h Handle) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrStoreClosed
	}
	o, err := s.lookupLocked(h)
	if err != nil {
		return err
	}
	o.refs++
	s.stats.Refs++
	return nil
}

// Release drops one reference; the object is deleted — slabs freed or
// spill file removed — when the count reaches zero. Releasing on a closed
// store still works: teardown must be able to drain.
func (s *Store) Release(h Handle) error {
	s.mu.Lock()
	o, err := s.lookupLocked(h)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	// A busy object cannot die here: its tier transition holds a reference
	// of its own, so refs stays positive until the transition commits.
	slabs := s.unrefLocked(o)
	s.mu.Unlock()
	s.putSlabs(slabs)
	return nil
}

// Attach transfers one object reference onto buffer buf: the handle rides
// the buffer's headroom downstream, and the pool's release hook returns
// the reference when the buffer dies. A handle already attached to the
// buffer is displaced and its reference released.
func (s *Store) Attach(buf uint32, h Handle) error {
	if err := s.Ref(h); err != nil {
		return err
	}
	if prev := s.pool.SetObjHandle(buf, uint64(h)); prev != 0 {
		_ = s.Release(Handle(prev))
	}
	return nil
}

// Detach removes buf's attached handle and releases the reference it
// carried.
func (s *Store) Detach(buf uint32) {
	if prev := s.pool.SetObjHandle(buf, 0); prev != 0 {
		_ = s.Release(Handle(prev))
	}
}

// Lookup resolves a key to the handle of the most recently committed
// object stored under it.
func (s *Store) Lookup(key string) (Handle, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id, ok := s.byKey[key]
	if !ok {
		return 0, false
	}
	return handleOf(id, s.objs[id].gen), true
}

// --- reading ---

// Object is one open reader: a pinned, zero-copy view over the object's
// slabs. Readers are pooled — Close returns them — so steady-state
// Open/read/Close cycles allocate nothing. An Object is valid until Close.
type Object struct {
	s *Store
	o *object
}

// Open pins the object resident (reloading it from the file tier if it
// spilled) and returns a zero-copy reader. Every Open must be balanced by
// Close; while open the object cannot spill, so slab views stay valid.
func (s *Store) Open(h Handle) (*Object, error) {
	s.mu.Lock()
	for {
		if s.closed {
			s.mu.Unlock()
			return nil, ErrStoreClosed
		}
		o, err := s.lookupLocked(h)
		if err != nil {
			s.mu.Unlock()
			return nil, err
		}
		if o.busy {
			// A spill or reload owns the object with the lock dropped for
			// its file I/O; wait for the transition to commit rather than
			// pinning slabs out from under it.
			s.cond.Wait()
			continue
		}
		if o.spilled {
			if err := s.reloadObjectLocked(o); err != nil {
				s.mu.Unlock()
				return nil, err
			}
			continue // revalidate: the lock was dropped during the reload
		}
		o.refs++ // the reader's reference: Close releases it
		o.pins++
		s.lruTouch(o)
		s.stats.Opens++
		s.mu.Unlock()
		r := s.readerPool.Get().(*Object)
		r.s, r.o = s, o
		return r, nil
	}
}

// Close unpins the reader and recycles it. The reader must not be used
// afterwards.
func (r *Object) Close() error {
	s, o := r.s, r.o
	if s == nil {
		return nil
	}
	r.s, r.o = nil, nil
	s.mu.Lock()
	o.pins--
	s.mu.Unlock()
	err := s.Release(handleOf(o.id, o.gen))
	s.readerPool.Put(r)
	return err
}

// Size returns the object's payload size in bytes.
func (r *Object) Size() int64 { return r.o.size }

// Slabs returns the number of pool slabs backing the object.
func (r *Object) Slabs() int { return len(r.o.slabs) }

// Slab returns the zero-copy view of slab i's valid bytes: the slice
// aliases the pool, so N consumers reading the same object touch one set
// of pages and allocate nothing.
func (r *Object) Slab(i int) []byte {
	b, err := r.s.pool.Bytes(r.o.slabs[i])
	if err != nil {
		return nil
	}
	lo := int64(i) * int64(r.s.pool.BufSize())
	n := r.o.size - lo
	if n > int64(len(b)) {
		n = int64(len(b))
	}
	if n < 0 {
		n = 0
	}
	return b[:n]
}

// ReadAt copies object bytes at off into p (io.ReaderAt): the convenience
// path for consumers that want contiguous bytes and accept the copy.
func (r *Object) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("objstore: negative offset %d", off)
	}
	if off >= r.o.size {
		return 0, io.EOF
	}
	bufSize := int64(r.s.pool.BufSize())
	read := 0
	for read < len(p) && off < r.o.size {
		b := r.Slab(int(off / bufSize))
		if b == nil {
			return read, shm.ErrNotOwned
		}
		n := copy(p[read:], b[off%bufSize:])
		read += n
		off += int64(n)
	}
	if read < len(p) {
		return read, io.EOF
	}
	return read, nil
}

// --- lifecycle ---

// Stats returns a snapshot of store activity.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Objects = len(s.objs)
	st.ResidentBytes = s.resident
	for _, o := range s.objs {
		if o.spilled {
			st.Spilled++
			st.SpilledBytes += o.size
		} else {
			st.Resident++
		}
	}
	return st
}

// LeakCheck reports objects still holding references — the object-tier
// analogue of shm.Pool.LeakCheck. Once all in-flight requests have drained
// and callers have released their handles, it must return nil: an entry
// here is an object reference that escaped its request's lifetime.
func (s *Store) LeakCheck() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.objs) == 0 {
		return nil
	}
	var leaked []string
	for _, o := range s.objs {
		tier := "resident"
		if o.spilled {
			tier = "spilled"
		}
		key := o.key
		if key == "" {
			key = "(anon)"
		}
		leaked = append(leaked, fmt.Sprintf("%s key=%s refs=%d %s %dB",
			handleOf(o.id, o.gen), key, o.refs, tier, o.size))
	}
	sort.Strings(leaked)
	return fmt.Errorf("objstore: %d leaked objects: %s",
		len(leaked), strings.Join(leaked, ", "))
}

// Close marks the store closed and removes its spill files. Resident
// slabs of leaked objects are deliberately left allocated so the pool's
// LeakCheck still attributes them; Release keeps working for late drains.
func (s *Store) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, o := range s.objs {
		// A busy object's file belongs to its in-flight transition, which
		// observes closed at commit time and cleans up itself.
		if o.spilled && o.path != "" && !o.busy {
			_ = os.Remove(o.path)
			o.path = ""
		}
	}
}
