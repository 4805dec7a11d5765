package ebpf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/spright-go/spright/internal/shm"
)

// u64Value encodes a uint64 map value.
func u64Value(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

// entries is the number of keys a hash map holds.
func entries(m *Map) int { return len(*m.hash.Load()) }

func newTestMap(t *testing.T, spec MapSpec) (*Kernel, *Map) {
	t.Helper()
	k := NewKernel()
	m, err := k.CreateMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	return k, m
}

func TestArrayMapLookupUpdate(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "a", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err := m.Update(U32Key(2), u64Value(99)); err != nil {
		t.Fatal(err)
	}
	v, err := m.Lookup(U32Key(2))
	if err != nil || U64FromValue(v) != 99 {
		t.Fatalf("got %v, %v", v, err)
	}
	// array maps are pre-allocated: lookup of an untouched index yields zero
	v, err = m.Lookup(U32Key(0))
	if err != nil || U64FromValue(v) != 0 {
		t.Fatalf("untouched index: got %v, %v", v, err)
	}
}

func TestArrayMapOutOfRange(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "a", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if _, err := m.Lookup(U32Key(4)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
	if err := m.Update(U32Key(4), u64Value(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
}

func TestArrayMapRequiresU32Keys(t *testing.T) {
	k := NewKernel()
	if _, err := k.CreateMap(MapSpec{Name: "a", Type: MapTypeArray, KeySize: 8, ValueSize: 8, MaxEntries: 1}); err == nil {
		t.Fatal("array map with non-4-byte keys must be rejected")
	}
}

func TestArrayMapDeleteZeroes(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "a", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	m.Update(U32Key(1), u64Value(7))
	if err := m.Delete(U32Key(1)); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Lookup(U32Key(1))
	if U64FromValue(v) != 0 {
		t.Fatal("delete on array map must zero the slot")
	}
}

func TestHashMapCRUD(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 2})
	if _, err := m.Lookup(U32Key(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
	if err := m.Update(U32Key(1), u64Value(11)); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(U32Key(2), u64Value(22)); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(U32Key(3), u64Value(33)); !errors.Is(err, ErrMapFull) {
		t.Fatalf("want ErrMapFull, got %v", err)
	}
	// overwrite within capacity is fine
	if err := m.Update(U32Key(1), u64Value(111)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(U32Key(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(U32Key(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: want ErrKeyNotFound, got %v", err)
	}
	if entries(m) != 1 {
		t.Fatalf("entries=%d want 1", entries(m))
	}
}

func TestHashMapKeyValueSizeEnforced(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err := m.Update([]byte{1}, u64Value(1)); !errors.Is(err, ErrBadKey) {
		t.Fatalf("want ErrBadKey, got %v", err)
	}
	if err := m.Update(U32Key(1), []byte{1}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("want ErrBadValue, got %v", err)
	}
}

func TestMapLookupReturnsCopy(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	m.Update(U32Key(1), u64Value(5))
	v, _ := m.Lookup(U32Key(1))
	v[0] = 0xFF
	v2, _ := m.Lookup(U32Key(1))
	if U64FromValue(v2) != 5 {
		t.Fatal("Lookup must return a copy")
	}
}

func TestMapLookupRefAliases(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	m.Update(U32Key(1), u64Value(5))
	ref, err := m.LookupRef(U32Key(1))
	if err != nil {
		t.Fatal(err)
	}
	ref[0] = 42
	v, _ := m.Lookup(U32Key(1))
	if v[0] != 42 {
		t.Fatal("LookupRef must alias the stored value (kernel pointer semantics)")
	}
}

// TestHashMapSnapshotSemantics: the copy-on-write table keeps the kernel's
// semantics. A live value reference stays live across writes to other keys
// (republishing copies the table, not the values), and a write that has
// returned is seen by every later lookup while other goroutines read.
func TestHashMapSnapshotSemantics(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 64})
	if err := m.Update(U32Key(1), u64Value(5)); err != nil {
		t.Fatal(err)
	}
	ref, err := m.LookupRef(U32Key(1))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.LookupRef(U32Key(1)); err != nil {
					t.Errorf("key 1 vanished under unrelated writes: %v", err)
					return
				}
				m.Range(func(_, _ []byte) bool { return true })
				_ = entries(m)
			}
		}()
	}
	for i := 0; i < 500; i++ {
		k := U32Key(uint32(2 + i%32))
		if err := m.Update(k, u64Value(uint64(i))); err != nil {
			t.Fatal(err)
		}
		if v, err := m.Lookup(k); err != nil || U64FromValue(v) != uint64(i) {
			t.Fatalf("lookup after Update returned: %v, %v", v, err)
		}
		if err := m.Delete(k); err != nil {
			t.Fatal(err)
		}
		if _, err := m.LookupRef(k); !errors.Is(err, ErrKeyNotFound) {
			t.Fatalf("lookup after Delete returned: %v", err)
		}
	}
	close(stop)
	readers.Wait()

	ref[0] = 42
	if v, _ := m.Lookup(U32Key(1)); v[0] != 42 {
		t.Fatal("a value reference taken before other keys were written must still alias the stored value")
	}
}

type fakeSock struct {
	id   uint32
	got  [][]byte
	fail error
}

func (f *fakeSock) DeliverDescriptor(b []byte) error {
	cp := make([]byte, len(b))
	copy(cp, b)
	f.got = append(f.got, cp)
	return f.fail
}
func (f *fakeSock) SockID() uint32 { return f.id }

func TestSockMapUpdateLookup(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "s", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 2})
	s1 := &fakeSock{id: 1}
	if err := m.UpdateSock(10, s1); err != nil {
		t.Fatal(err)
	}
	got, err := m.LookupSock(10)
	if err != nil || got.SockID() != 1 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := m.LookupSock(11); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("want ErrKeyNotFound, got %v", err)
	}
}

func TestSockMapCapacity(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "s", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 1})
	m.UpdateSock(1, &fakeSock{id: 1})
	if err := m.UpdateSock(2, &fakeSock{id: 2}); !errors.Is(err, ErrMapFull) {
		t.Fatalf("want ErrMapFull, got %v", err)
	}
	// replacement of an existing key is allowed at capacity
	if err := m.UpdateSock(1, &fakeSock{id: 3}); err != nil {
		t.Fatal(err)
	}
}

func TestSockMapDelete(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "s", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 2})
	m.UpdateSock(1, &fakeSock{id: 1})
	if err := m.Delete(U32Key(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.LookupSock(1); !errors.Is(err, ErrKeyNotFound) {
		t.Fatal("deleted sock must be gone")
	}
}

func TestSockMapRejectsDataOps(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "s", Type: MapTypeSockMap, KeySize: 4, ValueSize: 4, MaxEntries: 2})
	if _, err := m.Lookup(U32Key(1)); err == nil {
		t.Fatal("byte lookup on sockmap must fail")
	}
	if err := m.Update(U32Key(1), u64Value(1)); err == nil {
		t.Fatal("byte update on sockmap must fail")
	}
}

func TestMapSpecValidation(t *testing.T) {
	k := NewKernel()
	if _, err := k.CreateMap(MapSpec{Name: "bad", Type: MapTypeHash, KeySize: 0, ValueSize: 8, MaxEntries: 1}); err == nil {
		t.Fatal("zero key size must be rejected")
	}
	if _, err := k.CreateMap(MapSpec{Name: "bad", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 0}); err == nil {
		t.Fatal("zero max entries must be rejected")
	}
}

func TestU64ValueRoundTrip(t *testing.T) {
	f := func(v uint64) bool { return U64FromValue(u64Value(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: hash map behaves like a Go map under random update/delete.
func TestHashMapModelProperty(t *testing.T) {
	f := func(keys []uint32, vals []uint64) bool {
		_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 1 << 16})
		model := map[uint32]uint64{}
		for i, k := range keys {
			v := uint64(i)
			if i < len(vals) {
				v = vals[i]
			}
			if i%3 == 2 {
				errM := m.Delete(U32Key(k))
				_, inModel := model[k]
				delete(model, k)
				if inModel != (errM == nil) {
					return false
				}
				continue
			}
			if m.Update(U32Key(k), u64Value(v)) != nil {
				return false
			}
			model[k] = v
		}
		if entries(m) != len(model) {
			return false
		}
		for k, v := range model {
			got, err := m.Lookup(U32Key(k))
			if err != nil || U64FromValue(got) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHashMapRefusesWideKeys: a hash map's table is keyed on one word, so
// CreateMap refuses a key wider than 8 bytes, by name, and takes 8.
func TestHashMapRefusesWideKeys(t *testing.T) {
	k := NewKernel()
	if _, err := k.CreateMap(MapSpec{Name: "wide", Type: MapTypeHash, KeySize: 9, ValueSize: 8, MaxEntries: 4}); !errors.Is(err, ErrWideHashKey) {
		t.Fatalf("9-byte hash key: got %v, want ErrWideHashKey", err)
	}
	if _, err := k.CreateMap(MapSpec{Name: "word", Type: MapTypeHash, KeySize: 8, ValueSize: 8, MaxEntries: 4}); err != nil {
		t.Fatalf("8-byte hash key refused: %v", err)
	}
	if n := k.MapCount(); n != 1 {
		t.Fatalf("%d maps registered, want only the 8-byte one", n)
	}
}

// Hash-map model: the fuzzer's map geometry, small enough that a sequence
// fills it and collides on keys.
const (
	modelMaxEntries = 4
	modelValueSize  = 3
)

// modelKey is key number idx (0–7) at length n: every byte set, so a key's
// high bytes matter as much as its low ones.
func modelKey(idx byte, n int) []byte {
	key := make([]byte, n)
	for i := range key {
		key[i] = (idx + 1) * byte(2*i+1)
	}
	return key
}

// requireMapMatchesModel fails unless Range walks exactly the model's entries,
// each key KeySize bytes long, and Entries counts them.
func requireMapMatchesModel(t *testing.T, m *Map, model map[string][]byte) {
	t.Helper()
	seen := map[string][]byte{}
	m.Range(func(k, v []byte) bool {
		if len(k) != m.Spec().KeySize {
			t.Fatalf("Range handed a %d-byte key %x from a map of %d-byte keys", len(k), k, m.Spec().KeySize)
		}
		if _, dup := seen[string(k)]; dup {
			t.Fatalf("Range handed key %x twice", k)
		}
		seen[string(k)] = v
		return true
	})
	if len(seen) != len(model) || entries(m) != len(model) {
		t.Fatalf("map holds %d entries (Entries %d), model %d", len(seen), entries(m), len(model))
	}
	for k, v := range model {
		if !bytes.Equal(seen[k], v) {
			t.Fatalf("key %x: map %x, model %x", k, seen[k], v)
		}
	}
}

// FuzzHashMapModel runs sequences of user-space operations on a hash map —
// Update (new key, replace, replace at capacity, past capacity), Delete,
// LookupRef (writing through the reference), Lookup (writing to the copy),
// Range (whole, and stopped after one entry) and Entries — at KeySize 1, 3, 4
// and 8, with keys and values of the wrong size among them, against a
// map[string][]byte model. Every error must be the model's, and the map's
// contents must be the model's after every operation.
//
// Input: the key-size selector, then three bytes per operation: op (bits 0–2
// the operation — Update, Update, Delete, LookupRef, Lookup, Range, Entries,
// Update —, 4–5 the key's length: right, right, one short, one long; 6 a value
// one byte long; 7 write through what a lookup returned), key number, value
// byte.
func FuzzHashMapModel(f *testing.F) {
	// Four keys, a replace at capacity, a fifth key refused, a delete that
	// frees a slot, and the fifth key taken.
	fill := []byte{0, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 1, 5, 0, 4, 6, 2, 0, 0, 0, 4, 7, 5, 0, 0}
	// Wrong-size keys and values, each refused without a change; lookups and
	// write-throughs of a present and an absent key; Range stopped early.
	wrong := []byte{0, 0, 1, 0x20, 0, 2, 0x10, 1, 3, 0x40, 2, 3, 0x22, 0, 0, 0x23, 0, 0, 0x24, 0, 0,
		0x83, 0, 0, 0x84, 0, 0, 3, 6, 0, 4, 6, 0, 5, 0, 1, 6, 0, 0}
	for ks := byte(0); ks < 4; ks++ {
		f.Add(append([]byte{ks}, fill...))
		f.Add(append([]byte{ks}, wrong...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		keySize := []int{1, 3, 4, 8}[data[0]%4]
		_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: keySize, ValueSize: modelValueSize, MaxEntries: modelMaxEntries})
		model := map[string][]byte{}
		for ops := data[1:]; len(ops) >= 3; ops = ops[3:] {
			op, idx, vb := ops[0], ops[1]%8, ops[2]
			key := modelKey(idx, []int{keySize, keySize, keySize - 1, keySize + 1}[op>>4&3])
			val := bytes.Repeat([]byte{vb}, modelValueSize+int(op>>6&1))
			cur, present := model[string(key)]
			update, keyed := op&7 <= 1 || op&7 == 7, op&7 <= 4 || op&7 == 7
			var wantErr error
			switch {
			case keyed && len(key) != keySize:
				wantErr = ErrBadKey
			case update && len(val) != modelValueSize:
				wantErr = ErrBadValue
			case update && !present && len(model) >= modelMaxEntries:
				wantErr = ErrMapFull
			case keyed && !update && !present:
				wantErr = ErrKeyNotFound
			}
			var err error
			switch op & 7 {
			case 0, 1, 7:
				if err = m.Update(key, val); err == nil {
					model[string(key)] = val
				}
			case 2:
				if err = m.Delete(key); err == nil {
					delete(model, string(key))
				}
			case 3, 4:
				var got []byte
				if op&7 == 3 {
					got, err = m.LookupRef(key)
				} else {
					got, err = m.Lookup(key)
				}
				if err == nil && !bytes.Equal(got, cur) {
					t.Fatalf("lookup of %x: %x, model %x", key, got, cur)
				}
				if err == nil && op&0x80 != 0 {
					got[0] ^= 0xff
					if op&7 == 3 { // the reference aliases the stored value
						cur[0] ^= 0xff
					}
				}
			case 5:
				calls := 0
				m.Range(func(_, _ []byte) bool { calls++; return false })
				if want := min(1, len(model)); calls != want {
					t.Fatalf("Range stopped after %d calls, want %d", calls, want)
				}
			case 6:
				if n := entries(m); n != len(model) {
					t.Fatalf("Entries %d, model %d", n, len(model))
				}
			}
			if !errors.Is(err, wantErr) || (err == nil) != (wantErr == nil) {
				t.Fatalf("op %#x on key %x: error %v, want %v", op, key, err, wantErr)
			}
			requireMapMatchesModel(t, m, model)
		}
	})
}

// ---------------------------------------------------------------------------
// Per-CPU arrays.

func newPerCPUArray(t *testing.T, valueSize, maxEntries int) (*Kernel, *Map) {
	t.Helper()
	return newTestMap(t, MapSpec{Name: "pc", Type: MapTypePerCPUArray, KeySize: 4, ValueSize: valueSize, MaxEntries: maxEntries})
}

// bumpProgram is m[slot] += 1 through bpf_map_lookup_elem: no recognized
// shape, so it runs on the interpreter whatever the switch says.
func bumpProgram(t *testing.T, k *Kernel, m *Map, slot int) *LoadedProgram {
	t.Helper()
	b := NewBuilder("bump", ProgTypeXDP)
	b.Ins(
		StoreImm(R10, -4, int64(slot), W),
		LoadMapFD(R1, m.FD()),
		Mov64Reg(R2, R10),
		Add64Imm(R2, -4),
		Call(HelperMapLookupElem),
	)
	b.Jmp(JeqImm(R0, 0, 0), "out")
	b.Ins(Mov64Imm(R2, 1), AtomicAdd(R0, 0, R2, DW))
	b.Label("out")
	b.Ins(Mov64Imm(R0, XDPPass), Exit())
	lp, err := k.Load(b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	return lp
}

// TestPerCPUArrayRunSeesItsStripe: inside a run a lookup resolves to the copy
// of the stripe the run is on — on the interpreter, and on both fast paths'
// shapes with the switch either way, through the entry each shape's caller
// uses, and through Run, which is on stripe 0 — while user space reads the
// sum, through Lookup and through LookupU32Into alike.
func TestPerCPUArrayRunSeesItsStripe(t *testing.T) {
	sumOf := func(m *Map, slot uint32) uint64 {
		t.Helper()
		v, err := m.Lookup(U32Key(slot))
		if err != nil {
			t.Fatal(err)
		}
		var into [8]byte
		if err := m.LookupU32Into(slot, into[:]); err != nil {
			t.Fatal(err)
		}
		if U64FromValue(v) != U64FromValue(into[:]) {
			t.Fatalf("Lookup reads %d, LookupU32Into %d", U64FromValue(v), U64FromValue(into[:]))
		}
		return U64FromValue(v)
	}
	// runs[s] runs on stripe s; stripe 9 is stripe 1 again.
	runs := map[uint32]int{0: 1, 1: 2, 5: 3, 7: 1, 9: 4}
	perStripe := map[uint32]uint64{0: 1, 1: 6, 5: 3, 7: 1}
	const total = 11

	t.Run("interpreter", func(t *testing.T) {
		k, m := newPerCPUArray(t, 8, 4)
		lp := bumpProgram(t, k, m, 2)
		if fallbackOf(lp) == "" {
			t.Fatal("the bump program has a fast path; want the interpreter")
		}
		for stripe, n := range runs {
			for i := 0; i < n; i++ {
				if _, err := k.RunMeta(lp, 64, 0, stripe); err != nil {
					t.Fatal(err)
				}
			}
		}
		for s := uint32(0); s < Stripes; s++ {
			if got := U64FromValue(m.view(s, 2)); got != perStripe[s] {
				t.Errorf("stripe %d's copy reads %d, want %d", s, got, perStripe[s])
			}
		}
		if got := sumOf(m, 2); got != total {
			t.Errorf("user space reads %d, want the sum %d", got, total)
		}
		if got := sumOf(m, 1); got != 0 {
			t.Errorf("untouched entry reads %d", got)
		}
	})

	for _, fast := range []bool{true, false} {
		t.Run(fmt.Sprintf("eproxy shape, fast=%v", fast), func(t *testing.T) {
			k, m := newPerCPUArray(t, 8, 4)
			k.SetJIT(fast)
			lp, err := k.Load(eproxyShape(m.FD(), 0, 1))
			if err != nil {
				t.Fatal(err)
			}
			if why := fallbackOf(lp); why != "" {
				t.Fatalf("EPROXY shape over a per-CPU array declined: %s", why)
			}
			for stripe, n := range runs {
				for i := 0; i < n; i++ {
					if _, err := k.RunMeta(lp, 100, 0, stripe); err != nil {
						t.Fatal(err)
					}
				}
			}
			for s := uint32(0); s < Stripes; s++ {
				if pk, by := U64FromValue(m.view(s, 0)), U64FromValue(m.view(s, 1)); pk != perStripe[s] || by != 100*perStripe[s] {
					t.Errorf("stripe %d's copy reads %d packets, %d bytes; want %d, %d", s, pk, by, perStripe[s], 100*perStripe[s])
				}
			}
			if pk, by := sumOf(m, 0), sumOf(m, 1); pk != total || by != 100*total {
				t.Errorf("user space reads %d packets, %d bytes; want %d, %d", pk, by, total, 100*total)
			}
		})
		sproxy := func(t *testing.T) (*Kernel, *LoadedProgram, *Map) {
			k := NewKernel()
			k.SetJIT(fast)
			sockmap, filter, metrics := sproxyMapsOf(t, k, MapTypePerCPUArray, 8, 4)
			lp, err := k.Load(sproxyShape(16, filter.FD(), metrics.FD(), sockmap.FD()))
			if err != nil {
				t.Fatal(err)
			}
			if why := fallbackOf(lp); why != "" {
				t.Fatalf("SPROXY shape over per-CPU metrics declined: %s", why)
			}
			if err := filter.Update(sproxyFilterKey(1, 2), []byte{1}); err != nil {
				t.Fatal(err)
			}
			return k, lp, metrics
		}
		t.Run(fmt.Sprintf("sproxy shape, fast=%v", fast), func(t *testing.T) {
			k, lp, metrics := sproxy(t)
			for stripe, n := range runs {
				for i := 0; i < n; i++ {
					if _, _, err := k.RunDescriptor(lp, shm.Descriptor{NextFn: 2}, 1, stripe); err != nil {
						t.Fatal(err)
					}
				}
			}
			for s := uint32(0); s < Stripes; s++ {
				if got := U64FromValue(metrics.view(s, 2)); got != perStripe[s] {
					t.Errorf("stripe %d's copy reads %d, want %d", s, got, perStripe[s])
				}
			}
			if got := sumOf(metrics, 2); got != total {
				t.Errorf("user space reads %d, want the sum %d", got, total)
			}
		})
		t.Run(fmt.Sprintf("Run is on stripe 0, fast=%v", fast), func(t *testing.T) {
			k, lp, metrics := sproxy(t)
			desc := make([]byte, 16)
			putLeU32(desc, 2)
			for i := 0; i < total; i++ {
				if _, err := k.Run(lp, desc, 1, nil); err != nil {
					t.Fatal(err)
				}
			}
			for s := uint32(0); s < Stripes; s++ {
				want := uint64(0)
				if s == 0 {
					want = total
				}
				if got := U64FromValue(metrics.view(s, 2)); got != want {
					t.Errorf("stripe %d's copy reads %d, want %d", s, got, want)
				}
			}
		})
	}
}

// TestPerCPUArrayUserSpace: Update leaves a value Lookup returns whatever the
// copies held, Delete and DeleteU32 zero every copy, Range walks sums, and the
// type keeps its own name.
func TestPerCPUArrayUserSpace(t *testing.T) {
	k, m := newPerCPUArray(t, 12, 3) // a partial trailing word, too
	if got := m.Spec().Type.String(); got != "percpu_array" {
		t.Fatalf("type %q", got)
	}
	lp := bumpProgram(t, k, m, 1)
	bump := func(stripes ...uint32) {
		t.Helper()
		for _, s := range stripes {
			if _, err := k.RunMeta(lp, 0, 0, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	word0 := func() uint64 {
		t.Helper()
		v, err := m.Lookup(U32Key(1))
		if err != nil || len(v) != 12 {
			t.Fatalf("lookup: %x, %v", v, err)
		}
		return U64FromValue(v)
	}

	bump(1, 2, 2, 6)
	if got := word0(); got != 4 {
		t.Fatalf("four runs on three stripes read %d", got)
	}
	val := make([]byte, 12)
	copy(val, u64Value(1000))
	val[8], val[11] = 0xAB, 0xCD
	if err := m.Update(U32Key(1), val); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Lookup(U32Key(1)); string(v) != string(val) {
		t.Fatalf("Lookup after Update reads %x, want %x", v, val)
	}
	bump(3, 0)
	if got := word0(); got != 1002 {
		t.Fatalf("two runs after Update(1000) read %d", got)
	}
	seen := 0
	m.Range(func(key, v []byte) bool {
		seen++
		want := uint64(0)
		if string(key) == string(U32Key(1)) {
			want = 1002
		}
		if U64FromValue(v) != want {
			t.Errorf("Range: entry %x reads %d, want %d", key, U64FromValue(v), want)
		}
		return true
	})
	if seen != 3 {
		t.Fatalf("Range visited %d entries, want 3", seen)
	}
	if err := m.Delete(U32Key(1)); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Lookup(U32Key(1)); string(v) != string(make([]byte, 12)) {
		t.Fatalf("Lookup after Delete reads %x", v)
	}
	bump(4, 5)
	if err := m.DeleteU32(1); err != nil {
		t.Fatal(err)
	}
	for s := uint32(0); s < Stripes; s++ {
		if got := U64FromValue(m.view(s, 1)); got != 0 {
			t.Errorf("stripe %d's copy reads %d after DeleteU32", s, got)
		}
	}
	if err := m.Update(U32Key(3), val); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("update past the end: %v", err)
	}
}

// TestPerCPUArrayConcurrentStripes: runs on their own stripes and runs sharing
// one add to the same entry at once; the sum user space reads afterwards is
// exact — sharing a stripe costs speed, never a count.
func TestPerCPUArrayConcurrentStripes(t *testing.T) {
	k, m := newPerCPUArray(t, 8, 4)
	interp := bumpProgram(t, k, m, 0)
	fast, err := k.Load(eproxyShape(m.FD(), 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 6, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stripe := uint32(w % 4) // workers 4 and 5 share stripes 0 and 1
			for i := 0; i < iters; i++ {
				lp := fast
				if i%2 == 0 {
					lp = interp
				}
				if _, err := k.RunMeta(lp, 10, 0, stripe); err != nil {
					t.Error(err)
					return
				}
				if i%64 == 0 {
					var v [8]byte
					_ = m.LookupU32Into(0, v[:]) // a scrape in the middle
				}
			}
		}(w)
	}
	wg.Wait()
	v, _ := m.Lookup(U32Key(0))
	if got := U64FromValue(v); got != workers*iters {
		t.Fatalf("entry 0 reads %d after %d adds", got, workers*iters)
	}
	v, _ = m.Lookup(U32Key(1))
	if got := U64FromValue(v); got != workers*iters/2*10 {
		t.Fatalf("entry 1 reads %d, want %d", got, workers*iters/2*10)
	}
	if es := k.EngineStats(); es.JITRuns != workers*iters/2 || es.InterpRuns != workers*iters/2 {
		t.Fatalf("runs counted %+v, want %d on each engine", es, workers*iters/2)
	}
}

// TestPerCPUArrayVerifies: the verifier treats a per-CPU array as it treats an
// array — a program that names one by fd loads, one that names a map that is
// not there does not.
func TestPerCPUArrayVerifies(t *testing.T) {
	k, m := newPerCPUArray(t, 8, 2)
	if lp := bumpProgram(t, k, m, 0); len(lp.prog.Insns) == 0 {
		t.Fatal("empty program loaded")
	}
	k.RemoveMaps(m)
	b := NewBuilder("gone", ProgTypeXDP)
	b.Ins(LoadMapFD(R1, m.FD()), Mov64Imm(R0, 0), Exit())
	if _, err := k.Load(b.MustProgram()); err == nil {
		t.Fatal("a program naming a removed per-CPU array loaded")
	}
}

// TestPerCPUArrayLayout: the copies of one entry are at least a cache line
// apart and every copy starts on a line, so no two stripes write one line —
// and neither do two stripes of the kernel's run counters, nor a stripe and
// the words every run reads, on the address a Kernel is really allocated at.
func TestPerCPUArrayLayout(t *testing.T) {
	k := NewKernel()
	lineOf := func(p unsafe.Pointer, size uintptr) (lo, hi uintptr) {
		return uintptr(p) / 64, (uintptr(p) + size - 1) / 64
	}
	last := ^uintptr(0)
	for i := range k.stripes {
		st := &k.stripes[i]
		lo, hi := lineOf(unsafe.Pointer(st), unsafe.Offsetof(st.insns)+unsafe.Sizeof(st.insns))
		if lo != hi || lo == last {
			t.Errorf("run stripe %d's words are on lines %d..%d, stripe %d's end on %d", i, lo, hi, i-1, last)
		}
		last = hi
	}
	if lo, _ := lineOf(unsafe.Pointer(&k.fastOff), unsafe.Sizeof(k.fastOff)); lo <= last {
		t.Errorf("Kernel.fastOff, which every run reads, is on line %d, the last run stripe's words on %d", lo, last)
	}
	for _, g := range []struct{ valueSize, maxEntries int }{{8, 4}, {8, 256}, {12, 3}, {8, 1}, {24, 5}} {
		_, m := newPerCPUArray(t, g.valueSize, g.maxEntries)
		for s := uint32(0); s < Stripes; s++ {
			first := uintptr(unsafe.Pointer(m.word(s, 0)))
			if first%64 != 0 {
				t.Errorf("%+v: stripe %d's copy starts %d bytes into a line", g, s, first%64)
			}
			if s == 0 {
				continue
			}
			for i := 0; i < g.maxEntries; i++ {
				a, b := uintptr(unsafe.Pointer(m.word(s-1, i))), uintptr(unsafe.Pointer(m.word(s, i)))
				if b-a < 64 {
					t.Errorf("%+v: entry %d of stripes %d and %d is %d bytes apart", g, i, s-1, s, b-a)
				}
				if last := uintptr(unsafe.Pointer(m.word(s-1, g.maxEntries-1))) + uintptr(8*m.valWords); last > uintptr(unsafe.Pointer(m.word(s, 0))) {
					t.Errorf("%+v: stripe %d's copy runs into stripe %d's", g, s-1, s)
				}
			}
		}
	}
}

// LookupU32Into reads an array entry into the caller's buffer, refusing an
// index past MaxEntries and a buffer shorter than the value.
func TestLookupU32IntoArray(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "a", Type: MapTypeArray, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err := m.Update(U32Key(3), u64Value(77)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 12)
	if err := m.LookupU32Into(3, out); err != nil || U64FromValue(out[:8]) != 77 {
		t.Fatalf("got %v, %v; want 77", out, err)
	}
	if err := m.LookupU32Into(0, out); err != nil || U64FromValue(out[:8]) != 0 {
		t.Fatalf("untouched index: got %v, %v", out, err)
	}
	if err := m.LookupU32Into(4, out); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("index past MaxEntries: %v, want ErrKeyNotFound", err)
	}
	if err := m.LookupU32Into(3, out[:7]); !errors.Is(err, ErrBadValue) {
		t.Fatalf("short buffer: %v, want ErrBadValue", err)
	}
}

// Of a hash map, LookupU32Into encodes the key itself and copies the
// published value out.
func TestLookupU32IntoHash(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err := m.Update(U32Key(0x01020304), u64Value(5)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 8)
	if err := m.LookupU32Into(0x01020304, out); err != nil || U64FromValue(out) != 5 {
		t.Fatalf("got %v, %v; want 5", out, err)
	}
	if err := m.LookupU32Into(9, out); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing key: %v, want ErrKeyNotFound", err)
	}
	if err := m.LookupU32Into(0x01020304, out[:4]); !errors.Is(err, ErrBadValue) {
		t.Fatalf("short buffer: %v, want ErrBadValue", err)
	}
}
