package ebpf

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

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
	if err := m.Update(U32Key(2), U64Value(99)); err != nil {
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
	if err := m.Update(U32Key(4), U64Value(1)); !errors.Is(err, ErrKeyNotFound) {
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
	m.Update(U32Key(1), U64Value(7))
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
	if err := m.Update(U32Key(1), U64Value(11)); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(U32Key(2), U64Value(22)); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(U32Key(3), U64Value(33)); !errors.Is(err, ErrMapFull) {
		t.Fatalf("want ErrMapFull, got %v", err)
	}
	// overwrite within capacity is fine
	if err := m.Update(U32Key(1), U64Value(111)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(U32Key(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(U32Key(1)); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: want ErrKeyNotFound, got %v", err)
	}
	if m.Entries() != 1 {
		t.Fatalf("entries=%d want 1", m.Entries())
	}
}

func TestHashMapKeyValueSizeEnforced(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	if err := m.Update([]byte{1}, U64Value(1)); !errors.Is(err, ErrBadKey) {
		t.Fatalf("want ErrBadKey, got %v", err)
	}
	if err := m.Update(U32Key(1), []byte{1}); !errors.Is(err, ErrBadValue) {
		t.Fatalf("want ErrBadValue, got %v", err)
	}
}

func TestMapLookupReturnsCopy(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	m.Update(U32Key(1), U64Value(5))
	v, _ := m.Lookup(U32Key(1))
	v[0] = 0xFF
	v2, _ := m.Lookup(U32Key(1))
	if U64FromValue(v2) != 5 {
		t.Fatal("Lookup must return a copy")
	}
}

func TestMapLookupRefAliases(t *testing.T) {
	_, m := newTestMap(t, MapSpec{Name: "h", Type: MapTypeHash, KeySize: 4, ValueSize: 8, MaxEntries: 4})
	m.Update(U32Key(1), U64Value(5))
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
	if err := m.Update(U32Key(1), U64Value(5)); err != nil {
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
				_ = m.Entries()
			}
		}()
	}
	for i := 0; i < 500; i++ {
		k := U32Key(uint32(2 + i%32))
		if err := m.Update(k, U64Value(uint64(i))); err != nil {
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
	if err := m.Update(U32Key(1), U64Value(1)); err == nil {
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
	f := func(v uint64) bool { return U64FromValue(U64Value(v)) == v }
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
			if m.Update(U32Key(k), U64Value(v)) != nil {
				return false
			}
			model[k] = v
		}
		if m.Entries() != len(model) {
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
