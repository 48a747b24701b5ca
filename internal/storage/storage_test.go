package storage

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

type fakeState struct {
	Ballot  int
	Value   string
	Decided bool
}

func testStore(t *testing.T, s Store) {
	t.Helper()

	// Absent key.
	var st fakeState
	ok, err := s.Get("state", &st)
	if err != nil {
		t.Fatalf("Get absent: %v", err)
	}
	if ok {
		t.Fatal("Get reported presence for absent key")
	}

	// Round trip.
	want := fakeState{Ballot: 42, Value: "v7", Decided: true}
	if err := s.Put("state", want); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ok, err = s.Get("state", &st)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if st != want {
		t.Fatalf("round trip mismatch: got %+v want %+v", st, want)
	}

	// Overwrite.
	want.Ballot = 43
	if err := s.Put("state", want); err != nil {
		t.Fatalf("Put overwrite: %v", err)
	}
	if _, err := s.Get("state", &st); err != nil {
		t.Fatalf("Get after overwrite: %v", err)
	}
	if st.Ballot != 43 {
		t.Fatalf("overwrite not visible: %+v", st)
	}

	// Keys.
	if err := s.Put("aux", 7); err != nil {
		t.Fatalf("Put aux: %v", err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatalf("Keys: %v", err)
	}
	if len(keys) != 2 || keys[0] != "aux" || keys[1] != "state" {
		t.Fatalf("Keys = %v, want [aux state]", keys)
	}

	// Delete.
	if err := s.Delete("aux"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := s.Delete("aux"); err != nil {
		t.Fatalf("Delete absent should be nil: %v", err)
	}
	ok, err = s.Get("aux", new(int))
	if err != nil {
		t.Fatalf("Get deleted: %v", err)
	}
	if ok {
		t.Fatal("deleted key still present")
	}
}

func TestMemStore(t *testing.T) { testStore(t, NewMemStore()) }
func TestFileStore(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

// TestMemStoreDeepCopies checks the crash-semantics property: mutating a
// value after Put must not change what a later Get observes.
func TestMemStoreDeepCopies(t *testing.T) {
	s := NewMemStore()
	v := []int{1, 2, 3}
	if err := s.Put("slice", v); err != nil {
		t.Fatal(err)
	}
	v[0] = 99
	var got []int
	if _, err := s.Get("slice", &got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatalf("Put aliased caller memory: got %v", got)
	}
}

func TestFileStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("mbal", 17); err != nil {
		t.Fatal(err)
	}
	// "Restart": a brand-new handle over the same directory.
	s2, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got int
	ok, err := s2.Get("mbal", &got)
	if err != nil || !ok || got != 17 {
		t.Fatalf("reopen Get = (%d, %v, %v), want (17, true, nil)", got, ok, err)
	}
}

func TestFileStoreKeyEscaping(t *testing.T) {
	s, err := NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a/b", 1); err != nil {
		t.Fatalf("Put with separator: %v", err)
	}
	var got int
	ok, err := s.Get("a/b", &got)
	if err != nil || !ok || got != 1 {
		t.Fatalf("Get escaped key = (%d, %v, %v)", got, ok, err)
	}
}

// Property: any string value round-trips through either store.
func TestQuickRoundTrip(t *testing.T) {
	mem := NewMemStore()
	f := func(key, value string) bool {
		if key == "" {
			key = "k"
		}
		if err := mem.Put(key, value); err != nil {
			return false
		}
		var got string
		ok, err := mem.Get(key, &got)
		return ok && err == nil && got == value
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMemStorePlainFastPath pins the behaviour of the plain-data
// representation the simulator's persist hot path rides on: struct values
// without mutable indirection skip the gob round-trip but must keep the
// exact same isolation and typing semantics as the encoded path.
func TestMemStorePlainFastPath(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	v := durable{MBal: 3, Val: "x", Decided: true}
	if err := s.Put("state", v); err != nil {
		t.Fatal(err)
	}
	v.MBal = 99 // mutating the caller's copy must not reach the store
	var got durable
	ok, err := s.Get("state", &got)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if got != (durable{MBal: 3, Val: "x", Decided: true}) {
		t.Fatalf("Get returned %+v", got)
	}

	// Type mismatch errors like the gob path would.
	var wrong int
	if _, err := s.Get("state", &wrong); err == nil {
		t.Fatal("Get into mismatched type should error")
	}

	// A key can move between representations; the old value must not
	// shadow the new one, in either direction.
	if err := s.Put("state", []int{1}); err != nil {
		t.Fatal(err)
	}
	var sl []int
	if ok, err := s.Get("state", &sl); err != nil || !ok || len(sl) != 1 {
		t.Fatalf("after plain→gob rewrite: Get = (%v, %v, %v)", sl, ok, err)
	}
	if err := s.Put("state", durable{MBal: 7}); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Get("state", &got); err != nil || !ok || got.MBal != 7 {
		t.Fatalf("after gob→plain rewrite: Get = (%+v, %v, %v)", got, ok, err)
	}

	// Keys sees both representations exactly once.
	if err := s.Put("enc", map[string]int{"a": 1}); err != nil {
		t.Fatal(err)
	}
	keys, err := s.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "enc" || keys[1] != "state" {
		t.Fatalf("Keys = %v", keys)
	}
	if err := s.Delete("state"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.Get("state", &got); ok {
		t.Fatal("deleted key still present")
	}
}

// TestMemStorePutIsCheap pins the allocation budget of the persist hot
// path: a steady-state Put of a plain-data struct must cost at most the
// caller's interface boxing plus the map write — no encoder machinery.
func TestMemStorePutIsCheap(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	v := durable{MBal: 1, Val: "v"}
	if err := s.Put("state", v); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		v.MBal++
		if err := s.Put("state", v); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // the box Put's any parameter forces
		t.Fatalf("plain-data Put allocated %.1f allocs/op, want ≤ 1", allocs)
	}
}

// TestMemStoreUnexportedFieldsMatchGobSemantics pins the substrate-parity
// rule: a struct with unexported fields must take the gob fallback, so the
// simulator's MemStore restores exactly what the live FileStore would —
// exported fields only.
func TestMemStoreUnexportedFieldsMatchGobSemantics(t *testing.T) {
	type mixed struct {
		Exported int
		hidden   int
	}
	s := NewMemStore()
	if err := s.Put("k", mixed{Exported: 5, hidden: 9}); err != nil {
		t.Fatal(err)
	}
	var got mixed
	ok, err := s.Get("k", &got)
	if err != nil || !ok {
		t.Fatalf("Get = (%v, %v)", ok, err)
	}
	if got.Exported != 5 {
		t.Fatalf("exported field lost: %+v", got)
	}
	if got.hidden != 0 {
		t.Fatalf("unexported field persisted (%+v); gob would have dropped it", got)
	}
}

// TestMemStorePointerForm pins Put's pointer form against the value form it
// must be indistinguishable from: the store reads the pointee at Put and
// keeps its own copy, so neither the caller's later writes nor a Get
// result's reach it, and a key may switch between the forms.
func TestMemStorePointerForm(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	st := durable{MBal: 1, Val: "a"}
	if err := s.Put("state", &st); err != nil {
		t.Fatal(err)
	}
	st.MBal, st.Val = 99, "mutated" // after Put: invisible to Get
	var got durable
	if ok, err := s.Get("state", &got); err != nil || !ok || got != (durable{MBal: 1, Val: "a"}) {
		t.Fatalf("Get after mutating the pointee = (%+v, %v, %v)", got, ok, err)
	}

	// Get copies out: changing what it returned changes nothing stored.
	got.MBal = 1000
	var again durable
	if _, err := s.Get("state", &again); err != nil || again.MBal != 1 {
		t.Fatalf("Get handed out the store's own copy: %+v, %v", again, err)
	}

	// Value → pointer → value on one key: each Put replaces the last.
	for i, put := range []any{durable{MBal: 2}, &durable{MBal: 3}, durable{MBal: 4}} {
		if err := s.Put("state", put); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get("state", &got); err != nil || got.MBal != i+2 {
			t.Fatalf("after Put %d (%T): Get = %+v, %v", i, put, got, err)
		}
	}

	// Get into the wrong type errors, whichever form stored the value.
	if err := s.Put("state", &st); err != nil {
		t.Fatal(err)
	}
	var wrong struct{ MBal int }
	if _, err := s.Get("state", &wrong); err == nil {
		t.Fatal("Get into a mismatched type should error")
	}

	// A key may hold another type after it held this one.
	n := 5
	if err := s.Put("state", &n); err != nil {
		t.Fatal(err)
	}
	var gotN int
	if _, err := s.Get("state", &gotN); err != nil || gotN != 5 {
		t.Fatalf("after a type change: Get = %d, %v", gotN, err)
	}
}

// TestMemStorePointerToUnexportedTakesGobPath: a pointer to a struct with an
// unexported field is stored as gob would store it — exported fields only —
// exactly like the value form (TestMemStoreUnexportedFieldsMatchGobSemantics).
func TestMemStorePointerToUnexportedTakesGobPath(t *testing.T) {
	type mixed struct {
		Exported int
		hidden   int
	}
	s := NewMemStore()
	if err := s.Put("k", &mixed{Exported: 5, hidden: 9}); err != nil {
		t.Fatal(err)
	}
	var got mixed
	if ok, err := s.Get("k", &got); err != nil || !ok || got != (mixed{Exported: 5}) {
		t.Fatalf("Get = (%+v, %v, %v), want only the exported field", got, ok, err)
	}
}

// TestMemStorePointerPutDoesNotAllocate pins what the pointer form is for:
// once a key exists, persisting through a pointer allocates nothing — no
// box for the argument, no copy for the store.
func TestMemStorePointerPutDoesNotAllocate(t *testing.T) {
	type durable struct {
		MBal    int
		Val     string
		Decided bool
	}
	s := NewMemStore()
	st := durable{MBal: 1, Val: "v"}
	if err := s.Put("state", &st); err != nil { // the key's first Put allocates its copy
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		st.MBal++
		if err := s.Put("state", &st); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a second Put(k, &v) allocated %.1f times, want 0", allocs)
	}
}

// TestFileStorePointerFormIsByteIdentical: gob encodes *T exactly as T, so
// the file a live process writes through a pointer is the file it would have
// written by value, and a restart reads the same state either way.
func TestFileStorePointerFormIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st := fakeState{Ballot: 7, Value: "v", Decided: true}
	if err := s.Put("byvalue", st); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("bypointer", &st); err != nil {
		t.Fatal(err)
	}
	byValue, err := os.ReadFile(filepath.Join(dir, "byvalue.gob"))
	if err != nil {
		t.Fatal(err)
	}
	byPointer, err := os.ReadFile(filepath.Join(dir, "bypointer.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(byValue, byPointer) {
		t.Fatalf("Put(k, &v) wrote %x, Put(k, v) wrote %x", byPointer, byValue)
	}
	var got fakeState
	if ok, err := s.Get("bypointer", &got); err != nil || !ok || got != st {
		t.Fatalf("Get = (%+v, %v, %v)", got, ok, err)
	}
}
