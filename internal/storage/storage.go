// Package storage provides the stable-storage abstraction that lets a
// process survive a crash/restart boundary, as the paper's model requires:
// "The process keeps mbal[p] (and the rest of its state) in stable storage
// so it can restart after failure by simply resuming where it left off."
//
// Two implementations are provided: an in-memory store used by the
// deterministic simulator (the store holds isolated copies — plain data in
// one copy per key that each Put overwrites in place, everything else gob
// round-tripped — exactly like real persistence), and a file-backed store
// used by the live goroutine runtime. Put takes a value or a pointer to one;
// a caller that persists the same state over and over passes a pointer, so
// neither store needs the value boxed afresh per write.
package storage

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
)

// Store is a small key-value stable store. Implementations must guarantee
// that data written by Put survives a crash of the owning process (in the
// simulator, that the data survives the process object being discarded).
type Store interface {
	// Put durably stores value (gob-encoded) under key. A pointer stores
	// what it points to: gob encodes *T exactly as T, and the store reads
	// the pointee before Put returns, so the caller may change it after.
	Put(key string, value any) error
	// Get decodes the value stored under key into out (a pointer). It
	// reports whether the key was present.
	Get(key string, out any) (bool, error)
	// Delete removes a key; deleting an absent key is not an error.
	Delete(key string) error
	// Keys returns all present keys in sorted order.
	Keys() ([]string, error)
}

// MemStore is an in-memory Store. A Get never aliases memory written by
// Put — mutating a value after Put does not change what a later Get
// returns, matching disk semantics.
//
// The store owns one copy per key. A value whose type is plain data — no
// pointers, slices, maps, or other mutable indirection (strings are
// immutable, so they count as plain) — is copied into that key's copy of
// its type, allocated by the key's first Put and overwritten in place by
// every later one; Get copies it out again. Every protocol's durable state
// is such a struct, so the simulator's persist path has no gob round-trip,
// and a caller that passes a pointer to its state (Put(key, &st)) has no
// allocation at all once the key exists: the pointer needs no box, and the
// pointee is read before Put returns. Other types are kept gob-encoded.
//
// MemStore is safe for concurrent use. The zero value is ready to use.
type MemStore struct {
	mu sync.Mutex
	// vals holds each key's copy: a *T owned by the store for plain-data
	// T, or the gob encoding ([]byte) of anything else.
	vals map[string]any
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

var _ Store = (*MemStore)(nil)

// Put implements Store.
func (s *MemStore) Put(key string, value any) error {
	src, plain := plainValue(value)
	var buf []byte
	if !plain {
		var err error
		if buf, err = encode(value); err != nil {
			return fmt.Errorf("storage: put %q: %w", key, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		s.vals = make(map[string]any)
	}
	if !plain {
		s.vals[key] = buf
		return nil
	}
	own := s.vals[key]
	if own == nil || reflect.TypeOf(own) != reflect.PointerTo(src.Type()) {
		// The key's first plain value, or one of another type than it
		// held: the store takes a fresh copy of this type.
		own = reflect.New(src.Type()).Interface()
		s.vals[key] = own
	}
	reflect.ValueOf(own).Elem().Set(src)
	return nil
}

// Get implements Store.
func (s *MemStore) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	own, ok := s.vals[key]
	if !ok {
		s.mu.Unlock()
		return false, nil
	}
	buf, encoded := own.([]byte)
	if encoded {
		// An encoding is never written to after Put stores it.
		s.mu.Unlock()
		if err := decode(buf, out); err != nil {
			return false, fmt.Errorf("storage: get %q: %w", key, err)
		}
		return true, nil
	}
	// The copy is overwritten in place by the next Put: read it under the
	// lock.
	defer s.mu.Unlock()
	rout := reflect.ValueOf(out)
	if rout.Kind() != reflect.Pointer || rout.IsNil() {
		return false, fmt.Errorf("storage: get %q: out must be a non-nil pointer", key)
	}
	rv := reflect.ValueOf(own).Elem()
	if rv.Type() != rout.Elem().Type() {
		return false, fmt.Errorf("storage: get %q: stored %s, requested %s", key, rv.Type(), rout.Elem().Type())
	}
	rout.Elem().Set(rv)
	return true, nil
}

// Delete implements Store.
func (s *MemStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.vals, key)
	return nil
}

// Reset empties the store in place, keeping the map storage warm. Arena
// reuse (internal/simnet) resets each pooled node's store between runs
// instead of allocating a fresh one per grid cell.
func (s *MemStore) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	clear(s.vals)
}

// Keys implements Store.
func (s *MemStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.vals))
	for k := range s.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// plainValue returns the plain data value holds — the value itself, or what
// a non-nil pointer points to — and false when it is not plain data.
func plainValue(value any) (reflect.Value, bool) {
	v := reflect.ValueOf(value)
	if v.Kind() == reflect.Pointer && !v.IsNil() {
		v = v.Elem()
	}
	return v, v.IsValid() && isPlainData(v.Type())
}

// plainDataTypes caches the per-type verdict of isPlainData.
var plainDataTypes sync.Map // reflect.Type → bool

// isPlainData reports whether values of t carry no mutable indirection: a
// copy of such a value shares nothing mutable with the original, so storing
// the copy is equivalent to storing encoded bytes. Strings qualify because
// Go strings are immutable; pointers, slices, maps, chans, funcs, and
// interfaces do not.
func isPlainData(t reflect.Type) bool {
	if v, ok := plainDataTypes.Load(t); ok {
		return v.(bool)
	}
	plain := computePlainData(t)
	plainDataTypes.Store(t, plain)
	return plain
}

func computePlainData(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128,
		reflect.String:
		return true
	case reflect.Array:
		return computePlainData(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			// Unexported fields force the gob fallback: gob drops them
			// (and errors when no exported field exists), and the sim's
			// store must restore exactly what the live FileStore would —
			// persisting more state than gob does would make crash
			// recovery diverge between substrates.
			if f.PkgPath != "" || !computePlainData(f.Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// FileStore persists each key as a gob file in a directory, writing through
// a temp file + rename so a torn write never corrupts a previous value.
// FileStore is safe for concurrent use by one process.
type FileStore struct {
	mu  sync.Mutex
	dir string
}

// NewFileStore creates (if needed) and opens a directory-backed store.
func NewFileStore(dir string) (*FileStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: create dir: %w", err)
	}
	return &FileStore{dir: dir}, nil
}

var _ Store = (*FileStore)(nil)

func (s *FileStore) path(key string) string {
	// Keys are protocol-chosen short identifiers; escape path separators
	// defensively.
	safe := make([]byte, 0, len(key))
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c == '/' || c == '\\' || c == 0 {
			safe = append(safe, '_')
		} else {
			safe = append(safe, c)
		}
	}
	return filepath.Join(s.dir, string(safe)+".gob")
}

// Put implements Store.
func (s *FileStore) Put(key string, value any) error {
	buf, err := encode(value)
	if err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := s.path(key) + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	if err := os.Rename(tmp, s.path(key)); err != nil {
		return fmt.Errorf("storage: put %q: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *FileStore) Get(key string, out any) (bool, error) {
	s.mu.Lock()
	buf, err := os.ReadFile(s.path(key))
	s.mu.Unlock()
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("storage: get %q: %w", key, err)
	}
	if err := decode(buf, out); err != nil {
		return false, fmt.Errorf("storage: get %q: %w", key, err)
	}
	return true, nil
}

// Delete implements Store.
func (s *FileStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: delete %q: %w", key, err)
	}
	return nil
}

// Keys implements Store.
func (s *FileStore) Keys() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("storage: keys: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) == ".gob" {
			keys = append(keys, name[:len(name)-len(".gob")])
		}
	}
	sort.Strings(keys)
	return keys, nil
}

func encode(value any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(value); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decode(buf []byte, out any) error {
	return gob.NewDecoder(bytes.NewReader(buf)).Decode(out)
}
