package node

import (
	"container/list"
	"fmt"
	"sync"

	"rcm/spec"
)

// Store is the pluggable key-value backend a node applies owner operations
// against. Implementations must be safe for concurrent use: the node's
// event loop and test harnesses may call from different goroutines. Values
// are stored as given; callers must not mutate a value after Put or the
// slice returned by Get.
type Store interface {
	// Get returns the value stored under key, reporting presence.
	Get(key uint64) ([]byte, bool)
	// Put stores value under key, overwriting any previous value.
	Put(key uint64, value []byte)
	// Len returns the number of keys currently stored.
	Len() int
}

// MemStore is the unbounded map-backed store (the default).
type MemStore struct {
	mu sync.RWMutex
	m  map[uint64][]byte
}

// NewMemStore returns an empty unbounded store.
func NewMemStore() *MemStore { return &MemStore{m: make(map[uint64][]byte)} }

// Get implements Store.
func (s *MemStore) Get(key uint64) ([]byte, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.m[key]
	return v, ok
}

// Put implements Store.
func (s *MemStore) Put(key uint64, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = value
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// LRUStore is a bounded store evicting the least-recently-used key once
// capacity is exceeded. Both Get and Put refresh a key's recency.
type LRUStore struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recent; values are *lruEntry
	m      map[uint64]*list.Element
	evicts uint64
}

type lruEntry struct {
	key   uint64
	value []byte
}

// NewLRUStore returns an empty store bounded to capacity keys (minimum 1).
func NewLRUStore(capacity int) (*LRUStore, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("node: LRU capacity %d must be >= 1", capacity)
	}
	return &LRUStore{cap: capacity, ll: list.New(), m: make(map[uint64]*list.Element)}, nil
}

// Get implements Store, refreshing the key's recency on a hit.
func (s *LRUStore) Get(key uint64) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.m[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Put implements Store, evicting the least-recently-used key when the
// store is full and key is new.
func (s *LRUStore) Put(key uint64, value []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		el.Value.(*lruEntry).value = value
		return
	}
	if s.ll.Len() >= s.cap {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.m, oldest.Value.(*lruEntry).key)
		s.evicts++
	}
	s.m[key] = s.ll.PushFront(&lruEntry{key: key, value: value})
}

// Len implements Store.
func (s *LRUStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}

// Evictions returns the number of keys evicted since creation. It is the
// optional store capability behind Metrics.StoreEvictions: any Store
// with an Evictions() uint64 method reports through node metrics.
func (s *LRUStore) Evictions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicts
}

// stores is the name-keyed store table — an instance of the module's one
// registry-style spec grammar (rcm/spec), backing the -store flags of
// cmd/rcmd and the cluster harness.
var stores = spec.New[Store]("node", "store")

func init() {
	stores.MustRegister("mem", func(arg string) (Store, error) {
		if arg != "" {
			return nil, fmt.Errorf("node: mem store takes no argument (got %q)", arg)
		}
		return NewMemStore(), nil
	}, "map")
	stores.MustRegister("lru", func(arg string) (Store, error) {
		capacity, ok, err := spec.Int("node", "lru capacity", arg)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("node: lru store requires a capacity, e.g. lru:1024")
		}
		return NewLRUStore(capacity)
	})
	if err := stores.SetDefault("mem"); err != nil {
		panic(err) // mem was just registered; unreachable
	}
}

// StoreNames returns the canonical store names in registration order.
func StoreNames() []string { return stores.Names() }

// ParseStore builds a fresh store from its CLI spelling:
//
//	mem          the unbounded map store (also the empty spec's default)
//	lru:<cap>    a bounded LRU store, e.g. lru:1024
//
// Each call constructs a new store: specs are configurations, not handles.
func ParseStore(s string) (Store, error) { return stores.Parse(s) }
