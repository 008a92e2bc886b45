package node

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// storeContract is the shared conformance suite every Store implementation
// must pass; both built-ins run it, and it is the template a registered
// third-party store should run too.
func storeContract(t *testing.T, name string, mk func() Store) {
	t.Run(name+"/missing key", func(t *testing.T) {
		s := mk()
		if v, ok := s.Get(7); ok || v != nil {
			t.Errorf("Get on empty store = %q, %v", v, ok)
		}
		if s.Len() != 0 {
			t.Errorf("Len of empty store = %d", s.Len())
		}
	})

	t.Run(name+"/put get", func(t *testing.T) {
		s := mk()
		s.Put(1, []byte("one"))
		s.Put(2, []byte("two"))
		if v, ok := s.Get(1); !ok || string(v) != "one" {
			t.Errorf("Get(1) = %q, %v", v, ok)
		}
		if v, ok := s.Get(2); !ok || string(v) != "two" {
			t.Errorf("Get(2) = %q, %v", v, ok)
		}
		if s.Len() != 2 {
			t.Errorf("Len = %d, want 2", s.Len())
		}
	})

	t.Run(name+"/overwrite", func(t *testing.T) {
		s := mk()
		s.Put(1, []byte("old"))
		s.Put(1, []byte("new"))
		if v, ok := s.Get(1); !ok || string(v) != "new" {
			t.Errorf("Get after overwrite = %q, %v", v, ok)
		}
		if s.Len() != 1 {
			t.Errorf("Len after overwrite = %d, want 1", s.Len())
		}
	})

	t.Run(name+"/empty value", func(t *testing.T) {
		s := mk()
		s.Put(3, nil)
		if _, ok := s.Get(3); !ok {
			t.Error("nil value not stored")
		}
	})

	t.Run(name+"/concurrent", func(t *testing.T) {
		s := mk()
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					k := uint64(i % 16)
					s.Put(k, []byte(fmt.Sprintf("w%d-%d", w, i)))
					s.Get(k)
					s.Len()
				}
			}(w)
		}
		wg.Wait()
		// Every surviving key must hold some complete written value.
		for k := uint64(0); k < 16; k++ {
			if v, ok := s.Get(k); ok && !strings.HasPrefix(string(v), "w") {
				t.Errorf("key %d holds torn value %q", k, v)
			}
		}
	})
}

func TestStoreContractMem(t *testing.T) {
	storeContract(t, "mem", func() Store { return NewMemStore() })
}

func TestStoreContractLRU(t *testing.T) {
	storeContract(t, "lru", func() Store {
		s, err := NewLRUStore(64) // roomy enough that the contract never evicts
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

// TestLRUEviction pins the recency semantics: the least-recently-used key
// goes first, and both Get and Put refresh recency.
func TestLRUEviction(t *testing.T) {
	s, err := NewLRUStore(3)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(1, []byte("a"))
	s.Put(2, []byte("b"))
	s.Put(3, []byte("c"))
	s.Get(1)              // refresh 1: order now 1,3,2 (most→least recent)
	s.Put(4, []byte("d")) // evicts 2
	if _, ok := s.Get(2); ok {
		t.Error("key 2 survived eviction")
	}
	for _, k := range []uint64{1, 3, 4} {
		if _, ok := s.Get(k); !ok {
			t.Errorf("key %d evicted, want present", k)
		}
	}
	s.Put(3, []byte("c2")) // overwrite refreshes 3: order 3,4,1
	s.Put(5, []byte("e"))  // evicts 1
	if _, ok := s.Get(1); ok {
		t.Error("key 1 survived eviction after 3 was refreshed")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
	if _, err := NewLRUStore(0); err == nil {
		t.Error("zero capacity accepted")
	}
}

// TestParseStore: the -store flag spelling flows through the shared spec
// grammar.
func TestParseStore(t *testing.T) {
	if s, err := ParseStore(""); err != nil {
		t.Errorf("empty spec: %v", err)
	} else if _, ok := s.(*MemStore); !ok {
		t.Errorf("empty spec = %T, want *MemStore", s)
	}
	if s, err := ParseStore("MAP"); err != nil {
		t.Errorf("alias: %v", err)
	} else if _, ok := s.(*MemStore); !ok {
		t.Errorf("MAP = %T, want *MemStore", s)
	}
	s, err := ParseStore("lru:1024")
	if err != nil {
		t.Fatalf("lru:1024: %v", err)
	}
	lru, ok := s.(*LRUStore)
	if !ok || lru.cap != 1024 {
		t.Errorf("lru:1024 = %T cap %d", s, lru.cap)
	}
	// Fresh store per parse: specs are configurations, not handles.
	s2, _ := ParseStore("lru:1024")
	if s == s2 {
		t.Error("ParseStore returned a shared store instance")
	}
	for spec, wantSub := range map[string]string{
		"warp":  "unknown store",
		"lru":   "requires a capacity",
		"lru:x": "lru capacity",
		"lru:0": "must be >= 1",
		"mem:3": "takes no argument",
		":1024": "argument but no store name",
	} {
		if _, err := ParseStore(spec); err == nil {
			t.Errorf("ParseStore(%q) accepted", spec)
		} else if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("ParseStore(%q) error %q does not mention %q", spec, err, wantSub)
		}
	}
}
