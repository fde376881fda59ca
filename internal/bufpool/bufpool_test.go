package bufpool

import (
	"sync"
	"testing"
)

func TestLeaseReturnRecycles(t *testing.T) {
	start := InUse()
	b := Get(4096)
	if len(b) != 4096 {
		t.Fatalf("len = %d, want 4096", len(b))
	}
	if got := InUse() - start; got != 1 {
		t.Fatalf("InUse delta after Get = %d, want 1", got)
	}
	ptr0, _ := base(b)
	Put(b)
	if got := InUse() - start; got != 0 {
		t.Fatalf("InUse delta after Put = %d, want 0", got)
	}
	// The very next same-class Get must reuse the returned buffer (LIFO).
	b2 := Get(2048)
	ptr1, _ := base(b2)
	if ptr0 != ptr1 {
		t.Fatalf("second Get did not recycle: %x vs %x", ptr0, ptr1)
	}
	if len(b2) != 2048 || cap(b2) != 4096 {
		t.Fatalf("recycled lease len=%d cap=%d, want 2048/4096", len(b2), cap(b2))
	}
	Put(b2)
}

func TestDoublePutPanics(t *testing.T) {
	b := Get(512)
	Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("second Put of the same lease did not panic")
		}
		// Re-lease so the panicked buffer is not left in a weird state for
		// other tests (the ledger is package-global).
		Put(Get(512))
	}()
	Put(b)
}

func TestRetainOfUnleasedPanics(t *testing.T) {
	b := Get(512)
	Put(b)
	defer func() {
		if recover() == nil {
			t.Fatal("Retain of a returned buffer did not panic")
		}
	}()
	Retain(b)
}

func TestForeignBuffersAreNoOps(t *testing.T) {
	start := InUse()
	foreign := make([]byte, 4096)
	Put(foreign) // must not panic
	Retain(foreign)
	Put(nil)
	Retain(nil)
	if got := InUse() - start; got != 0 {
		t.Fatalf("foreign Put/Retain moved InUse by %d", got)
	}
}

func TestOversizeFallsBackToForeign(t *testing.T) {
	start := InUse()
	b := Get(classSizes[len(classSizes)-1] + 1)
	if got := InUse() - start; got != 0 {
		t.Fatalf("oversize Get leased from pool (InUse delta %d)", got)
	}
	Put(b) // foreign: no-op
}

func TestRetainDefersRecycle(t *testing.T) {
	b := Get(4096)
	Retain(b)
	Put(b)
	// Still one reference out: the buffer must NOT be on the free list.
	b2 := Get(4096)
	p0, _ := base(b)
	p1, _ := base(b2)
	if p0 == p1 {
		t.Fatal("buffer recycled while a retained reference was live")
	}
	Put(b)
	Put(b2)
}

// TestConcurrentLeases drives every shard and class from many goroutines;
// meaningful chiefly under -race.
func TestConcurrentLeases(t *testing.T) {
	start := InUse()
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{512, 4096, 65536, 1 << 20}
			held := make([][]byte, 0, 8)
			for i := 0; i < 2000; i++ {
				b := Get(sizes[(i+w)%len(sizes)])
				b[0] = byte(i)
				if i%3 == 0 {
					Retain(b)
					Put(b)
				}
				held = append(held, b)
				if len(held) == cap(held) {
					for _, h := range held {
						Put(h)
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				Put(h)
			}
		}(w)
	}
	wg.Wait()
	if got := InUse() - start; got != 0 {
		t.Fatalf("leak: InUse delta %d after all Puts", got)
	}
}

func BenchmarkGetPut4K(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf := Get(4096)
			Put(buf)
		}
	})
}
