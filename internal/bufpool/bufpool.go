// Package bufpool is the hot path's payload allocator: a size-classed pool
// of reference-counted byte buffers with an explicit lease/return contract.
//
// The data path moves one payload per I/O through
// transport→chunkserver→blockstore→journal; allocating that payload per
// message (and freeing it to the GC after one use) is the single largest
// source of garbage on the 4 KiB hot path. The pool replaces allocation
// with a lease:
//
//   - Get(n) leases a buffer of length n (capacity = its size class) with
//     reference count 1.
//   - Retain(b) adds a reference when a second goroutine's lifetime must
//     cover the buffer (a replication fan-out holding the payload past its
//     handler's return).
//   - Put(b) drops a reference; the last Put returns the buffer to its
//     class free list.
//
// Ownership is foreign-tolerant: Put/Retain on a buffer the pool never
// handed out are silent no-ops. That keeps every release site
// unconditional — client-owned write payloads, JSON blobs, and test
// buffers flow through the same code as pooled ones. Put on a buffer the
// pool owns but which is not currently leased panics: that is a real
// double-put, the memory-unsafety bug the ledger exists to catch.
//
// Buffers on a free list are never released to the GC while registered, so
// a buffer's base address uniquely identifies it for the ledger's whole
// lifetime — a foreign allocation can never alias a pooled address and be
// misjudged. Ledger shards and per-class free lists keep Get/Put
// uncontended at QD32.
package bufpool

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// classSizes are the lease capacities, chosen for the path's actual
// shapes: 512 B journal record headers and sectors, 4–64 KiB client I/O
// payloads (BypassThreshold is 64 KiB), 1 MiB clone/rebuild pieces, and
// proto.MaxPayload (16 MiB) as the ceiling.
var classSizes = [...]int{512, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20}

// classCap bounds each free list's retained buffer count so an idle pool
// does not pin a burst's worth of memory forever. Evicted buffers are
// deregistered before being handed to the GC.
func classCap(size int) int {
	switch {
	case size <= 4096:
		return 4096
	case size <= 65536:
		return 512
	case size <= 1<<20:
		return 32
	default:
		return 4
	}
}

// class is one size class: a LIFO free list of full-capacity slices.
type class struct {
	size int
	mu   sync.Mutex
	free [][]byte
}

// ledgerShards must be a power of two.
const ledgerShards = 64

// entry is the ledger record of one buffer the pool owns.
type entry struct {
	class int8  // index into classes
	refs  int32 // 0 while on the free list
}

// shard is one ledger shard: buffer base address → ownership entry.
type shard struct {
	mu sync.Mutex
	m  map[uintptr]*entry
}

type pool struct {
	classes [len(classSizes)]class
	shards  [ledgerShards]shard

	inUse    atomic.Int64 // buffers currently leased (refs > 0)
	leases   atomic.Int64 // total Get calls served from the pool
	returns  atomic.Int64 // total final Puts (buffer back on a free list)
	discards atomic.Int64 // free-list evictions (ledger entries released)
}

var p = func() *pool {
	pl := &pool{}
	for i, sz := range classSizes {
		pl.classes[i].size = sz
	}
	for i := range pl.shards {
		pl.shards[i].m = make(map[uintptr]*entry)
	}
	return pl
}()

func (pl *pool) shardFor(ptr uintptr) *shard {
	// Buffer bases are at least 512 B apart; mix the middle bits.
	return &pl.shards[(ptr>>6^ptr>>14)&(ledgerShards-1)]
}

// classFor returns the smallest class index fitting n, or -1 when n is
// zero or exceeds the largest class.
func classFor(n int) int {
	if n <= 0 || n > classSizes[len(classSizes)-1] {
		return -1
	}
	for i, sz := range classSizes {
		if n <= sz {
			return i
		}
	}
	return -1
}

// base returns the ledger key of b: the address of its first backing byte.
// Slices with zero capacity have no backing array and no key.
func base(b []byte) (uintptr, bool) {
	if cap(b) == 0 {
		return 0, false
	}
	return uintptr(unsafe.Pointer(unsafe.SliceData(b[:1]))), true
}

// Get leases a buffer of length n with one reference. Requests outside
// the class range fall back to a plain allocation the ledger does not
// track (a foreign buffer: Put and Retain on it are no-ops).
func Get(n int) []byte {
	ci := classFor(n)
	if ci < 0 {
		return make([]byte, n)
	}
	c := &p.classes[ci]
	c.mu.Lock()
	var b []byte
	if fl := len(c.free); fl > 0 {
		b = c.free[fl-1]
		c.free[fl-1] = nil
		c.free = c.free[:fl-1]
	}
	c.mu.Unlock()
	if b == nil {
		b = make([]byte, c.size)
		ptr, _ := base(b)
		sh := p.shardFor(ptr)
		sh.mu.Lock()
		sh.m[ptr] = &entry{class: int8(ci), refs: 1}
		sh.mu.Unlock()
	} else {
		ptr, _ := base(b)
		sh := p.shardFor(ptr)
		sh.mu.Lock()
		sh.m[ptr].refs = 1
		sh.mu.Unlock()
	}
	p.inUse.Add(1)
	p.leases.Add(1)
	return b[:n]
}

// Retain adds a reference to a leased buffer so a second consumer can
// outlive the first; each Retain needs a matching Put. Retain on a
// foreign buffer is a no-op. Retain on a pool buffer that is not leased
// panics — the caller is reading recycled memory.
func Retain(b []byte) {
	ptr, ok := base(b)
	if !ok {
		return
	}
	sh := p.shardFor(ptr)
	sh.mu.Lock()
	e := sh.m[ptr]
	if e == nil {
		sh.mu.Unlock()
		return
	}
	if e.refs <= 0 {
		sh.mu.Unlock()
		panic("bufpool: Retain of a buffer that is not leased")
	}
	e.refs++
	sh.mu.Unlock()
	p.inUse.Add(1)
}

// Put drops one reference; the final Put returns the buffer to its free
// list. Put on a foreign buffer is a no-op, so release sites are
// unconditional. Put on a pool buffer that is not leased panics: a double
// put means some holder is about to read recycled memory.
func Put(b []byte) {
	ptr, ok := base(b)
	if !ok {
		return
	}
	sh := p.shardFor(ptr)
	sh.mu.Lock()
	e := sh.m[ptr]
	if e == nil {
		sh.mu.Unlock()
		return
	}
	if e.refs <= 0 {
		sh.mu.Unlock()
		panic("bufpool: double Put")
	}
	e.refs--
	last := e.refs == 0
	ci := int(e.class)
	sh.mu.Unlock()
	p.inUse.Add(-1)
	if !last {
		return
	}
	p.returns.Add(1)
	c := &p.classes[ci]
	full := b[:c.size:c.size] // restore the class-size view for reuse
	c.mu.Lock()
	if len(c.free) < classCap(c.size) {
		c.free = append(c.free, full)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	// Free list full: deregister and let the GC have it. The ledger entry
	// must go first so a future foreign allocation reusing this address is
	// not mistaken for a pool buffer.
	sh.mu.Lock()
	delete(sh.m, ptr)
	sh.mu.Unlock()
	p.discards.Add(1)
}

// InUse reports the number of currently leased references. A quiesced
// system leaks iff this is nonzero.
func InUse() int64 { return p.inUse.Load() }

// Leases reports the cumulative number of pool leases served.
func Leases() int64 { return p.leases.Load() }

// Returns reports the cumulative number of buffers fully returned.
func Returns() int64 { return p.returns.Load() }
