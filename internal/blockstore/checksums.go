package blockstore

import (
	"fmt"
	"sync"

	"ursa/internal/util"
)

// chunkSectors is the number of per-sector checksum slots a chunk needs.
const chunkSectors = util.ChunkSize / util.SectorSize

// zeroSectorCRC is the CRC-32C of an all-zero sector: the checksum every
// sector of a fresh chunk carries, since chunks read as zeros until written.
var zeroSectorCRC = util.Checksum(make([]byte, util.SectorSize))

// sumShards stripes the checksum table by chunk ID so QD32 verify/stamp
// traffic on different chunks never serializes. Must be a power of two.
const sumShards = 32

// scratchSectors is the stack budget for fused stamp/verify: requests up
// to scratchSectors*512 B (32 KiB, which covers the whole 4–8 KiB hot
// path) run with zero heap allocation.
const scratchSectors = 64

// ChecksumStore keeps one CRC-32C per 512-byte sector of every resident
// chunk, covering the chunk's logical content (for a backup that includes
// data still parked in the journal — replay preserves logical content, so
// the sums stay valid across it). Write paths Stamp after the device ack;
// read paths Verify the payload they are about to return. A chunk with no
// stamped sectors verifies against the all-zero fingerprint.
//
// Sums live in memory beside the slot table, not on the data disk: what the
// subsystem defends against is the data disk lying, so keeping the sums off
// that failure domain is the point (production stores put them in NVRAM or
// a separate checksum file; here a restarted server re-attaches to the same
// Store, which models sums persisted outside the rotting device).
//
// The table is striped by chunk ID, and the hot paths are fused single
// passes: Verify snapshots the expected sums (a few words) under the shard
// lock, then walks the payload once, checksumming and comparing each
// sector as it goes; Stamp checksums into a stack scratch and copies the
// words in under the lock. Neither touches the payload under a lock or
// allocates for requests ≤ 32 KiB.
type ChecksumStore struct {
	shards [sumShards]sumShard
}

type sumShard struct {
	mu   sync.Mutex
	sums map[ChunkID][]uint32 // nil slice = chunk exists, all sectors zero
}

func newChecksumStore() *ChecksumStore {
	c := &ChecksumStore{}
	for i := range c.shards {
		c.shards[i].sums = make(map[ChunkID][]uint32)
	}
	return c
}

func (c *ChecksumStore) shard(id ChunkID) *sumShard {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &c.shards[h>>58&(sumShards-1)]
}

// create registers a fresh chunk whose every sector reads as zeros.
func (c *ChecksumStore) create(id ChunkID) {
	sh := c.shard(id)
	sh.mu.Lock()
	if _, ok := sh.sums[id]; !ok {
		sh.sums[id] = nil
	}
	sh.mu.Unlock()
}

// drop forgets a deleted chunk's sums.
func (c *ChecksumStore) drop(id ChunkID) {
	sh := c.shard(id)
	sh.mu.Lock()
	delete(sh.sums, id)
	sh.mu.Unlock()
}

// sectorRange validates alignment and returns the covered sector window.
func sectorRange(id ChunkID, off int64, n int) (lo, hi int64) {
	if off%util.SectorSize != 0 || n%util.SectorSize != 0 ||
		off < 0 || off+int64(n) > util.ChunkSize {
		panic(fmt.Sprintf("blockstore: unaligned checksum range %v [%d,%d)",
			id, off, off+int64(n)))
	}
	return off / util.SectorSize, (off + int64(n)) / util.SectorSize
}

// materializeLocked returns the chunk's sum array, expanding the all-zero
// nil representation on first stamp. ok=false means the chunk is unknown.
func (sh *sumShard) materializeLocked(id ChunkID) ([]uint32, bool) {
	arr, ok := sh.sums[id]
	if !ok {
		return nil, false
	}
	if arr == nil {
		arr = make([]uint32, chunkSectors)
		for i := range arr {
			arr[i] = zeroSectorCRC
		}
		sh.sums[id] = arr
	}
	return arr, true
}

// Stamp records the checksums of data just written at chunk-relative off.
// Stamping an unknown chunk is a no-op (it was deleted concurrently).
func (c *ChecksumStore) Stamp(id ChunkID, off int64, data []byte) {
	lo, hi := sectorRange(id, off, len(data))
	var scratch [scratchSectors]uint32
	var fresh []uint32
	if hi-lo <= scratchSectors {
		fresh = scratch[:hi-lo]
	} else {
		fresh = make([]uint32, hi-lo)
	}
	for i := range fresh {
		s := int64(i) * util.SectorSize
		fresh[i] = util.Checksum(data[s : s+util.SectorSize])
	}
	sh := c.shard(id)
	sh.mu.Lock()
	if arr, ok := sh.materializeLocked(id); ok {
		copy(arr[lo:hi], fresh)
	}
	sh.mu.Unlock()
}

// Verify checks data read at chunk-relative off against the recorded sums.
// A mismatch returns an error wrapping util.ErrCorrupt naming the first bad
// sector; an unknown chunk verifies vacuously (deleted concurrently).
func (c *ChecksumStore) Verify(id ChunkID, off int64, data []byte) error {
	lo, hi := sectorRange(id, off, len(data))
	// Snapshot the expected sums — a handful of words — under the shard
	// lock, then walk the payload exactly once outside it, comparing each
	// sector's checksum as it is computed.
	var scratch [scratchSectors]uint32
	var want []uint32
	if hi-lo <= scratchSectors {
		want = scratch[:hi-lo]
	} else {
		want = make([]uint32, hi-lo)
	}
	sh := c.shard(id)
	sh.mu.Lock()
	arr, ok := sh.sums[id]
	if !ok {
		sh.mu.Unlock()
		return nil
	}
	if arr == nil {
		for i := range want {
			want[i] = zeroSectorCRC
		}
	} else {
		copy(want, arr[lo:hi])
	}
	sh.mu.Unlock()
	for i := range want {
		s := int64(i) * util.SectorSize
		if g := util.Checksum(data[s : s+util.SectorSize]); g != want[i] {
			return fmt.Errorf("blockstore: chunk %v sector %d: checksum %08x, want %08x: %w",
				id, lo+int64(i), g, want[i], util.ErrCorrupt)
		}
	}
	return nil
}

// Sum returns the recorded checksum of one sector (tests and diagnostics).
func (c *ChecksumStore) Sum(id ChunkID, sector int64) (uint32, bool) {
	sh := c.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	arr, ok := sh.sums[id]
	if !ok || sector < 0 || sector >= chunkSectors {
		return 0, false
	}
	if arr == nil {
		return zeroSectorCRC, true
	}
	return arr[sector], true
}
