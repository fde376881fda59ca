// Package proto defines URSA's binary wire protocol. One fixed-layout
// message type serves requests and responses alike; the hot data path
// (read/write/replicate) costs a single 80-byte header plus the payload,
// with no reflection or allocation beyond the payload buffer — a deliberate
// contrast with the verbose serialization the Ceph-like baseline uses,
// which Fig 7's CPU-efficiency comparison measures.
//
// Every request carries its operation's identity and remaining time budget
// (OpID, Budget) so receivers can derive their own sub-deadlines from the
// client's budget instead of fixed per-layer timeouts — the deadline
// decrement rule internal/opctx implements.
package proto

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
)

// Op identifies a request type.
type Op uint8

// Chunk-server operations (§4.2.1).
const (
	OpNop Op = iota
	// OpRead reads Length bytes at Off of Chunk; requires matching View
	// and Version.
	OpRead
	// OpWrite is a client write to the primary: write locally, replicate
	// to backups, bump the version.
	OpWrite
	// OpReplicate is a backup write (from the primary, or from the client
	// under client-directed replication): journal or bypass, bump version.
	OpReplicate
	// OpWritePrimary is the client-directed tiny-write to the primary:
	// write locally and bump version, but do NOT forward to backups (the
	// client replicates itself, §3.2).
	OpWritePrimary
	// OpGetVersion returns the replica's version and view for Chunk.
	OpGetVersion
	// OpCreateChunk allocates a chunk replica on this server.
	OpCreateChunk
	// OpDeleteChunk drops a chunk replica.
	OpDeleteChunk
	// OpRepairSince asks for the ranges modified after Version (journal
	// lite query); the response payload encodes mods+data, or
	// StatusFallback when history is gone and a full copy is needed.
	OpRepairSince
	// OpFetchChunk reads raw chunk data for recovery transfer (on backups
	// it resolves journal extents transparently).
	OpFetchChunk
	// OpApplyRepair applies repair data to a lagging replica and sets its
	// version.
	OpApplyRepair
	// OpSetView installs a new view number on the replica (view change).
	OpSetView
	// OpUpgrade asks the server to perform a graceful hot upgrade (§5.2).
	OpUpgrade
	// OpCloneChunk tells a newly allocated replica to pull the whole chunk
	// from a source replica (failure recovery, §4.2.2).
	OpCloneChunk
	// OpRepairFrom tells a lagging replica to pull incremental repair from
	// a source replica (falling back to a full clone when the source's
	// journal-lite history is gone, §4.2.1).
	OpRepairFrom
	// OpRebuildSegment tells an RS segment holder to rebuild its segment
	// by decoding same-offset stripes fetched from N surviving holders
	// (or, failing that, by copying its piece from the primary).
	OpRebuildSegment
	// OpFetchSegment asks a chunk primary for piece Seg of an RS stripe:
	// data pieces are read from the local full chunk, parity pieces are
	// encoded on the fly.
	OpFetchSegment
	// OpFlushChunks (master→primary) asks a chunkserver to flush a set of
	// its chunks to the object store as immutable cold-tier segments
	// (payload: chunkserver.FlushChunksReq JSON; reply: the extent refs).
	OpFlushChunks

	// Object-store operations. The Chunk field carries the 64-bit object
	// (segment) ID; objects are immutable and write-once.
	//
	// OpObjPut stores the payload as object Chunk (StatusExists on reuse).
	OpObjPut
	// OpObjGet reads Length bytes at Off of object Chunk.
	OpObjGet
	// OpObjDelete removes object Chunk, draining in-flight GETs first.
	OpObjDelete
	// OpObjList returns all object IDs (payload: JSON []uint64).
	OpObjList
)

// Flag bits qualifying how a replicate payload is applied.
const (
	// FlagXorApply marks an RS parity delta: the holder XORs the payload
	// into its current contents instead of overwriting.
	FlagXorApply uint8 = 1 << iota
	// FlagVersionBump marks an empty replicate that only advances the
	// holder's version (its segment is untouched by the write, but all
	// holders stay in version lockstep).
	FlagVersionBump
)

// Master operations (JSON payloads; off the hot path).
const (
	MOpCreateVDisk Op = 64 + iota
	MOpOpenVDisk
	MOpRenewLease
	MOpCloseVDisk
	MOpDeleteVDisk
	MOpReportFailure
	MOpGetVDisk
	MOpStats
	MOpRegister
	// MOpReplicateLog ships a batch of metadata log entries from the
	// primary master to a standby (payload: ReplicateLogReq JSON). The ack
	// returns the standby's applied sequence so the shipper can rewind.
	MOpReplicateLog
	// MOpMasterInfo asks a master who it thinks the primary is (payload:
	// MasterInfoResp JSON). Served by primaries and standbys alike; clients
	// use it to discover the cluster after StatusNotPrimary.
	MOpMasterInfo
	// MOpSnapshot flushes a vdisk's current contents to the cold tier as an
	// immutable, named snapshot (payload: SnapshotReq JSON).
	MOpSnapshot
	// MOpCloneFromSnapshot provisions a new vdisk whose chunks start as
	// extent-map references into a snapshot — O(metadata), no data copy
	// (payload: CloneReq JSON).
	MOpCloneFromSnapshot
	// MOpDeleteSnapshot drops a snapshot's metadata; its extent bytes
	// become garbage for the cold-tier GC unless clones still reference
	// them (payload: SnapshotReq JSON).
	MOpDeleteSnapshot
	// MOpChunkMaterialized reports that a cloned chunk's replicas hold all
	// of its extents locally, releasing its cold references (payload:
	// MaterializedReq JSON).
	MOpChunkMaterialized
	// MOpGetColdRefs re-reads a chunk's current cold extent references —
	// the chunkserver's recovery path after GC moved an extent out from
	// under a stale ref (payload: ColdRefsReq JSON).
	MOpGetColdRefs
)

// Status codes carried in responses.
type Status uint8

// Response statuses.
const (
	StatusOK Status = iota
	StatusError
	StatusNotFound
	StatusStaleView    // request view older than replica view
	StatusStaleVersion // request version older than replica version
	StatusBehind       // replica behind the request version: needs repair
	StatusExists
	StatusLeaseHeld
	StatusQuota
	StatusFallback // incremental repair impossible: take the full copy
	StatusRateLimited
	StatusCorrupt // read succeeded but the payload failed checksum verification
	// StatusStaleEpoch rejects a master-driven command whose Epoch is older
	// than the newest this server has witnessed: the sender was deposed and
	// must stand down (fencing, §4.1's lease discipline applied to masters).
	StatusStaleEpoch
	// StatusNotPrimary rejects a client metadata op sent to a standby (or
	// deposed) master; the JSON body carries a MasterInfo hint naming the
	// primary the sender should redirect to.
	StatusNotPrimary
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusError:
		return "error"
	case StatusNotFound:
		return "not-found"
	case StatusStaleView:
		return "stale-view"
	case StatusStaleVersion:
		return "stale-version"
	case StatusBehind:
		return "behind"
	case StatusExists:
		return "exists"
	case StatusLeaseHeld:
		return "lease-held"
	case StatusQuota:
		return "quota"
	case StatusFallback:
		return "fallback"
	case StatusRateLimited:
		return "rate-limited"
	case StatusCorrupt:
		return "corrupt"
	case StatusStaleEpoch:
		return "stale-epoch"
	case StatusNotPrimary:
		return "not-primary"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// Message is one protocol frame. Requests and responses share the layout;
// responses echo ID and set Status.
type Message struct {
	ID      uint64
	Op      Op
	Status  Status
	Chunk   blockstore.ChunkID
	Off     int64
	Length  uint32
	View    uint64
	Version uint64
	// OpID identifies the end-to-end operation this message serves (the
	// client's opctx ID); all messages an op fans out to share it.
	OpID uint64
	// Budget is the op's remaining deadline budget at send time (0 = no
	// deadline). Receivers re-anchor it on their own clock and bound every
	// wait they perform on the op's behalf by it.
	Budget time.Duration
	// Flags qualifies replicate application (Flag* bits).
	Flags uint8
	// Seg is the RS piece index this message concerns (segment rebuilds
	// and fetches); zero elsewhere.
	Seg uint16
	// Epoch is the master primacy epoch stamped on master-driven commands
	// (view changes, recovery clones, version bumps). Chunkservers reject
	// commands older than the newest epoch they have witnessed
	// (StatusStaleEpoch), fencing a deposed master. Zero means unfenced:
	// client data-path ops never carry an epoch.
	Epoch   uint64
	Payload []byte
}

// Header layout (little endian):
//
//	0  ID       uint64
//	8  Op       uint8
//	9  Status   uint8
//	10 Flags    uint8
//	11 _        uint8 (pad)
//	12 Length   uint32
//	16 Chunk    uint64
//	24 Off      int64
//	32 View     uint64
//	40 Version  uint64
//	48 PayloadN uint32
//	52 Seg      uint16
//	54 _        uint16 (pad)
//	56 OpID     uint64
//	64 Budget   int64 (nanoseconds of remaining deadline; 0 = none)
//	72 Epoch    uint64 (master primacy epoch; 0 = unfenced)
const HeaderSize = 80

// MaxPayload bounds a frame's payload (one striped request never exceeds a
// few MB; this guards against corrupt length fields).
const MaxPayload = 16 << 20

// EncodeHeader writes the message header into buf.
func (m *Message) EncodeHeader(buf []byte) {
	_ = buf[HeaderSize-1]
	binary.LittleEndian.PutUint64(buf[0:], m.ID)
	buf[8] = byte(m.Op)
	buf[9] = byte(m.Status)
	buf[10], buf[11] = m.Flags, 0
	binary.LittleEndian.PutUint32(buf[12:], m.Length)
	binary.LittleEndian.PutUint64(buf[16:], uint64(m.Chunk))
	binary.LittleEndian.PutUint64(buf[24:], uint64(m.Off))
	binary.LittleEndian.PutUint64(buf[32:], m.View)
	binary.LittleEndian.PutUint64(buf[40:], m.Version)
	binary.LittleEndian.PutUint32(buf[48:], uint32(len(m.Payload)))
	binary.LittleEndian.PutUint16(buf[52:], m.Seg)
	binary.LittleEndian.PutUint16(buf[54:], 0)
	binary.LittleEndian.PutUint64(buf[56:], m.OpID)
	binary.LittleEndian.PutUint64(buf[64:], uint64(m.Budget))
	binary.LittleEndian.PutUint64(buf[72:], m.Epoch)
}

// DecodeHeader parses a header into m, returning the payload length the
// caller must read next.
func (m *Message) DecodeHeader(buf []byte) (payloadLen int, err error) {
	if len(buf) < HeaderSize {
		return 0, fmt.Errorf("proto: short header %d", len(buf))
	}
	m.ID = binary.LittleEndian.Uint64(buf[0:])
	m.Op = Op(buf[8])
	m.Status = Status(buf[9])
	m.Flags = buf[10]
	m.Length = binary.LittleEndian.Uint32(buf[12:])
	m.Chunk = blockstore.ChunkID(binary.LittleEndian.Uint64(buf[16:]))
	m.Off = int64(binary.LittleEndian.Uint64(buf[24:]))
	m.View = binary.LittleEndian.Uint64(buf[32:])
	m.Version = binary.LittleEndian.Uint64(buf[40:])
	n := binary.LittleEndian.Uint32(buf[48:])
	if n > MaxPayload {
		return 0, fmt.Errorf("proto: payload %d exceeds limit", n)
	}
	m.Seg = binary.LittleEndian.Uint16(buf[52:])
	m.OpID = binary.LittleEndian.Uint64(buf[56:])
	m.Budget = time.Duration(binary.LittleEndian.Uint64(buf[64:]))
	m.Epoch = binary.LittleEndian.Uint64(buf[72:])
	return int(n), nil
}

// WireSize returns the total encoded size, used by bandwidth shaping.
func (m *Message) WireSize() int { return HeaderSize + len(m.Payload) }

// hdrPool recycles header scratch buffers for Encode/Decode. A stack array
// would escape through the io.Writer/io.Reader interface and cost one heap
// allocation per message on the Send hot path.
var hdrPool = sync.Pool{
	New: func() any { b := new([HeaderSize]byte); return b },
}

// Encode writes the full frame to w.
func (m *Message) Encode(w io.Writer) error {
	hdr := hdrPool.Get().(*[HeaderSize]byte)
	m.EncodeHeader(hdr[:])
	_, err := w.Write(hdr[:])
	hdrPool.Put(hdr)
	if err != nil {
		return err
	}
	if len(m.Payload) > 0 {
		if _, err := w.Write(m.Payload); err != nil {
			return err
		}
	}
	return nil
}

// Decode reads one full frame from r. The payload buffer is reused when
// the message already carries one of sufficient capacity; otherwise it is
// leased from bufpool (the decoder's consumer owns it and must release it
// with bufpool.Put when done — see DESIGN.md "Hot-path memory ownership").
func (m *Message) Decode(r io.Reader) error {
	hdr := hdrPool.Get().(*[HeaderSize]byte)
	defer hdrPool.Put(hdr)
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	n, err := m.DecodeHeader(hdr[:])
	if err != nil {
		return err
	}
	if n > 0 {
		if cap(m.Payload) >= n {
			m.Payload = m.Payload[:n]
		} else {
			m.Payload = bufpool.Get(n)
		}
		if _, err := io.ReadFull(r, m.Payload); err != nil {
			return err
		}
	} else {
		m.Payload = nil
	}
	return nil
}

// msgPool recycles Message frames between requests. A message is
// recyclable only at a point where its holder has exclusive ownership —
// the transport after the handler returned and the response was enqueued,
// a dispatcher dropping a late response, or a caller that has fully
// consumed a reply. Payload leases are settled separately (bufpool.Put
// before Recycle); Recycle never touches the payload.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// GetMessage leases a zeroed Message from the pool. Callers release it
// with Recycle once no other goroutine can reach it.
func GetMessage() *Message {
	return msgPool.Get().(*Message)
}

// Recycle returns m to the message pool. The caller must hold the only
// reference and must have settled the payload lease already; m is zeroed
// so stale correlation fields can never leak into the next request.
func Recycle(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
	msgPool.Put(m)
}

// Reply builds a response echoing m's correlation fields (including the
// end-to-end op ID, so responses remain traceable to their operation).
// The response is leased from the message pool; whoever consumes it last
// (the requesting client) recycles it.
func (m *Message) Reply(status Status) *Message {
	r := GetMessage()
	r.ID = m.ID
	r.Op = m.Op
	r.Status = status
	r.Chunk = m.Chunk
	r.View = m.View
	r.Version = m.Version
	r.OpID = m.OpID
	r.Seg = m.Seg
	r.Epoch = m.Epoch
	return r
}

// IsMasterOp reports whether the op belongs to the master service.
func (o Op) IsMasterOp() bool { return o >= MOpCreateVDisk }
