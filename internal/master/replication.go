package master

import (
	"encoding/json"
	"fmt"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/coldtier"
	"ursa/internal/proto"
	"ursa/internal/util"
)

// Master replication: the primary ships an ordered metadata op log (vdisk
// create/delete, lease grant/renew/close, server registration, RecoverChunk
// view installs) to every hot standby over the ordinary transport. Primacy
// is a clock lease: the primary heartbeats (an empty log batch) every
// PrimacyTTL/4, and a standby that hears nothing for its rank-staggered
// timeout probes the other masters and, if none claims primacy at a
// current-or-newer epoch, bumps the epoch and takes over. Safety does not
// rest on the lease alone — every chunkserver-bound command carries the
// epoch and chunkservers reject anything older than the newest epoch they
// have witnessed (StatusStaleEpoch), so a deposed master that un-partitions
// is fenced at the edges before it can corrupt placement. This is
// primary/backup log shipping, not consensus: an acked client op whose log
// entry had not yet reached the promoted standby is lost (the shipper is
// kicked on every append, so the window is one RPC), and the lease
// reclaim-on-renew rule below papers over exactly that window for leases.

// Log entry kinds.
const (
	entryKindPutVDisk       = "put-vdisk"
	entryKindDelete         = "delete-vdisk"
	entryKindLease          = "lease"
	entryKindServer         = "add-server"
	entryKindSetChunk       = "set-chunk"
	entryKindAllocSegs      = "alloc-segs"
	entryKindPutSnapshot    = "put-snapshot"
	entryKindDeleteSnapshot = "delete-snapshot"
	entryKindSetCold        = "set-cold"
	entryKindSegRemap       = "seg-remap"
)

// MetricMasterPromotions counts standby-to-primary promotions.
const MetricMasterPromotions = "master-promotions"

// logEntry is one replicated metadata mutation. Seq is dense from 1 within
// an epoch's log; Data is the kind-specific body.
type logEntry struct {
	Seq  uint64          `json:"seq"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

type entryPutVDisk struct {
	Meta VDiskMeta `json:"meta"`
	// Placement cursors at append time, so a promoted standby continues
	// round-robin placement where the primary left off.
	NextID      uint32 `json:"nextID"`
	NextPrimary int    `json:"nextPrimary"`
	NextBackup  int    `json:"nextBackup"`
}

type entryDelete struct {
	ID uint32 `json:"id"`
}

type entryLease struct {
	ID     uint32    `json:"id"`
	Holder string    `json:"holder"`
	Expiry time.Time `json:"expiry"`
}

type entrySetChunk struct {
	VDisk uint32    `json:"vdisk"`
	Index uint32    `json:"index"`
	Meta  ChunkMeta `json:"meta"`
}

// entryAllocSegs advances the segment-ID watermark. Replicated before any
// flush or GC rewrite touches the object store, so a promoted standby never
// re-issues an ID that may already hold data (segments are write-once).
type entryAllocSegs struct {
	NextSeg uint64 `json:"nextSeg"`
}

type entryPutSnapshot struct {
	Meta   SnapshotMeta `json:"meta"`
	NextID uint32       `json:"nextID"`
}

type entryDeleteSnapshot struct {
	Name string `json:"name"`
}

// entrySetCold replaces one chunk's cold extent table (nil = fully
// materialized, demand-fetch metadata dropped).
type entrySetCold struct {
	VDisk uint32               `json:"vdisk"`
	Index uint32               `json:"index"`
	Refs  []coldtier.ExtentRef `json:"refs,omitempty"`
}

// segMove records one extent's relocation by the GC rewriter: bytes that
// lived at (Seg, SegOff) now live at (NewSeg, NewSegOff). Length and CRC are
// unchanged — GC moves extents verbatim.
type segMove struct {
	Seg       uint64 `json:"seg"`
	SegOff    int64  `json:"segOff"`
	NewSeg    uint64 `json:"newSeg"`
	NewSegOff int64  `json:"newSegOff"`
}

// entrySegRemap rewrites every snapshot extent and chunk cold ref matching a
// move's old location. Applied atomically under the lock before the old
// segment is deleted, so no replicated metadata ever points at a gone
// segment.
type entrySegRemap struct {
	Moves []segMove `json:"moves"`
}

// ReplicateLogReq is the payload of MOpReplicateLog: a batch of entries
// (empty = heartbeat) from the primary From at Epoch.
type ReplicateLogReq struct {
	Epoch   uint64     `json:"epoch"`
	From    string     `json:"from"`
	Entries []logEntry `json:"entries,omitempty"`
}

// ReplicateLogResp acknowledges a batch with the receiver's epoch and last
// applied sequence; the shipper rewinds its cursor to Applied, so a
// freshly (re)joined standby is caught up by full-log replay.
type ReplicateLogResp struct {
	Epoch   uint64 `json:"epoch"`
	Applied uint64 `json:"applied"`
}

// MasterInfoResp is the payload of MOpMasterInfo and the body of every
// StatusNotPrimary redirect: who this master is, who it believes the
// primary is, and the full endpoint list for client discovery.
type MasterInfoResp struct {
	Self      string   `json:"self"`
	Primary   string   `json:"primary,omitempty"`
	Epoch     uint64   `json:"epoch"`
	IsPrimary bool     `json:"isPrimary"`
	Endpoints []string `json:"endpoints,omitempty"`
	LogSeq    uint64   `json:"logSeq"`
}

// rank returns this master's promotion priority: its index in cfg.Peers.
func (m *Master) rank() int {
	for i, p := range m.cfg.Peers {
		if p == m.cfg.Addr {
			return i
		}
	}
	return len(m.cfg.Peers)
}

// initReplication sets the initial role and starts the shipper and monitor
// goroutines. Rank 0 bootstraps as the primary at epoch 1 unless it joins
// an already-running cluster (JoinStandby: a healed master must discover
// the current epoch rather than resurrect epoch 1). A lone master is the
// group {Addr}: rank 0, no shippers, and a monitor that promotes a joining
// standby after one PrimacyTTL because there is nobody to probe.
func (m *Master) initReplication() {
	m.closedCh = make(chan struct{})
	m.shipKick = make(map[string]chan struct{})
	m.lastHeard = m.cfg.Clock.Now()
	m.primaryAddr = m.cfg.Peers[0]
	if m.rank() == 0 && !m.cfg.JoinStandby {
		m.primary = true
		m.primaryAddr = m.cfg.Addr
		m.epoch = 1
	}
	for _, p := range m.cfg.Peers {
		if p == m.cfg.Addr {
			continue
		}
		kick := make(chan struct{}, 1)
		m.shipKick[p] = kick
		m.wg.Add(1)
		go m.shipLoop(p, kick)
	}
	m.wg.Add(1)
	go m.monitorLoop()
}

// stopReplication terminates the background goroutines (idempotent).
func (m *Master) stopReplication() {
	m.closeOnce.Do(func() { close(m.closedCh) })
	m.wg.Wait()
}

// IsPrimary reports whether this master currently holds primacy.
func (m *Master) IsPrimary() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.primary
}

// Addr returns the address this master serves at.
func (m *Master) Addr() string { return m.cfg.Addr }

// Epoch returns the current primacy epoch (0 until a standby hears of one).
func (m *Master) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// LogSeq returns the last metadata log sequence this master holds.
func (m *Master) LogSeq() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return uint64(len(m.log))
}

// appendLocked records one mutation in the replicated log (m.mu held).
// Only an acting primary originates entries.
func (m *Master) appendLocked(kind string, v any) {
	if !m.primary {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	m.log = append(m.log, logEntry{Seq: uint64(len(m.log)) + 1, Kind: kind, Data: data})
	for _, kick := range m.shipKick {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
}

// applyEntryLocked replays one log entry into local state (m.mu held).
func (m *Master) applyEntryLocked(e logEntry) {
	switch e.Kind {
	case entryKindPutVDisk:
		var p entryPutVDisk
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		m.vdisks[p.Meta.ID] = &vdisk{meta: p.Meta.Clone()}
		m.byName[p.Meta.Name] = p.Meta.ID
		m.nextID = p.NextID
		m.nextPrimary, m.nextBackup = p.NextPrimary, p.NextBackup
	case entryKindDelete:
		var p entryDelete
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		if vd, okID := m.vdisks[p.ID]; okID {
			delete(m.byName, vd.meta.Name)
			delete(m.vdisks, p.ID)
		}
	case entryKindLease:
		var p entryLease
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		if vd, okID := m.vdisks[p.ID]; okID {
			vd.lease = lease{holder: p.Holder, expiry: p.Expiry}
		}
	case entryKindServer:
		var p RegisterReq
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		m.addServerLocked(p.Addr, p.Machine, p.SSD)
	case entryKindSetChunk:
		var p entrySetChunk
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		if vd, okID := m.vdisks[p.VDisk]; okID && int(p.Index) < len(vd.meta.Chunks) {
			vd.meta.Chunks[p.Index] = p.Meta
		}
		m.viewChanges++
	case entryKindAllocSegs:
		var p entryAllocSegs
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		if p.NextSeg > m.nextSeg {
			m.nextSeg = p.NextSeg
		}
	case entryKindPutSnapshot:
		var p entryPutSnapshot
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		meta := p.Meta.Clone()
		m.snapshots[meta.Name] = &meta
		m.nextID = p.NextID
	case entryKindDeleteSnapshot:
		var p entryDeleteSnapshot
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		delete(m.snapshots, p.Name)
	case entryKindSetCold:
		var p entrySetCold
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		if vd, okID := m.vdisks[p.VDisk]; okID && int(p.Index) < len(vd.meta.Chunks) {
			vd.meta.Chunks[p.Index].Cold = p.Refs
		}
	case entryKindSegRemap:
		var p entrySegRemap
		if json.Unmarshal(e.Data, &p) != nil {
			return
		}
		m.applySegRemapLocked(p.Moves)
	}
}

// applySegRemapLocked rewrites every cold reference — snapshot extent tables
// and live chunks' demand-fetch refs — matching a GC move (m.mu held).
func (m *Master) applySegRemapLocked(moves []segMove) {
	type loc struct {
		seg uint64
		off int64
	}
	remap := make(map[loc]segMove, len(moves))
	for _, mv := range moves {
		remap[loc{mv.Seg, mv.SegOff}] = mv
	}
	fix := func(refs []coldtier.ExtentRef) {
		for i := range refs {
			if mv, hit := remap[loc{refs[i].Seg, refs[i].SegOff}]; hit {
				refs[i].Seg = mv.NewSeg
				refs[i].SegOff = mv.NewSegOff
			}
		}
	}
	for _, snap := range m.snapshots {
		for _, refs := range snap.Chunks {
			fix(refs)
		}
	}
	for _, vd := range m.vdisks {
		for i := range vd.meta.Chunks {
			fix(vd.meta.Chunks[i].Cold)
		}
	}
}

// resetStateLocked wipes the replicated state and log so a full replay
// from the authoritative primary can rebuild it (m.mu held). Runs when a
// follower adopts a new epoch: the new primary's log is authoritative and
// any diverged local tail must not survive.
func (m *Master) resetStateLocked() {
	m.vdisks = make(map[uint32]*vdisk)
	m.byName = make(map[string]uint32)
	m.servers = nil
	m.nextID, m.nextPrimary, m.nextBackup = 0, 0, 0
	m.viewChanges = 0
	m.log = nil
	m.snapshots = make(map[string]*SnapshotMeta)
	m.nextSeg = 1
	m.coldReports = make(map[uint64]map[string]bool)
}

// adoptEpochLocked accepts a remote primary's newer epoch: step down if
// acting primary, wipe state, and await full replay (m.mu held).
func (m *Master) adoptEpochLocked(epoch uint64, from string) {
	m.epoch = epoch
	m.primary = false
	m.primaryAddr = from
	m.resetStateLocked()
	m.lastHeard = m.cfg.Clock.Now()
}

// fencedByEpoch handles a StatusStaleEpoch rejection from a chunkserver or
// a standby: somewhere a newer epoch exists, so this master was deposed.
// It steps down and wipes (the epoch floor is recorded so a later
// self-promotion jumps past the fence), but does not adopt a primary —
// discovery happens via the next heartbeat or probe.
func (m *Master) fencedByEpoch(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if epoch < m.epoch {
		return
	}
	if m.primary || epoch > m.epoch {
		m.epoch = epoch
		m.primary = false
		m.primaryAddr = ""
		m.resetStateLocked()
		m.lastHeard = m.cfg.Clock.Now()
	}
}

// masterInfoLocked builds the discovery/redirect body (m.mu held).
func (m *Master) masterInfoLocked() MasterInfoResp {
	info := MasterInfoResp{
		Self:      m.cfg.Addr,
		Epoch:     m.epoch,
		IsPrimary: m.primary,
		Endpoints: append([]string(nil), m.cfg.Peers...),
		LogSeq:    uint64(len(m.log)),
	}
	if m.primary {
		info.Primary = m.cfg.Addr
	} else {
		info.Primary = m.primaryAddr
	}
	return info
}

func (m *Master) handleMasterInfo(*proto.Message) jsonResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ok(m.masterInfoLocked())
}

// notPrimaryLocked is the redirect result for client ops reaching a
// standby (m.mu held).
func (m *Master) notPrimaryLocked() jsonResult {
	return jsonResult{proto.StatusNotPrimary, m.masterInfoLocked()}
}

// handleReplicateLog applies a shipped batch (or heartbeat) from a
// claimed primary.
func (m *Master) handleReplicateLog(msg *proto.Message) jsonResult {
	var req ReplicateLogReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if req.Epoch < m.epoch {
		return jsonResult{proto.StatusStaleEpoch,
			ReplicateLogResp{Epoch: m.epoch, Applied: uint64(len(m.log))}}
	}
	if req.Epoch > m.epoch {
		m.adoptEpochLocked(req.Epoch, req.From)
	} else if m.primary && req.From != m.cfg.Addr {
		// Two primaries raced to the same epoch. Deterministic tie-break:
		// the lower-ranked endpoint keeps primacy.
		if peerRank(m.cfg.Peers, req.From) < m.rank() {
			m.adoptEpochLocked(req.Epoch, req.From)
		} else {
			return jsonResult{proto.StatusStaleEpoch,
				ReplicateLogResp{Epoch: m.epoch, Applied: uint64(len(m.log))}}
		}
	}
	m.primaryAddr = req.From
	m.lastHeard = m.cfg.Clock.Now()
	applied := uint64(len(m.log))
	for _, e := range req.Entries {
		if e.Seq <= applied {
			continue // duplicate from a rewound shipper
		}
		if e.Seq != applied+1 {
			break // gap: the ack's Applied rewinds the shipper
		}
		m.applyEntryLocked(e)
		m.log = append(m.log, e)
		applied++
	}
	return ok(ReplicateLogResp{Epoch: m.epoch, Applied: applied})
}

func peerRank(peers []string, addr string) int {
	for i, p := range peers {
		if p == addr {
			return i
		}
	}
	return len(peers)
}

// shipLoop replicates the log to one standby: kicked on every append,
// heartbeating every PrimacyTTL/4 otherwise, rewinding its cursor from
// each ack so dead or freshly-healed standbys catch up by full replay.
func (m *Master) shipLoop(peer string, kick <-chan struct{}) {
	defer m.wg.Done()
	hb := m.cfg.PrimacyTTL / 4
	var cursor uint64
	for {
		select {
		case <-m.closedCh:
			return
		case <-kick:
		case <-m.cfg.Clock.After(hb):
		}
		m.mu.Lock()
		if !m.primary {
			m.mu.Unlock()
			cursor = 0
			continue
		}
		epoch := m.epoch
		if cursor > uint64(len(m.log)) {
			cursor = 0 // log was reset across a demote/re-promote cycle
		}
		batch := append([]logEntry(nil), m.log[cursor:]...)
		m.mu.Unlock()

		payload, err := json.Marshal(ReplicateLogReq{Epoch: epoch, From: m.cfg.Addr, Entries: batch})
		if err != nil {
			continue
		}
		resp, err := m.peers.Call(peer, &proto.Message{
			Op:      proto.MOpReplicateLog,
			Epoch:   epoch,
			Payload: payload,
		}, m.cfg.PrimacyTTL/2)
		if err != nil {
			continue // dead standby: the heartbeat tick paces the retry
		}
		var ack ReplicateLogResp
		ackErr := json.Unmarshal(resp.Payload, &ack)
		status := resp.Status
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
		if status == proto.StatusStaleEpoch {
			if ackErr == nil {
				m.fencedByEpoch(ack.Epoch)
			}
			continue
		}
		if status == proto.StatusOK && ackErr == nil {
			if ack.Epoch > epoch {
				m.fencedByEpoch(ack.Epoch)
				continue
			}
			cursor = ack.Applied
		}
	}
}

// monitorLoop watches for primary silence on standbys and runs the
// promotion protocol.
func (m *Master) monitorLoop() {
	defer m.wg.Done()
	tick := m.cfg.PrimacyTTL / 8
	for {
		select {
		case <-m.closedCh:
			return
		case <-m.cfg.Clock.After(tick):
		}
		m.maybePromote()
	}
}

// promoteTimeout is how long a standby waits out primary silence before
// probing: one PrimacyTTL, staggered by rank so standbys promote in
// priority order instead of racing.
func (m *Master) promoteTimeout() time.Duration {
	r := m.rank()
	if r > 0 {
		r--
	}
	return m.cfg.PrimacyTTL + time.Duration(r)*m.cfg.PrimacyTTL/4
}

// maybePromote probes the peer set after primary silence and takes over if
// no reachable master claims primacy at a current-or-newer epoch.
func (m *Master) maybePromote() {
	m.mu.Lock()
	if m.primary || m.cfg.Clock.Now().Sub(m.lastHeard) < m.promoteTimeout() {
		m.mu.Unlock()
		return
	}
	curEpoch := m.epoch
	m.mu.Unlock()

	// Probe every other master first: a healthy primary whose heartbeats
	// are merely delayed (or a newly joined standby discovering the
	// cluster) must stand down, not split the epoch space.
	maxEpoch := curEpoch
	var claimedPrimary string
	var claimedEpoch uint64
	for _, p := range m.cfg.Peers {
		if p == m.cfg.Addr {
			continue
		}
		resp, err := m.peers.Call(p, &proto.Message{Op: proto.MOpMasterInfo}, m.cfg.PrimacyTTL/4)
		if err != nil {
			continue
		}
		var info MasterInfoResp
		infoErr := json.Unmarshal(resp.Payload, &info)
		bufpool.Put(resp.Payload)
		proto.Recycle(resp)
		if infoErr != nil {
			continue
		}
		if info.Epoch > maxEpoch {
			maxEpoch = info.Epoch
		}
		if info.IsPrimary && info.Epoch >= curEpoch && info.Epoch >= claimedEpoch {
			claimedPrimary, claimedEpoch = info.Self, info.Epoch
		}
	}
	if claimedPrimary != "" {
		m.mu.Lock()
		if claimedEpoch > m.epoch {
			m.adoptEpochLocked(claimedEpoch, claimedPrimary)
		} else if !m.primary {
			m.primaryAddr = claimedPrimary
			m.lastHeard = m.cfg.Clock.Now()
		}
		m.mu.Unlock()
		return
	}

	m.mu.Lock()
	if m.primary || m.epoch != curEpoch {
		m.mu.Unlock() // something changed under us: re-evaluate next tick
		return
	}
	m.epoch = maxEpoch + 1
	m.primary = true
	m.primaryAddr = m.cfg.Addr
	epoch := m.epoch
	servers := make([]string, len(m.servers))
	for i, s := range m.servers {
		servers[i] = s.addr
	}
	m.lastHeard = m.cfg.Clock.Now()
	m.mu.Unlock()

	if reg := m.cfg.Metrics; reg != nil {
		reg.Counter(MetricMasterPromotions).Inc()
	}
	// Fence the deposed master everywhere before acting on the new epoch:
	// an epoch-stamped no-op makes every reachable chunkserver adopt the
	// new epoch, so stale RecoverChunk/view-bump commands from the old
	// primary bounce even at servers this primary has not commanded yet.
	for _, addr := range servers {
		_, _ = m.peers.Call(addr, &proto.Message{Op: proto.OpNop, Epoch: epoch}, m.cfg.PrimacyTTL/4)
	}
	// Wake the shippers: followers must hear the new epoch (and get the
	// full log replayed) without waiting for the next heartbeat tick.
	m.mu.Lock()
	for _, kick := range m.shipKick {
		select {
		case kick <- struct{}{}:
		default:
		}
	}
	m.mu.Unlock()
}

// LeaseInfo is one vdisk's lease in a state snapshot.
type LeaseInfo struct {
	Holder string
	Expiry time.Time
}

// StateSnapshot is a deep copy of the master's replicated metadata, used
// by tests to prove a promoted standby's state equals the pre-crash
// primary's.
type StateSnapshot struct {
	Servers     []RegisterReq
	VDisks      map[uint32]VDiskMeta
	Leases      map[uint32]LeaseInfo
	Snapshots   map[string]SnapshotMeta
	NextID      uint32
	NextPrimary int
	NextBackup  int
	NextSeg     uint64
	ViewChanges int
	LogSeq      uint64
}

// Snapshot captures the replicated state for comparison.
func (m *Master) Snapshot() StateSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := StateSnapshot{
		VDisks:      make(map[uint32]VDiskMeta, len(m.vdisks)),
		Leases:      make(map[uint32]LeaseInfo, len(m.vdisks)),
		Snapshots:   make(map[string]SnapshotMeta, len(m.snapshots)),
		NextID:      m.nextID,
		NextPrimary: m.nextPrimary,
		NextBackup:  m.nextBackup,
		NextSeg:     m.nextSeg,
		ViewChanges: m.viewChanges,
		LogSeq:      uint64(len(m.log)),
	}
	for name, snap := range m.snapshots {
		s.Snapshots[name] = snap.Clone()
	}
	for _, sv := range m.servers {
		s.Servers = append(s.Servers, RegisterReq{Addr: sv.addr, Machine: sv.machine, SSD: sv.ssd})
	}
	for id, vd := range m.vdisks {
		s.VDisks[id] = vd.meta.Clone()
		s.Leases[id] = LeaseInfo{Holder: vd.lease.holder, Expiry: vd.lease.expiry}
	}
	return s
}

// errNotPrimary builds the standard not-primary error.
func (m *Master) errNotPrimary(what string) error {
	return fmt.Errorf("master %s: %s: %w", m.cfg.Addr, what, util.ErrNotPrimary)
}
