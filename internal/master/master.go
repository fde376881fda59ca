package master

import (
	"encoding/json"
	"sync"
	"time"

	"ursa/internal/clock"
	"ursa/internal/coldtier"
	"ursa/internal/metrics"
	"ursa/internal/proto"
	"ursa/internal/transport"
	"ursa/internal/util/backoff"
)

// Config parameterizes the master.
type Config struct {
	Addr   string
	Clock  clock.Clock
	Dialer transport.Dialer
	// Replication is the default replica count per chunk (3).
	Replication int
	// LeaseTTL is the client lease duration ("tens of seconds", §4.1).
	LeaseTTL time.Duration
	// WriteRateLimit caps each client's write bandwidth (0 = unlimited).
	WriteRateLimit float64
	// RPCTimeout bounds the master's own calls to chunk servers.
	RPCTimeout time.Duration
	// HybridMode places backups on HDD servers; when false (SSD-only mode,
	// the paper's Ursa-SSD configuration) backups are placed on SSD
	// servers too.
	HybridMode bool
	// Metrics, when non-nil, receives recovery observability: the
	// chunk-recoveries counter and the chunk-recovery-duration histogram.
	Metrics *metrics.Registry
	// Peers lists every master endpoint, including this master's own Addr,
	// in promotion-priority order (index = rank; Peers[0] bootstraps as
	// primary). One entry or fewer is the group {Addr}: a lone master runs
	// the same protocol as a replicated one, with nobody to ship its log to.
	Peers []string
	// PrimacyTTL is the master-primacy lease: the primary heartbeats every
	// PrimacyTTL/4 and a standby promotes after roughly one TTL of
	// silence (rank-staggered).
	PrimacyTTL time.Duration
	// JoinStandby makes this master start as a standby even at rank 0 —
	// set when (re)joining an already-running cluster, where resurrecting
	// the bootstrap epoch would briefly split primacy.
	JoinStandby bool
	// ObjstoreAddr is the cold tier's object store endpoint; "" disables
	// snapshots, clones, and GC.
	ObjstoreAddr string
}

func (c *Config) fillDefaults() {
	if c.Clock == nil {
		c.Clock = clock.Realtime
	}
	if c.Replication <= 0 {
		c.Replication = 3
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.PrimacyTTL <= 0 {
		c.PrimacyTTL = 2 * time.Second
	}
	if len(c.Peers) <= 1 {
		c.Peers = []string{c.Addr}
	}
}

// serverInfo is one registered chunk server.
type serverInfo struct {
	addr    string
	machine string
	ssd     bool
}

// lease tracks the single client of a vdisk (§4.1).
type lease struct {
	holder string
	expiry time.Time
}

// vdisk is the master-side state of one virtual disk.
type vdisk struct {
	meta  VDiskMeta
	lease lease
}

// Master is the global coordinator.
type Master struct {
	cfg Config

	mu          sync.Mutex
	servers     []serverInfo
	vdisks      map[uint32]*vdisk
	byName      map[string]uint32
	nextID      uint32
	nextPrimary int // round-robin cursors for placement
	nextBackup  int
	viewChanges int

	// Cold-tier state (guarded by mu). nextSeg is the replicated segment-ID
	// watermark; inflightFlushes counts snapshot flushes between their
	// segment-range allocation and metadata record, during which GC must not
	// judge fresh segments dead. coldReports is primary-local soft state:
	// which replicas of a cloned chunk have reported full materialization.
	snapshots       map[string]*SnapshotMeta
	nextSeg         uint64
	inflightFlushes int
	coldReports     map[uint64]map[string]bool

	peers *transport.Peers

	// recMu guards recovering: one in-flight view change per chunk.
	// Reporters of an already-recovering chunk wait for that recovery and
	// share its outcome instead of starting a duplicate clone.
	recMu      sync.Mutex
	recovering map[uint64]chan struct{}

	// Replication state (guarded by mu; see replication.go).
	primary     bool
	epoch       uint64
	primaryAddr string    // best-known primary endpoint
	lastHeard   time.Time // last heartbeat/batch from the primary
	log         []logEntry
	shipKick    map[string]chan struct{}
	closedCh    chan struct{}
	closeOnce   sync.Once
	wg          sync.WaitGroup

	// Cold-tier GC machinery (see coldgc.go). gcMu serializes passes.
	coldCl *coldtier.Client
	gcMu   sync.Mutex

	rpc *transport.Server
}

// New creates a master and starts its replication machinery: a log shipper
// toward every other endpoint in cfg.Peers (none for a lone master) and the
// promotion monitor. Close stops them.
func New(cfg Config) *Master {
	cfg.fillDefaults()
	m := &Master{
		cfg:         cfg,
		vdisks:      make(map[uint32]*vdisk),
		byName:      make(map[string]uint32),
		peers:       transport.NewPeers(cfg.Dialer, cfg.Clock),
		recovering:  make(map[uint64]chan struct{}),
		snapshots:   make(map[string]*SnapshotMeta),
		nextSeg:     1,
		coldReports: make(map[uint64]map[string]bool),
	}
	m.peers.SetRedial(backoff.Policy{Base: cfg.RPCTimeout / 40, Cap: cfg.RPCTimeout / 4}, 2)
	m.initReplication()
	if cfg.ObjstoreAddr != "" {
		m.coldCl = coldtier.NewClient(m.peers, cfg.ObjstoreAddr)
	}
	return m
}

// Serve starts the master's RPC service.
func (m *Master) Serve(l transport.Listener) { m.rpc = transport.Serve(l, m.Handle) }

// Close stops the RPC service and the replication goroutines.
func (m *Master) Close() {
	m.stopReplication()
	if m.rpc != nil {
		m.rpc.Close()
	}
	m.peers.CloseAll()
}

// AddServer registers a chunk server (Go API; MOpRegister is the RPC form).
func (m *Master) AddServer(addr, machine string, ssd bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.addServerLocked(addr, machine, ssd) {
		m.appendLocked(entryKindServer, RegisterReq{Addr: addr, Machine: machine, SSD: ssd})
	}
}

func (m *Master) addServerLocked(addr, machine string, ssd bool) bool {
	for _, s := range m.servers {
		if s.addr == addr {
			return false
		}
	}
	m.servers = append(m.servers, serverInfo{addr: addr, machine: machine, ssd: ssd})
	return true
}

// call performs one RPC to a chunk server through the shared peer pool,
// which evicts the cached connection on transport faults so the next use
// redials. Requests are stamped with the current primacy epoch and a
// StatusStaleEpoch rejection deposes this master on the spot: some
// chunkserver has witnessed a newer primary.
func (m *Master) call(addr string, req *proto.Message) (*proto.Message, error) {
	return m.callT(addr, req, m.cfg.RPCTimeout)
}

func (m *Master) callT(addr string, req *proto.Message, timeout time.Duration) (*proto.Message, error) {
	req.Epoch = m.Epoch()
	resp, err := m.peers.Call(addr, req, timeout)
	if err == nil && resp.Status == proto.StatusStaleEpoch {
		m.fencedByEpoch(resp.Epoch)
	}
	return resp, err
}

// masterOp is one row of the master's dispatch table. anyRole marks the
// replication control traffic a standby serves too; every other op is a
// client/chunkserver metadata op that only the primary may serve. Rows are
// written positionally so none can leave anyRole unstated.
type masterOp struct {
	handle  func(*Master, *proto.Message) jsonResult
	anyRole bool
}

var masterOps = map[proto.Op]masterOp{
	proto.MOpReplicateLog:      {(*Master).handleReplicateLog, true},
	proto.MOpMasterInfo:        {(*Master).handleMasterInfo, true},
	proto.MOpCreateVDisk:       {(*Master).handleCreate, false},
	proto.MOpOpenVDisk:         {(*Master).handleOpen, false},
	proto.MOpRenewLease:        {(*Master).handleRenew, false},
	proto.MOpCloseVDisk:        {(*Master).handleClose, false},
	proto.MOpDeleteVDisk:       {(*Master).handleDelete, false},
	proto.MOpReportFailure:     {(*Master).handleReportFailure, false},
	proto.MOpGetVDisk:          {(*Master).handleGet, false},
	proto.MOpStats:             {(*Master).handleStats, false},
	proto.MOpRegister:          {(*Master).handleRegister, false},
	proto.MOpSnapshot:          {(*Master).handleSnapshot, false},
	proto.MOpCloneFromSnapshot: {(*Master).handleClone, false},
	proto.MOpDeleteSnapshot:    {(*Master).handleDeleteSnapshot, false},
	proto.MOpChunkMaterialized: {(*Master).handleMaterialized, false},
	proto.MOpGetColdRefs:       {(*Master).handleGetColdRefs, false},
}

// Handle dispatches master RPCs through masterOps. A standby answers
// primary-only ops with StatusNotPrimary and a redirect hint. The handlers
// re-check primacy under m.mu before mutating, so a deposition racing an
// in-flight request cannot smuggle an unlogged mutation into a standby.
func (m *Master) Handle(msg *proto.Message) *proto.Message {
	op, known := masterOps[msg.Op]
	if !known {
		return msg.Reply(proto.StatusError)
	}
	if !op.anyRole && !m.IsPrimary() {
		m.mu.Lock()
		res := m.notPrimaryLocked()
		m.mu.Unlock()
		return m.jsonReply(msg, res)
	}
	return m.jsonReply(msg, op.handle(m, msg))
}

// jsonResult pairs a status with a JSON-encodable body.
type jsonResult struct {
	status proto.Status
	body   any
}

func ok(body any) jsonResult              { return jsonResult{proto.StatusOK, body} }
func fail(status proto.Status) jsonResult { return jsonResult{status, nil} }

func (m *Master) jsonReply(msg *proto.Message, res jsonResult) *proto.Message {
	r := msg.Reply(res.status)
	if res.body != nil {
		b, err := json.Marshal(res.body)
		if err != nil {
			return msg.Reply(proto.StatusError)
		}
		r.Payload = b
	}
	return r
}

func (m *Master) handleRegister(msg *proto.Message) jsonResult {
	var req RegisterReq
	if err := json.Unmarshal(msg.Payload, &req); err != nil {
		return fail(proto.StatusError)
	}
	m.AddServer(req.Addr, req.Machine, req.SSD)
	return ok(nil)
}

func (m *Master) handleStats(*proto.Message) jsonResult {
	m.mu.Lock()
	defer m.mu.Unlock()
	return ok(StatsResp{
		Servers:     len(m.servers),
		VDisks:      len(m.vdisks),
		ViewChanges: m.viewChanges,
	})
}
