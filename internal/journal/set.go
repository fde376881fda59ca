package journal

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/jindex"
	"ursa/internal/metrics"
	"ursa/internal/opctx"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// Sink is the replay target: the backup server's HDD chunk store.
type Sink interface {
	WriteAt(id blockstore.ChunkID, p []byte, off int64) error
	ReadAt(id blockstore.ChunkID, p []byte, off int64) error
	Disk() simdisk.Disk
}

// Config tunes a journal Set.
type Config struct {
	// AutoMergeAt is the per-chunk index tree size that triggers a
	// background merge into the sorted array.
	AutoMergeAt int
	// PollInterval is how often the replayer rechecks gated journals
	// (HDD journals waiting for an idle disk, records mid-write).
	PollInterval time.Duration
	// IdleGrace is how long the backup disk must stay idle before replay
	// resumes: without it, replay sneaks a slow random write into every
	// gap between foreground appends and throttles them to the HDD's
	// random rate — the exact inversion journals exist to prevent.
	IdleGrace time.Duration
	// MaxBatch caps the records one group-commit leader claims per flush.
	// 1 disables batching (each append is its own device write — the
	// pre-group-commit behaviour); 0 selects DefaultMaxBatch.
	MaxBatch int
	// ReplayWindow caps the records the replayer drains per pass before
	// reclaiming their journal space. 0 selects DefaultReplayWindow.
	ReplayWindow int
	// Metrics, when set, receives the group-commit distributions:
	// batch sizes ("journal-batch-records"), flush latency
	// ("journal-flush"), commit-queue wait ("journal-commit-queue"), and
	// replay window sizes ("journal-replay-window") / coalesced sink
	// writes per window ("journal-replay-writes").
	Metrics *metrics.Registry
}

// Default batching limits: large enough that a burst at the §3.4 queue
// depths commits in one sequential write, small enough to bound flush
// latency and replay-window memory.
const (
	DefaultMaxBatch     = 64
	DefaultReplayWindow = 64
)

// Fault metrics (registered on cfg.Metrics when set).
const (
	// MetricJournalDead counts journals declared dead after a failed flush.
	MetricJournalDead = "journal-dead"
	// MetricBypassWrites counts Appends degraded to WriteDirect because
	// every journal was dead — the bottom rung of the §3.2 expansion ladder.
	MetricBypassWrites = "journal-bypass-writes"
	// MetricReplayErrors counts replay windows parked because a chunk's
	// records could not reach the sink (sink I/O error or unreadable
	// journal); the records stay queued and replay resumes after heal.
	MetricReplayErrors = "journal-replay-errors"
	// MetricReplayCorrupt counts replay windows parked because a record
	// failed its CRC check when re-read from the journal: bit-rot between
	// append and replay. The record is never applied to the sink —
	// skip-and-park, repair via the OnFault report path.
	MetricReplayCorrupt = "journal-replay-corrupt"
)

// Group-commit and replay distribution names (see Config.Metrics).
const (
	// MetricBatchRecords samples records per group-commit flush.
	MetricBatchRecords = "journal-batch-records"
	// MetricFlushLatency is the claim-to-durable latency of each flush.
	MetricFlushLatency = "journal-flush"
	// MetricCommitQueue is the time an append waits in the commit queue.
	MetricCommitQueue = "journal-commit-queue"
	// MetricReplayWindow samples records replayed per window.
	MetricReplayWindow = "journal-replay-window"
	// MetricReplayWrites samples coalesced sink writes per window.
	MetricReplayWrites = "journal-replay-writes"
)

// errJournalDead marks an append whose journal died before (or while)
// flushing it; Append re-routes such records to a surviving journal.
var errJournalDead = errors.New("journal: journal dead")

// DefaultConfig returns production-like tuning.
func DefaultConfig() Config {
	return Config{
		AutoMergeAt:  4096,
		PollInterval: 10 * time.Millisecond,
		IdleGrace:    30 * time.Millisecond,
		MaxBatch:     DefaultMaxBatch,
		ReplayWindow: DefaultReplayWindow,
	}
}

// commitReq is one Append waiting in a journal's group-commit queue.
// done/lead signal across goroutines; the timing/result fields are written
// by the batch leader under the Set lock and read by the waiter only after
// done is closed.
type commitReq struct {
	rec  *pendingRecord
	pos  int64 // monotonic byte position of the record header
	hdr  header
	data []byte

	enq     time.Time // enqueued (commit-queue wait starts)
	claimed time.Time // a leader claimed it into a batch
	flushed time.Time // the batch's device write completed

	err  error
	done chan struct{} // buffered 1: fires when the record's fate is final
	lead chan struct{} // buffered 1: fires to promote this waiter to leader
}

// Set manages the journals of one backup server, in expansion priority
// order: local SSD journals first, then (rarely) an HDD journal (§3.2).
// Appends group-commit: concurrent callers enqueue records on a journal's
// commit queue and the first of them becomes the batch leader, writing the
// whole queue as one contiguous sequential device write and waking every
// waiter with its individual result — at queue depth N the journal device
// sees ~1 write where it used to see N (§3.4's intra-disk parallelism
// recovered on a single-writer log). Journal selection stripes concurrent
// appends across sibling journals by least commit-queue depth (inter-disk
// parallelism) while keeping the SSD-before-HDD expansion order.
//
// A single background replayer drains records oldest-first per journal in
// windows, merging superseded appends away and coalescing adjacent extents
// of one chunk into single large sink writes, exactly one writer at a
// time — the single-threaded elevator-friendly regime the paper prescribes
// for backup HDDs (§5.3).
//
// Concurrent appends — to different chunks or to the same chunk — are
// safe; the caller must only order appends whose extents OVERLAP (the
// chunk server's per-chunk write pipeline waits out overlapping pending
// predecessors before appending, and its version protocol keeps the
// version numbers the index carries monotone per extent). An Append
// returns only after its batch's flush and index insert, so
// caller-sequenced overlapping appends are index-ordered too. Same-chunk
// concurrency is what lets one group-commit flush batch a hot chunk's
// burst instead of draining it one record per device write.
type Set struct {
	clk  clock.Clock
	sink Sink
	cfg  Config

	mu        sync.Mutex
	cond      *sync.Cond // replayer wakeup
	drainCond *sync.Cond // Drain() wakeup
	journals  []*Journal
	idleOnly  []bool // journals[i] replays only when its disk is idle
	indexes   map[blockstore.ChunkID]*jindex.Index
	pending   int // unreplayed (non-pad) records across all journals
	force     int // >0: Drain in progress, ignore idle gating
	lastBusy  time.Time
	started   bool
	closed    bool
	done      chan struct{}

	// chunkLocks serialize replay against journal-bypass direct writes on
	// the same chunk; they are always acquired BEFORE s.mu. Striped by
	// chunk ID hash: two chunks sharing a stripe serialize spuriously but
	// harmlessly, and the lookup is a shift instead of a mutex-guarded map
	// that QD32 bypass writes used to contend on.
	chunkLocks [chunkLockStripes]sync.Mutex

	// Fault callbacks, registered via OnFault (the owning chunk server
	// installs them after Start — hence guarded by mu, read at fire time).
	onJournalDead func(name string, err error)
	onReplayError func(id blockstore.ChunkID, err error)

	replayedRecords int64
	replayedBytes   int64
	mergedSectors   int64 // sectors skipped at replay because overwritten
	replayErrors    int64 // parked replay windows (chunk could not reach sink)
	replayCorrupt   int64 // parked replay windows whose record failed CRC verification
	deadJournals    int64

	// replayQ is the replayer's per-record index-query scratch, reused
	// across QueryInto calls; touched only under s.mu.
	replayQ []jindex.Extent
}

// NewSet creates an empty journal set replaying into sink. Call
// AddSSDJournal/AddHDDJournal, then Start.
func NewSet(clk clock.Clock, sink Sink, cfg Config) *Set {
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = DefaultConfig().PollInterval
	}
	if cfg.IdleGrace < 0 {
		cfg.IdleGrace = 0
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.ReplayWindow <= 0 {
		cfg.ReplayWindow = DefaultReplayWindow
	}
	s := &Set{
		clk:     clk,
		sink:    sink,
		cfg:     cfg,
		indexes: make(map[blockstore.ChunkID]*jindex.Index),
		done:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.drainCond = sync.NewCond(&s.mu)
	return s
}

// AddSSDJournal registers a journal region on an SSD; it is replayed
// continuously (SSD parallelism hides the reads, §3.2).
func (s *Set) AddSSDJournal(name string, disk simdisk.Disk, base, size int64) *Journal {
	return s.add(name, disk, base, size, false)
}

// AddHDDJournal registers the overflow journal on an HDD; it is replayed
// only when its disk is idle, since seeks would otherwise fight foreground
// I/O (§3.2).
func (s *Set) AddHDDJournal(name string, disk simdisk.Disk, base, size int64) *Journal {
	return s.add(name, disk, base, size, true)
}

func (s *Set) add(name string, disk simdisk.Disk, base, size int64, idleOnly bool) *Journal {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := newJournal(name, disk, base, size, len(s.journals))
	s.journals = append(s.journals, j)
	s.idleOnly = append(s.idleOnly, idleOnly)
	return j
}

// OnFault registers the set's fault callbacks: journalDead fires once per
// journal when a flush failure kills it; replayError fires when a chunk's
// replay cannot reach the sink and its records are parked. Either may be
// nil. Callbacks run outside the set lock but on set goroutines — they
// must not block (the chunk server's failure report is fire-and-forget).
// Safe to call after Start: core builds journal sets before chunk servers.
func (s *Set) OnFault(journalDead func(name string, err error), replayError func(id blockstore.ChunkID, err error)) {
	s.mu.Lock()
	s.onJournalDead = journalDead
	s.onReplayError = replayError
	s.mu.Unlock()
}

// Start launches the background replayer.
func (s *Set) Start() {
	s.mu.Lock()
	if s.started || s.closed {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.replayLoop()
}

// Close stops the replayer without draining; pending journal data stays
// unreplayed (recovery would reread it in a restart, which our simulation
// models as replica reallocation instead).
func (s *Set) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	started := s.started
	s.cond.Broadcast()
	s.drainCond.Broadcast()
	s.mu.Unlock()
	if started {
		<-s.done
	}
}

// Append journals a backup write: data at chunk-relative byte offset off.
// Concurrent appends group-commit — the caller enqueues on a journal's
// commit queue and either leads the next batch flush or waits for a leader
// to commit it. The record is acked only after the sequential device write
// containing it has completed. A non-nil op gets the commit-queue wait and
// flush time recorded as the backup-jqueue/backup-jflush stages.
//
// It returns ErrQuota when every live journal is full — callers fall back
// to a direct backup write (and the master should already have rate-limited
// the client before this point, §3.2). When every journal is DEAD the set
// degrades itself: the append becomes a WriteDirect against the sink (ack
// latency degrades, durability semantics don't), counted by
// journal-bypass-writes. An append routed to a journal that dies mid-flush
// is re-routed to a surviving journal transparently.
func (s *Set) Append(op *opctx.Op, id blockstore.ChunkID, off int64, data []byte, version uint64) error {
	if err := checkAligned(off, len(data)); err != nil {
		return err
	}
	// Checksum before taking any lock: it is the CPU-heavy part of the path.
	h := header{chunk: id, off: off, dataLen: len(data), version: version,
		checksum: util.Checksum(data)}

	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return util.ErrClosed
		}
		j := s.pickJournalLocked(len(data))
		if j == nil {
			allDead := len(s.journals) > 0
			for _, jj := range s.journals {
				if !jj.dead {
					allDead = false
					break
				}
			}
			s.mu.Unlock()
			if allDead {
				// Bottom of the expansion ladder: no journal left to absorb
				// the write, so it goes straight to the backup disk.
				if m := s.cfg.Metrics; m != nil {
					m.Counter(MetricBypassWrites).Inc()
				}
				return s.WriteDirect(id, data, off)
			}
			return fmt.Errorf("journal: all journals full: %w", util.ErrQuota)
		}
		pos, _ := j.reserve(len(data)) // pickJournalLocked checked fits
		rec := &pendingRecord{
			chunk:    id,
			off:      off,
			dataLen:  len(data),
			version:  version,
			dataJOff: j.dataJOff(pos),
			footer:   recordBytes(len(data)),
		}
		j.fifo = append(j.fifo, rec)
		s.pending++
		req := commitReqPool.Get().(*commitReq)
		req.rec, req.pos, req.hdr, req.data = rec, pos, h, data
		req.enq = s.clk.Now()
		j.commitq = append(j.commitq, req)
		j.queued++
		leader := !j.flushing
		if leader {
			j.flushing = true
		}
		s.mu.Unlock()

		if !leader {
			// Follower: wait for a leader's batch to commit us — or inherit
			// leadership when the previous batch completes with us at the head.
			select {
			case <-req.done:
			case <-req.lead:
				s.flush(j)
				<-req.done
			}
		} else {
			s.flush(j)
			// A leader's own request is always the head of the queue it claims.
			<-req.done
		}
		s.observeCommit(op, req)
		err := req.err
		putCommitReq(req)
		if errors.Is(err, errJournalDead) {
			// The journal died under us; its picker slot is gone, so the
			// retry lands on a survivor (or degrades to bypass).
			continue
		}
		return err
	}
}

// commitReqPool recycles commit-queue entries: one struct and two channels
// per append otherwise. A commitReq is recyclable once its appender has
// consumed its fate — done and lead are buffered single-fire channels with
// exactly that one consumer, so both are empty when Append returns.
var commitReqPool = sync.Pool{New: func() any {
	return &commitReq{
		done: make(chan struct{}, 1),
		lead: make(chan struct{}, 1),
	}
}}

func putCommitReq(req *commitReq) {
	req.rec, req.data, req.err = nil, nil, nil
	req.claimed, req.flushed = time.Time{}, time.Time{}
	commitReqPool.Put(req)
}

// pickJournalLocked selects the journal for a new record: the least
// commit-queue-depth journal with room among the always-replayable (SSD)
// journals, falling back to the idle-only (HDD) overflow journals only
// when every SSD journal is full — least-queue-depth striping for
// inter-disk parallelism (§3.4) under the §3.2 expansion priority.
func (s *Set) pickJournalLocked(dataLen int) *Journal {
	pick := func(idleOnly bool) *Journal {
		var best *Journal
		for i, j := range s.journals {
			if j.dead || s.idleOnly[i] != idleOnly || !j.fits(dataLen) {
				continue
			}
			if best == nil || j.queued < best.queued {
				best = j
			}
		}
		return best
	}
	if j := pick(false); j != nil {
		return j
	}
	return pick(true)
}

// flush runs one group-commit batch on j: claim up to MaxBatch queued
// requests, write them as contiguous sequential device writes (one per run
// of back-to-back records; wrap pads and the region end split runs),
// publish every record's result and index entries, then hand leadership to
// the next queue head.
// The caller must hold j's leadership (j.flushing).
func (s *Set) flush(j *Journal) {
	s.mu.Lock()
	n := len(j.commitq)
	if n > s.cfg.MaxBatch {
		n = s.cfg.MaxBatch
	}
	batch := j.commitq[:n:n]
	j.commitq = j.commitq[n:]
	claimed := s.clk.Now()
	for _, r := range batch {
		r.claimed = claimed
	}
	wasDead := j.dead
	s.mu.Unlock()

	if wasDead {
		// The journal died after these requests enqueued: fail them without
		// touching the device so Append re-routes them immediately.
		for _, r := range batch {
			r.err = fmt.Errorf("journal %s: %w", j.name, errJournalDead)
		}
	} else {
		// The commit queue is in reservation order, so positions increase
		// monotonically; a record extends the current run when its header
		// starts exactly where the previous record ended. A record ending
		// exactly at the region end needs no wrap pad, so the next one
		// starts at the same position counter but back at the region start:
		// the run must end there, or writeRun would lay it past the region.
		for i := 0; i < len(batch); {
			k := i + 1
			end := batch[i].pos + batch[i].rec.footer
			for k < len(batch) && batch[k].pos == end && end%j.size != 0 {
				end += batch[k].rec.footer
				k++
			}
			j.writeRun(batch[i:k])
			i = k
		}
	}
	flushed := s.clk.Now()

	s.mu.Lock()
	var deadCb func(name string, err error)
	var deadCause error
	// Index-insert accumulation uses the journal's leader-owned scratch; the
	// map keeps its keys across flushes (cleared to empty slices), so
	// presence in `order` is tracked by emptiness, not by key.
	if j.insertScratch == nil {
		j.insertScratch = make(map[blockstore.ChunkID][]jindex.Extent)
	}
	inserts := j.insertScratch
	order := j.orderScratch[:0]
	for _, r := range batch {
		r.flushed = flushed
		j.queued--
		if r.err != nil {
			if !errors.Is(r.err, errJournalDead) {
				// A device write failed: declare the journal dead (once) and
				// convert the error so Append re-routes the record.
				if !j.dead {
					j.dead = true
					s.deadJournals++
					deadCb, deadCause = s.onJournalDead, r.err
					if m := s.cfg.Metrics; m != nil {
						m.Counter(MetricJournalDead).Inc()
					}
				}
				r.err = fmt.Errorf("journal %s: %v: %w", j.name, r.err, errJournalDead)
			}
			r.rec.failed = true
			continue
		}
		r.rec.ready = true
		j.appends++
		j.bytesAppended += int64(r.rec.dataLen)
		if len(inserts[r.rec.chunk]) == 0 {
			order = append(order, r.rec.chunk)
		}
		inserts[r.rec.chunk] = append(inserts[r.rec.chunk], jindex.Extent{
			Off:  uint32(r.rec.off / util.SectorSize),
			Len:  uint32(int64(r.rec.dataLen) / util.SectorSize),
			JOff: r.rec.dataJOff,
		})
	}
	for _, id := range order {
		s.indexLocked(id).InsertBatch(inserts[id])
		inserts[id] = inserts[id][:0]
	}
	j.orderScratch = order
	j.flushes++
	j.batchedRecords += int64(len(batch))
	if m := s.cfg.Metrics; m != nil {
		m.ObserveValue(MetricBatchRecords, int64(len(batch)))
		m.ObserveLatency(MetricFlushLatency, flushed.Sub(claimed))
		for _, r := range batch {
			m.ObserveLatency(MetricCommitQueue, claimed.Sub(r.enq))
		}
	}
	var next *commitReq
	if len(j.commitq) > 0 {
		next = j.commitq[0]
	} else {
		j.flushing = false
	}
	s.cond.Signal()
	s.mu.Unlock()

	if next != nil {
		next.lead <- struct{}{}
	}
	for _, r := range batch {
		r.done <- struct{}{}
	}
	if deadCb != nil {
		deadCb(j.name, deadCause)
	}
}

// writeRun writes one contiguous run of records as a single sequential
// device write — headers and payloads laid out back-to-back — and stamps
// each request with the write's result. Space is already reserved, so no
// lock is needed.
//
// The write is zero-copy: each record contributes a leased header sector
// and its caller's payload buffer to one scatter/gather list, and the
// device writes the whole batch straight out of them (simdisk.WritevAt; the
// pwritev of a real journal). Record payloads are sector-aligned
// (checkAligned), so the iovec is exactly [hdr, data] per record with no
// padding between records. The iovec slices are leader-owned journal
// scratch, reused across runs.
func (j *Journal) writeRun(run []*commitReq) {
	hdrs := j.iovHdrs[:0]
	bufs := j.iovBufs[:0]
	for _, r := range run {
		hdr := bufpool.Get(headerSize)
		r.hdr.encode(hdr)
		hdrs = append(hdrs, hdr)
		bufs = append(bufs, hdr, r.data)
	}
	err := simdisk.WritevAt(j.disk, bufs, j.base+run[0].pos%j.size)
	for _, h := range hdrs {
		bufpool.Put(h)
	}
	j.iovHdrs, j.iovBufs = hdrs, bufs
	for _, r := range run {
		r.err = err
	}
}

// observeCommit lands a committed (or failed) append's queue/flush split on
// its op as the backup-jqueue/backup-jflush stages.
func (s *Set) observeCommit(op *opctx.Op, req *commitReq) {
	if op == nil {
		return
	}
	op.ObserveStage(opctx.StageJournalQueue, req.claimed.Sub(req.enq))
	op.ObserveStage(opctx.StageJournalFlush, req.flushed.Sub(req.claimed))
}

// chunkLockStripes is the per-chunk lock stripe count; power of two.
const chunkLockStripes = 32

// chunkLock returns the per-chunk serialization mutex (striped).
func (s *Set) chunkLock(id blockstore.ChunkID) *sync.Mutex {
	h := uint64(id) * 0x9E3779B97F4A7C15
	return &s.chunkLocks[h>>59&(chunkLockStripes-1)]
}

// WriteDirect performs a journal-bypass backup write (large sequential
// writes, §3.2): the data goes straight to the backup disk and any
// overlapped journal appends are invalidated. The per-chunk lock orders it
// against an in-flight replay of the same chunk, so a stale replay can
// never land on top of newer bypass data.
func (s *Set) WriteDirect(id blockstore.ChunkID, data []byte, off int64) error {
	if err := checkAligned(off, len(data)); err != nil {
		return err
	}
	l := s.chunkLock(id)
	l.Lock()
	defer l.Unlock()
	if err := s.sink.WriteAt(id, data, off); err != nil {
		return err
	}
	s.mu.Lock()
	if ix, ok := s.indexes[id]; ok {
		ix.Invalidate(uint32(off/util.SectorSize), uint32(len(data)/util.SectorSize))
	}
	s.mu.Unlock()
	return nil
}

// Read serves a backup read: newest journal data for mapped extents, the
// backup disk for the holes. It is used when a backup acts as temporary
// primary or during recovery (§4.2.1), so some lock-held journal I/O is
// acceptable.
func (s *Set) Read(id blockstore.ChunkID, p []byte, off int64) error {
	if err := checkAligned(off, len(p)); err != nil {
		return err
	}
	offSec := uint32(off / util.SectorSize)
	lenSec := uint32(len(p) / util.SectorSize)

	s.mu.Lock()
	ix, ok := s.indexes[id]
	if !ok {
		s.mu.Unlock()
		return s.sink.ReadAt(id, p, off)
	}
	// Per-call pooled scratch: holes outlive s.mu (they are read against the
	// sink after unlock), so this cannot be Set-level state like replayQ.
	rs := readScratchPool.Get().(*readScratch)
	rs.extents = ix.QueryInto(rs.extents[:0], offSec, lenSec)
	// Read mapped extents from their journals while holding the lock so
	// replay cannot reclaim the space underneath us.
	for _, e := range rs.extents {
		j := s.journalOf(e.JOff)
		if j == nil {
			s.mu.Unlock()
			return fmt.Errorf("journal: no journal owns joff %d", e.JOff)
		}
		dst := p[(int64(e.Off)*util.SectorSize)-off:][:int64(e.Len)*util.SectorSize]
		if err := j.readAtJOff(dst, e.JOff); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	rs.holes = jindex.HolesInto(rs.holes[:0], offSec, lenSec, rs.extents)
	s.mu.Unlock()

	for _, h := range rs.holes {
		dst := p[(int64(h.Off)*util.SectorSize)-off:][:int64(h.Len)*util.SectorSize]
		if err := s.sink.ReadAt(id, dst, int64(h.Off)*util.SectorSize); err != nil {
			return err
		}
	}
	readScratchPool.Put(rs)
	return nil
}

// readScratch holds one Read call's extent and hole lists; error paths skip
// the Put and simply let the scratch fall to the collector.
type readScratch struct {
	extents, holes []jindex.Extent
}

var readScratchPool = sync.Pool{New: func() any { return new(readScratch) }}

// DropChunk discards index state for a deleted chunk; its journal records
// are skipped at replay.
func (s *Set) DropChunk(id blockstore.ChunkID) {
	s.mu.Lock()
	delete(s.indexes, id)
	s.mu.Unlock()
}

// Drain synchronously replays every pending record, ignoring idle gating.
// Recovery and tests use it; production relies on the background replayer.
func (s *Set) Drain() {
	s.mu.Lock()
	s.force++
	s.cond.Broadcast()
	for s.pending > 0 && !s.closed {
		s.drainCond.Wait()
	}
	s.force--
	s.mu.Unlock()
}

// DevicesBusy reports whether any journal device in the set is serving I/O
// right now. A backup's read path merges journal-resident extents, so
// anything idle-gating reads against the backup (the scrubber) must watch
// the journal devices too, not just the data disk.
func (s *Set) DevicesBusy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.journals {
		if j.disk.QueueDepth() > 0 {
			return true
		}
	}
	return false
}

// Pending returns the number of unreplayed records.
func (s *Set) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// indexLocked returns (creating if needed) the chunk's index.
func (s *Set) indexLocked(id blockstore.ChunkID) *jindex.Index {
	ix, ok := s.indexes[id]
	if !ok {
		ix = jindex.New(s.cfg.AutoMergeAt)
		s.indexes[id] = ix
	}
	return ix
}

// journalOf maps a global joff to its journal.
func (s *Set) journalOf(joff uint64) *Journal {
	r := int(joff >> joffRegionBits)
	if r < len(s.journals) && s.journals[r].owns(joff) {
		return s.journals[r]
	}
	return nil
}

// replayLoop is the single background replayer.
func (s *Set) replayLoop() {
	defer close(s.done)
	for {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return
		}
		j := s.nextJournalLocked()
		if j == nil {
			if s.pending == 0 {
				s.drainCond.Broadcast()
				s.cond.Wait() // new append, Drain, or Close
				s.mu.Unlock()
				continue
			}
			// Records exist but are gated (mid-write or idle-only): poll.
			s.mu.Unlock()
			s.clk.Sleep(s.cfg.PollInterval)
			continue
		}
		window := s.windowLocked(j)
		s.mu.Unlock()
		if !s.replayWindow(j, window) {
			// Window parked (a chunk could not reach the sink): its records
			// stay queued; poll until a heal lets them through.
			s.clk.Sleep(s.cfg.PollInterval)
		}
	}
}

// nextJournalLocked picks the highest-priority journal whose head record is
// replayable, discarding pads and failed records as it goes. Replay always
// yields to foreground work on the backup disk: its random writes would
// otherwise starve journal appends and bypass writes, inverting the
// journals' whole purpose (§3.2, §5.3).
func (s *Set) nextJournalLocked() *Journal {
	if s.force == 0 {
		now := s.clk.Now()
		if s.sink.Disk().QueueDepth() > 0 {
			s.lastBusy = now
			return nil // the backup disk is serving foreground I/O
		}
		if now.Sub(s.lastBusy) < s.cfg.IdleGrace {
			return nil // let a foreground burst finish before seeking away
		}
	}
	for i, j := range s.journals {
		// Trim pads/failed records first so tails advance promptly.
		for len(j.fifo) > 0 {
			r := j.fifo[0]
			if r.chunk == padChunk || r.failed {
				j.tail += r.footer
				j.fifo = j.fifo[1:]
				if r.failed {
					s.pending--
				}
				continue
			}
			break
		}
		if len(j.fifo) == 0 || !j.fifo[0].ready {
			continue
		}
		if s.idleOnly[i] && s.force == 0 && j.disk.QueueDepth() > 0 {
			continue
		}
		return j
	}
	return nil
}

// windowLocked collects the replayable prefix of j's fifo: up to
// ReplayWindow ready records plus any pads or failed records between them,
// stopping at the first record still awaiting its commit flush. The
// entries stay on the fifo — this loop is the only consumer — and are
// popped together after replay.
func (s *Set) windowLocked(j *Journal) []*pendingRecord {
	n, records := 0, 0
	for n < len(j.fifo) && records < s.cfg.ReplayWindow {
		r := j.fifo[n]
		if r.chunk == padChunk || r.failed {
			n++
			continue
		}
		if !r.ready {
			break
		}
		records++
		n++
	}
	return j.fifo[:n:n]
}

// replayWindow drains one window: records grouped by chunk, each chunk's
// surviving extents coalesced into the fewest sink writes, then the whole
// window's journal space reclaimed at once. If any chunk fails to reach
// the sink the WHOLE window stays parked — nothing is popped, nothing is
// reclaimed — and false is returned; replaying an already-flushed chunk
// again later is a no-op (its index entries were invalidated), so the
// retry after heal is idempotent.
func (s *Set) replayWindow(j *Journal, window []*pendingRecord) bool {
	var order []blockstore.ChunkID
	groups := make(map[blockstore.ChunkID][]*pendingRecord)
	for _, rec := range window {
		if rec.chunk == padChunk || rec.failed {
			continue
		}
		if _, ok := groups[rec.chunk]; !ok {
			order = append(order, rec.chunk)
		}
		groups[rec.chunk] = append(groups[rec.chunk], rec)
	}

	var sinkWrites int64
	var parked bool
	for _, id := range order {
		w, err := s.replayChunk(id, groups[id])
		sinkWrites += w
		if err != nil {
			parked = true
			corrupt := errors.Is(err, util.ErrCorrupt)
			s.mu.Lock()
			s.replayErrors++
			if corrupt {
				s.replayCorrupt++
			}
			cb := s.onReplayError
			if m := s.cfg.Metrics; m != nil {
				if corrupt {
					m.Counter(MetricReplayCorrupt).Inc()
				} else {
					m.Counter(MetricReplayErrors).Inc()
				}
			}
			s.mu.Unlock()
			if cb != nil {
				cb(id, err)
			}
		}
	}
	if parked {
		return false
	}

	s.mu.Lock()
	replayed, failed := 0, 0
	for _, rec := range window {
		j.tail += rec.footer
		switch {
		case rec.chunk == padChunk:
		case rec.failed:
			failed++
		default:
			replayed++
			s.replayedBytes += int64(rec.dataLen)
		}
	}
	j.fifo = j.fifo[len(window):]
	s.pending -= replayed + failed
	s.replayedRecords += int64(replayed)
	if m := s.cfg.Metrics; m != nil && replayed > 0 {
		m.ObserveValue(MetricReplayWindow, int64(replayed))
		m.ObserveValue(MetricReplayWrites, sinkWrites)
	}
	if s.pending == 0 {
		s.drainCond.Broadcast()
	}
	s.mu.Unlock()
	return true
}

// replayChunk replays one chunk's records from a window, holding the chunk
// lock across query → sink write → invalidate so a bypass write cannot
// interleave with a stale replay (lock order: chunk lock before s.mu). It
// returns the number of coalesced sink writes issued, plus an error when
// the chunk's data could not all reach the sink (sink write failure or
// unreadable journal) — the caller parks the window and retries after heal
// instead of dropping the records.
func (s *Set) replayChunk(id blockstore.ChunkID, recs []*pendingRecord) (int64, error) {
	l := s.chunkLock(id)
	l.Lock()
	defer l.Unlock()

	// jranges are the records' payload regions; only index entries still
	// pointing inside them are live — everything else was overwritten since
	// the append and merges away (the paper's "overwrites between two
	// successive replays" saving).
	type jrange struct{ lo, hi uint64 }
	ranges := make([]jrange, 0, len(recs))
	inRanges := func(joff uint64) bool {
		for _, rg := range ranges {
			if joff >= rg.lo && joff < rg.hi {
				return true
			}
		}
		return false
	}

	s.mu.Lock()
	var current []jindex.Extent
	var liveRecs []*pendingRecord
	ix, haveIx := s.indexes[id]
	var totalSectors, liveSectors int64
	for _, rec := range recs {
		offSec := uint32(rec.off / util.SectorSize)
		lenSec := uint32(int64(rec.dataLen) / util.SectorSize)
		totalSectors += int64(lenSec)
		jEnd := rec.dataJOff + uint64(lenSec)
		ranges = append(ranges, jrange{rec.dataJOff, jEnd})
		if !haveIx {
			continue
		}
		live := false
		s.replayQ = ix.QueryInto(s.replayQ[:0], offSec, lenSec)
		for _, e := range s.replayQ {
			if e.JOff >= rec.dataJOff && e.JOff < jEnd {
				current = append(current, e)
				live = true
			}
		}
		if live {
			liveRecs = append(liveRecs, rec)
		}
	}
	for _, e := range current {
		liveSectors += int64(e.Len)
	}
	s.mergedSectors += totalSectors - liveSectors

	// Re-verify every record whose payload still backs live extents BEFORE
	// any byte of it reaches the sink: bit-rot inside the journal region
	// must park the window for repair (journal-replay-corrupt), never be
	// silently replayed as committed data.
	var chunkErr error
	for _, rec := range liveRecs {
		if err := s.verifyRecordLocked(rec); err != nil {
			chunkErr = err
			break
		}
	}

	// The index maps each chunk sector to at most one journal location, so
	// extents surviving from different records never overlap; sorting by
	// chunk offset and coalescing adjacent extents yields the minimal set
	// of sequential sink writes (elevator-friendly on the backup HDD).
	// Payloads are read under the lock — space cannot be reclaimed mid-read.
	sort.Slice(current, func(a, b int) bool { return current[a].Off < current[b].Off })
	type run struct {
		data []byte
		off  int64
		exts []jindex.Extent
	}
	var runs []run
	if chunkErr == nil {
	readLoop:
		for i := 0; i < len(current); {
			k := i + 1
			for k < len(current) && current[k].Off == current[k-1].Off+current[k-1].Len {
				k++
			}
			exts := current[i:k]
			lo, hi := exts[0].Off, exts[len(exts)-1].End()
			buf := bufpool.Get(int(int64(hi-lo) * util.SectorSize))
			for _, e := range exts {
				dst := buf[int64(e.Off-lo)*util.SectorSize:][:int64(e.Len)*util.SectorSize]
				jj := s.journalOf(e.JOff)
				if jj == nil {
					chunkErr = fmt.Errorf("journal: no journal owns joff %d", e.JOff)
					bufpool.Put(buf)
					break readLoop // index corrupt; park the records
				}
				if err := jj.readAtJOff(dst, e.JOff); err != nil {
					chunkErr = err // journal device unreadable; park the records
					bufpool.Put(buf)
					break readLoop
				}
			}
			runs = append(runs, run{buf, int64(lo) * util.SectorSize, exts})
			i = k
		}
	}
	s.mu.Unlock()

	// Sink writes run outside s.mu (appends continue meanwhile) but under
	// the chunk lock (bypass writes to this chunk wait their turn). A
	// failed sink write parks the remainder; what DID land is still
	// invalidated below so the retry never resurrects stale data.
	var writes int64
	var written []jindex.Extent
	for _, r := range runs {
		if err := s.sink.WriteAt(id, r.data, r.off); err != nil {
			chunkErr = err
			break
		}
		writes++
		written = append(written, r.exts...)
	}
	for _, r := range runs {
		bufpool.Put(r.data)
	}

	s.mu.Lock()
	// Remove mappings we replayed — but only where the index still points
	// into these records; newer appends that landed during the sink write
	// keep precedence.
	if ix2, ok := s.indexes[id]; ok {
		for _, w := range written {
			s.replayQ = ix2.QueryInto(s.replayQ[:0], w.Off, w.Len)
			for _, e := range s.replayQ {
				if inRanges(e.JOff) {
					ix2.Invalidate(e.Off, e.Len)
				}
			}
		}
	}
	s.mu.Unlock()
	return writes, chunkErr
}

// verifyRecordLocked re-reads one record's header and payload from its
// journal and checks payload CRC and header/record agreement. Called with
// s.mu held. A mismatch wraps util.ErrCorrupt; device errors return as-is.
func (s *Set) verifyRecordLocked(rec *pendingRecord) error {
	j := s.journalOf(rec.dataJOff)
	if j == nil {
		return fmt.Errorf("journal: no journal owns joff %d", rec.dataJOff)
	}
	// The header sector sits immediately before the payload sectors.
	hbuf := bufpool.Get(headerSize)
	defer bufpool.Put(hbuf)
	if err := j.readAtJOff(hbuf, rec.dataJOff-1); err != nil {
		return err
	}
	hdr, err := decodeHeader(hbuf)
	if err != nil {
		return fmt.Errorf("journal %s: record %v@%d: %v: %w",
			j.name, rec.chunk, rec.off, err, util.ErrCorrupt)
	}
	if hdr.chunk != rec.chunk || hdr.off != rec.off ||
		hdr.dataLen != rec.dataLen || hdr.version != rec.version {
		return fmt.Errorf("journal %s: record %v@%d: header does not match appended record: %w",
			j.name, rec.chunk, rec.off, util.ErrCorrupt)
	}
	data := bufpool.Get(int(util.AlignUp(int64(rec.dataLen), util.SectorSize)))
	defer bufpool.Put(data)
	if err := j.readAtJOff(data, rec.dataJOff); err != nil {
		return err
	}
	if sum := util.Checksum(data[:rec.dataLen]); sum != hdr.checksum {
		return fmt.Errorf("journal %s: record %v@%d: payload checksum %08x, want %08x: %w",
			j.name, rec.chunk, rec.off, sum, hdr.checksum, util.ErrCorrupt)
	}
	return nil
}

// SetStats is a snapshot of journal-set activity.
type SetStats struct {
	Pending         int
	ReplayedRecords int64
	ReplayedBytes   int64
	MergedSectors   int64 // sectors never written to the sink (overwritten)
	Flushes         int64 // group-commit batches across all journals
	BatchedRecords  int64 // records committed by those batches
	DeadJournals    int64 // journals declared dead after a flush failure
	ReplayErrors    int64 // parked replay windows (chunk could not reach sink)
	ReplayCorrupt   int64 // parked replay windows whose record failed CRC verification
	Journals        []JournalStats
}

// MeanBatch returns the average records per group-commit flush.
func (st SetStats) MeanBatch() float64 {
	if st.Flushes == 0 {
		return 0
	}
	return float64(st.BatchedRecords) / float64(st.Flushes)
}

// JournalStats describes one journal's occupancy.
type JournalStats struct {
	Name    string
	Used    int64
	Size    int64
	Appends int64
	Bytes   int64
	Flushes int64
	Queued  int  // current commit-queue depth
	Dead    bool // failed and removed from striping
}

// Stats returns a consistent snapshot.
func (s *Set) Stats() SetStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SetStats{
		Pending:         s.pending,
		ReplayedRecords: s.replayedRecords,
		ReplayedBytes:   s.replayedBytes,
		MergedSectors:   s.mergedSectors,
		DeadJournals:    s.deadJournals,
		ReplayErrors:    s.replayErrors,
		ReplayCorrupt:   s.replayCorrupt,
	}
	for _, j := range s.journals {
		st.Flushes += j.flushes
		st.BatchedRecords += j.batchedRecords
		st.Journals = append(st.Journals, JournalStats{
			Name:    j.name,
			Used:    j.UsedBytes(),
			Size:    j.size,
			Appends: j.appends,
			Bytes:   j.bytesAppended,
			Flushes: j.flushes,
			Queued:  j.queued,
			Dead:    j.dead,
		})
	}
	return st
}
