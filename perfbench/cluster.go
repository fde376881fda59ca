package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/journal"
	"ursa/internal/master"
	"ursa/internal/simdisk"
	"ursa/internal/util"
)

// volumeSize is the vdisk every workload runs on (16 chunks).
const volumeSize = 1 * util.GiB

// env is one built cluster with its open vdisk and issuers.
type env struct {
	c   *core.Cluster
	vd  *client.VDisk
	iss []*issuer
	ver []uint32
}

// clusterOptions is the hybrid 3 x (2 SSD + 4 HDD) cluster with zero-cost
// devices and network: every simulated service time is zero, so what the
// benchmark times is the software stack. The small journal share (16 MiB
// per backup HDD) lets the warm-up wrap every journal region, so no lazily
// allocated simulated page is first touched inside the timed window.
func clusterOptions() core.Options {
	return core.Options{
		Machines:        3,
		SSDsPerMachine:  2,
		HDDsPerMachine:  4,
		Mode:            core.Hybrid,
		Clock:           clock.Realtime,
		SSDModel:        simdisk.SSDModel{Capacity: 16 * util.GiB, Parallelism: 64},
		HDDModel:        simdisk.HDDModel{Capacity: 32 * util.GiB, TrackSkip: 512 * util.KiB},
		JournalFraction: 0.002,
		ReplTimeout:     5 * time.Second,
		CallTimeout:     20 * time.Second,
	}
}

// setup builds the cluster, creates and opens the vdisk, fills the working
// set, and writes random 4 KiB blocks until every journal that backs the
// working set has wrapped; the journals are then drained so each workload
// starts from the same idle state. rec receives one span per step.
func setup(cfg config, rec func(kind string, t0, t1 time.Time)) (*env, error) {
	step := func(kind string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		rec(kind, t0, time.Now())
		if err != nil {
			return fmt.Errorf("setup %s: %w", kind, err)
		}
		return nil
	}
	e := &env{}
	ok := false
	defer func() {
		if !ok {
			e.close()
		}
	}()
	if err := step("setup:cluster", func() (err error) {
		e.c, err = core.New(clusterOptions())
		return err
	}); err != nil {
		return nil, err
	}
	cl := e.c.NewClient("perfbench")
	if err := step("setup:create", func() error {
		_, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "bench", Size: volumeSize})
		return err
	}); err != nil {
		return nil, err
	}
	if err := step("setup:open", func() (err error) {
		e.vd, err = cl.Open("bench")
		return err
	}); err != nil {
		return nil, err
	}

	blocks := int64(workingSet / blockSize)
	e.ver = make([]uint32, blocks)
	for i := 0; i < cfg.qd; i++ {
		lo, hi := blocks*int64(i)/int64(cfg.qd), blocks*int64(i+1)/int64(cfg.qd)
		e.iss = append(e.iss, newIssuer(i, e.vd, lo, hi, e.ver))
	}
	if err := step("setup:fill", func() error {
		runAll(e.iss, func(is *issuer) { is.sweep(true) })
		return e.failure()
	}); err != nil {
		return nil, err
	}
	if err := step("setup:warm", func() error { return e.warm(cfg.seed) }); err != nil {
		return nil, err
	}
	if err := step("setup:drain", e.drain); err != nil {
		return nil, err
	}
	ok = true
	return e, nil
}

// failure returns the first error any issuer has recorded since measure
// last cleared them, or nil.
func (e *env) failure() error {
	for _, is := range e.iss {
		if is.firstErr != nil {
			return is.firstErr
		}
	}
	return nil
}

// warm writes random 4 KiB blocks until every journal backing a
// working-set chunk has appended at least its own size.
func (e *env) warm(seed uint64) error {
	for _, is := range e.iss {
		is.next = randBlocks(is, mix64(seed^0x5741524d^uint64(is.idx)), true)
	}
	backups := e.workingSetBackups()
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		runAll(e.iss, func(is *issuer) { is.runUntil(&stop) })
	}()
	deadline := time.Now().Add(warmTimeout)
	var err error
	for {
		time.Sleep(20 * time.Millisecond)
		if e.journalsWrapped(backups) {
			break
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("journals did not wrap within %v", warmTimeout)
			break
		}
	}
	stop.Store(true)
	<-done
	if err != nil {
		return err
	}
	return e.failure()
}

// warmTimeout bounds the warm-up of a healthy cluster by a wide margin.
const warmTimeout = 60 * time.Second

// workingSetBackups lists the backup replica addresses of the chunks the
// working set covers.
func (e *env) workingSetBackups() map[string]bool {
	out := map[string]bool{}
	n := int((int64(len(e.ver))*blockSize + util.ChunkSize - 1) / util.ChunkSize)
	for _, cm := range e.vd.Meta().Chunks[:n] {
		for _, r := range cm.Replicas[1:] {
			out[r.Addr] = true
		}
	}
	return out
}

// journalsWrapped reports whether every journal of the given backup servers
// has appended at least its region size.
func (e *env) journalsWrapped(backups map[string]bool) bool {
	seen := 0
	for _, js := range e.journalSets() {
		for _, j := range js.Stats().Journals {
			addr, _, _ := strings.Cut(j.Name, "-j")
			if !backups[addr] {
				continue
			}
			if j.Bytes < j.Size {
				return false
			}
			seen++
		}
	}
	return seen >= len(backups)
}

func (e *env) journalSets() []*journal.Set {
	var out []*journal.Set
	for _, m := range e.c.Machines {
		out = append(out, m.JournalSets()...)
	}
	return out
}

// drain replays every journal to empty, failing if any backlog remains
// after drainTimeout.
func (e *env) drain() error {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, js := range e.journalSets() {
			js.Drain()
		}
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		return fmt.Errorf("journal backlog of %d records not replayed within %v (%s)", e.pending(), drainTimeout, e.faultCounts())
	}
	if n := e.pending(); n != 0 {
		return fmt.Errorf("journal backlog of %d records after drain (%s)", n, e.faultCounts())
	}
	return nil
}

// drainTimeout bounds a drain that replays at most a few journal regions'
// worth of records; it expires only when replay is stuck.
const drainTimeout = 30 * time.Second

// faultCounts summarizes the program's fault counters, to say why a
// teardown check failed.
func (e *env) faultCounts() string {
	reg := e.c.Metrics()
	vs := e.vd.Stats()
	return fmt.Sprintf("chunk-recoveries=%d journal-replay-errors=%d journal-replay-corrupt=%d journal-dead=%d client retries=%d failovers=%d",
		reg.Counter(master.MetricChunkRecoveries).Load(), reg.Counter(journal.MetricReplayErrors).Load(),
		reg.Counter(journal.MetricReplayCorrupt).Load(), reg.Counter(journal.MetricJournalDead).Load(),
		vs.Retries, vs.Failovers)
}

// pending is the unreplayed journal records across the cluster.
func (e *env) pending() int {
	n := 0
	for _, js := range e.journalSets() {
		n += js.Pending()
	}
	return n
}

// teardownChecks verifies the program's own state once the load has
// stopped: journals replay to empty, no pooled buffer is still leased, and
// no replica reported a checksum mismatch.
func (e *env) teardownChecks() error {
	if err := e.drain(); err != nil {
		return err
	}
	deadline := time.Now().Add(5 * time.Second)
	for bufpool.InUse() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := bufpool.InUse(); n != 0 {
		return fmt.Errorf("bufpool: %d buffers still leased after drain", n)
	}
	if n := e.c.Metrics().Counter(chunkserver.MetricChecksumMismatches).Load(); n != 0 {
		return fmt.Errorf("%d chunk checksum mismatches", n)
	}
	return nil
}

// simdiskUsedBytes is the memory the simulated devices hold.
func (e *env) simdiskUsedBytes() int64 {
	var n int64
	for _, m := range e.c.Machines {
		for _, d := range m.SSDs {
			n += d.UsedBytes()
		}
		for _, d := range m.HDDs {
			n += d.UsedBytes()
		}
	}
	return n
}

// close shuts the cluster down and returns its memory to the OS, so the
// next set-up starts from the same heap.
func (e *env) close() {
	if e.vd != nil {
		_ = e.vd.Close() // the cluster is going away; its lease with it
	}
	if e.c != nil {
		e.c.Close()
	}
	*e = env{}
	runtime.GC()
	debug.FreeOSMemory()
}
