package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ursa/internal/trace"
	"ursa/internal/util"
)

// blockSize is the verification granularity: every request covers whole
// 4 KiB blocks, and each block's expected content is a function of its
// index and the number of times the benchmark has written it.
const blockSize = 4 * util.KiB

// maxReq bounds one request (trace-mds1's largest size).
const maxReq = 128 * util.KiB

// device is what the load generator drives: a client.VDisk.
type device interface {
	ReadAt(p []byte, off int64) error
	WriteAt(p []byte, off int64) error
}

// fillBlock writes the content of block b at version v into p[:blockSize].
// The first word names the block and version, so a mismatch report says
// what was found instead; the rest is a per-(b, v) sequence.
func fillBlock(p []byte, b int64, v uint32) {
	head := uint64(b)<<32 | uint64(v)
	binary.LittleEndian.PutUint64(p, head)
	x := mix64(head)
	for i := 8; i < blockSize; i += 8 {
		binary.LittleEndian.PutUint64(p[i:], x+uint64(i)*0x9e3779b97f4a7c15)
	}
}

// checkBlock reports whether p[:blockSize] holds block b at version v.
func checkBlock(p []byte, b int64, v uint32) bool {
	head := uint64(b)<<32 | uint64(v)
	if binary.LittleEndian.Uint64(p) != head {
		return false
	}
	x := mix64(head)
	for i := 8; i < blockSize; i += 8 {
		if binary.LittleEndian.Uint64(p[i:]) != x+uint64(i)*0x9e3779b97f4a7c15 {
			return false
		}
	}
	return true
}

// describeBlock names what a mismatching block holds, for the error report.
func describeBlock(p []byte) string {
	head := binary.LittleEndian.Uint64(p)
	b, v := int64(head>>32), uint32(head)
	if checkBlock(p, b, v) {
		return fmt.Sprintf("block %d version %d", b, v)
	}
	return "unrecognized bytes"
}

// mix64 is the splitmix64 finalizer.
func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// op is one request: n blocks starting at block.
type op struct {
	write bool
	block int64
	n     int
}

// latSample is one completed request: when it ended (ns since the trace
// epoch) and how long it took (ns).
type latSample struct{ end, d int64 }

// span is one traced request or set-up step. Times are nanoseconds since
// the process's trace epoch.
type span struct {
	id         uint64
	kind       string
	bytes      int
	off        int64
	start, end int64
}

// issuer is one closed-loop request stream. It owns the blocks [lo, hi)
// of the working set: no other issuer touches them, so the content any read
// must return is exactly the last version this issuer wrote there.
type issuer struct {
	idx    int
	dev    device
	lo, hi int64
	ver    []uint32 // shared by all issuers; each touches only [lo, hi)
	buf    []byte
	next   func() op

	// Per-window results, reset by startWindow.
	reads, writes     []latSample
	attempted, failed int64
	bytesWritten      int64
	firstErr          error

	traceOn bool
	epoch   time.Time
	seq     uint64
	spans   []span
}

func newIssuer(idx int, dev device, lo, hi int64, ver []uint32) *issuer {
	return &issuer{idx: idx, dev: dev, lo: lo, hi: hi, ver: ver, buf: make([]byte, maxReq)}
}

// startWindow clears the per-window results and reserves sample space for
// capacity ops, so the measured loop does not allocate.
func (is *issuer) startWindow(capacity int, traceOn bool, epoch time.Time) {
	is.reads = make([]latSample, 0, capacity)
	is.writes = make([]latSample, 0, capacity)
	is.attempted, is.failed, is.bytesWritten = 0, 0, 0
	is.traceOn, is.epoch = traceOn, epoch
	if traceOn {
		is.spans = make([]span, 0, capacity)
	}
}

// fail records a failed op, keeping the first error for the report.
func (is *issuer) fail(err error) {
	is.failed++
	if is.firstErr == nil {
		is.firstErr = fmt.Errorf("issuer %d: %w", is.idx, err)
	}
}

// do issues one request, times it and verifies what a read returns.
func (is *issuer) do(o op) {
	p := is.buf[:o.n*blockSize]
	off := o.block * blockSize
	kind := "read"
	if o.write {
		kind = "write"
		for k := 0; k < o.n; k++ {
			fillBlock(p[k*blockSize:], o.block+int64(k), is.ver[o.block+int64(k)]+1)
		}
	}
	is.attempted++
	t0 := time.Now()
	var err error
	if o.write {
		err = is.dev.WriteAt(p, off)
	} else {
		err = is.dev.ReadAt(p, off)
	}
	t1 := time.Now()
	end := t1.Sub(is.epoch).Nanoseconds()
	s := latSample{end: end, d: t1.Sub(t0).Nanoseconds()}
	if is.traceOn {
		is.seq++
		is.spans = append(is.spans, span{
			id: uint64(is.idx)<<48 | is.seq, kind: kind, bytes: len(p), off: off,
			start: end - s.d, end: end,
		})
	}
	if err != nil {
		is.fail(fmt.Errorf("%s %d bytes at %d: %w", kind, len(p), off, err))
		return
	}
	if o.write {
		for k := 0; k < o.n; k++ {
			is.ver[o.block+int64(k)]++
		}
		is.writes = append(is.writes, s)
		is.bytesWritten += int64(len(p))
		return
	}
	is.reads = append(is.reads, s)
	for k := 0; k < o.n; k++ {
		b := o.block + int64(k)
		if q := p[k*blockSize : (k+1)*blockSize]; !checkBlock(q, b, is.ver[b]) {
			is.fail(fmt.Errorf("read block %d: want version %d, got %s", b, is.ver[b], describeBlock(q)))
			return
		}
	}
}

// runUntil issues is.next() ops until stop is set.
func (is *issuer) runUntil(stop *atomic.Bool) {
	for !stop.Load() {
		is.do(is.next())
	}
}

// sweep walks the issuer's whole range in maxReq requests, writing (the
// fill) or reading and verifying (the final read-back).
func (is *issuer) sweep(write bool) {
	step := int64(maxReq / blockSize)
	for b := is.lo; b < is.hi; b += step {
		n := min(step, is.hi-b)
		is.do(op{write: write, block: b, n: int(n)})
	}
}

// runAll runs fn on every issuer concurrently and waits for all of them.
func runAll(iss []*issuer, fn func(*issuer)) {
	var wg sync.WaitGroup
	for _, is := range iss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(is)
		}()
	}
	wg.Wait()
}

// Workload names.
const (
	wlRandWrite = "randwrite-4k"
	wlRandRead  = "randread-4k"
	wlTraceMDS1 = "trace-mds1"
)

var workloads = []string{wlRandWrite, wlRandRead, wlTraceMDS1}

// randBlocks draws single-block ops uniformly from the issuer's range.
func randBlocks(is *issuer, seed uint64, write bool) func() op {
	r := util.NewRand(seed)
	return func() op { return op{write: write, block: is.lo + r.Int63n(is.hi-is.lo), n: 1} }
}

// traceOps replays Fig 14's mds_1 profile over the issuer's range, scaled
// from the profile's volume to the range. Records are generated in batches
// as one continuous stream: batch k comes from its own derived seed, so the
// stream is fixed by the seed without holding the whole run in memory.
func traceOps(is *issuer, seed uint64) func() op {
	p := trace.Fig14Profiles()[2]
	region := (is.hi - is.lo) * blockSize
	p.HotSetSize = util.AlignDown(int64(float64(p.HotSetSize)*float64(region)/float64(p.VolumeSize)), blockSize)
	p.VolumeSize = region
	const batch = 4096
	var recs []trace.Record
	var k uint64
	return func() op {
		if len(recs) == 0 {
			recs = p.Generate(mix64(seed^k), batch)
			k++
		}
		rec := recs[0]
		recs = recs[1:]
		off := min(util.AlignDown(rec.Off, blockSize), region-int64(rec.Size))
		return op{write: rec.Write, block: is.lo + off/blockSize, n: rec.Size / blockSize}
	}
}

// setWorkload points every issuer at the named workload's op stream.
func setWorkload(iss []*issuer, name string, seed uint64) error {
	for _, is := range iss {
		s := mix64(seed ^ uint64(is.idx+1)<<40)
		switch name {
		case wlRandWrite:
			is.next = randBlocks(is, s, true)
		case wlRandRead:
			is.next = randBlocks(is, s, false)
		case wlTraceMDS1:
			is.next = traceOps(is, s)
		default:
			return fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
		}
	}
	return nil
}
