package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/core"
	"ursa/internal/jindex"
	"ursa/internal/master"
	"ursa/internal/opctx"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
	"ursa/internal/util"
	"ursa/internal/workload"
)

// ceilingBenchJSON is the machine-readable artifact FigCeiling emits, the
// per-PR IOPS-ceiling regression record.
const ceilingBenchJSON = "BENCH_ceiling.json"

// ceilingSSD / ceilingHDD are zero-cost device models: every fixed latency
// is zero and bandwidth is unlimited, so the simulated devices complete
// instantly and the measured IOPS ceiling is pure software cost —
// allocation and GC pressure, checksum passes, copies, and lock
// contention: exactly the costs the pooled hot path exists to remove.
func ceilingSSD() simdisk.SSDModel {
	return simdisk.SSDModel{Capacity: 16 * util.GiB, Parallelism: 64}
}

func ceilingHDD() simdisk.HDDModel {
	return simdisk.HDDModel{Capacity: 32 * util.GiB, TrackSkip: 512 * util.KiB}
}

// ceilingVolume keeps setup cheap while spreading I/O over many chunks.
const ceilingVolume = 1 * util.GiB

// ceilingCell is one (op, queue depth) end-to-end measurement.
type ceilingCell struct {
	Op   string  `json:"op"` // "read" or "write"
	QD   int     `json:"qd"`
	IOPS float64 `json:"iops"` // wall-clock ops/s (noisy on shared hosts)
	// IOPSCPU is ops per process-CPU-second (getrusage user+sys delta).
	// With zero-cost devices the stack is pure software, so CPU-normalized
	// IOPS is the ceiling metric that survives host contention: wall-clock
	// stalls inflate elapsed time but not CPU charged to the process.
	IOPSCPU   float64 `json:"iops_cpu"`
	MeanLatUs float64 `json:"mean_lat_us"`
	// AllocsPerOp / BytesPerOp are process-wide heap mallocs and bytes per
	// completed I/O over the run (runtime.MemStats deltas): the end-to-end
	// allocation bill of one 4 KiB request across client, transport,
	// servers, and journals.
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// ceilingMicro is one steady-state hot-path micro-benchmark result.
type ceilingMicro struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type ceilingDoc struct {
	Bench      string         `json:"bench"`
	Quick      bool           `json:"quick"`
	Provenance Provenance     `json:"provenance"`
	Cells      []ceilingCell  `json:"cells"`
	Micro      []ceilingMicro `json:"micro"`
	// PoolLeases / PoolInUseAfter snapshot the buffer pool after the cells
	// quiesce: InUseAfter must be zero (no leaked leases).
	PoolLeases     int64 `json:"pool_leases"`
	PoolInUseAfter int64 `json:"pool_in_use_after"`
	// History points at recorded comparisons this figure no longer
	// re-measures.
	History string `json:"history"`
}

// ceilingHistory cites the last artifact that measured the pre-pool stack
// beside the shipped one.
const ceilingHistory = "pre-pool baseline vs pooled (CPU-normalized IOPS and allocs/op " +
	"per op and queue depth): BENCH_ceiling.json as committed at 7b9356e; see DESIGN.md " +
	"\"Hot-path memory ownership\""

// runCeilingCell measures 4 KiB random IOPS end-to-end on a hybrid URSA
// cluster with zero-cost devices and network. It fails when the cluster
// cannot be built or a measured pass completes no ops or sees an I/O error,
// so a broken stack never reports a vacuous allocation bill.
func runCeilingCell(cfg Config, write bool, qd int) (ceilingCell, error) {
	c, err := core.New(core.Options{
		Machines:       3,
		SSDsPerMachine: 2,
		HDDsPerMachine: 4,
		Mode:           core.Hybrid,
		Clock:          clock.Realtime,
		SSDModel:       ceilingSSD(),
		HDDModel:       ceilingHDD(),
		// Small SSD journals (16 MiB per backup HDD) wrap during the warm
		// phase, so the measured window never touches cold journal pages:
		// the lazily allocated 64 KiB simdisk pages would otherwise dominate
		// the per-op allocation bill and bury the hot path's own.
		JournalFraction: 0.002,
		ReplTimeout:     5 * time.Second,
		CallTimeout:     20 * time.Second,
	})
	if err != nil {
		return ceilingCell{}, err
	}
	defer c.Close()
	cl := c.NewClient("ceiling-client")
	defer cl.Close()
	if _, err := cl.CreateVDisk(master.CreateVDiskReq{Name: "ceiling", Size: ceilingVolume}); err != nil {
		return ceilingCell{}, err
	}
	vd, err := cl.Open("ceiling")
	if err != nil {
		return ceilingCell{}, err
	}
	defer vd.Close()

	cell := ceilingCell{QD: qd, Op: "read"}
	pattern := workload.RandRead
	if write {
		cell.Op = "write"
		pattern = workload.RandWrite
	}
	spec := workload.Spec{
		Pattern: pattern, BlockSize: 4 * util.KiB, QueueDepth: qd,
		Ops: 1 << 30, WorkingSet: ceilingVolume / 2,
		Seed: cfg.Seed + uint64(qd)*131, MaxTime: cfg.cellTime() / 2,
	}
	// Warm to steady state outside the measured window: Fill pre-writes the
	// whole working set (allocating every lazy data page on the simulated
	// devices and stamping checksums), then a burst of random 4 KiB writes
	// wraps the small journal regions so their pages are warm too. Without
	// this, cold 64 KiB simdisk pages dominate the allocation bill.
	warm := spec
	warm.Pattern = workload.RandWrite
	warm.Fill = true
	warm.MaxTime = 2 * time.Second
	workload.Run(clock.Realtime, vd, warm)

	// Several measurement passes, keeping the pass with the best
	// CPU-normalized IOPS. The container shares its host: a neighbor's
	// cache/TLB pollution inflates our measured CPU-seconds unpredictably
	// mid-pass, and best-of-N converges on the least-contended sample —
	// the software ceiling this figure is after.
	passes := 3
	if cfg.Quick {
		passes = 2
	}
	for p := 0; p < passes; p++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		cpu0 := cpuSeconds()
		res := workload.Run(clock.Realtime, vd, spec)
		cpu1 := cpuSeconds()
		runtime.ReadMemStats(&m1)
		if res.Ops == 0 || res.Errors > 0 {
			return cell, fmt.Errorf("%s qd%d pass %d: %d ops, %d errors", cell.Op, qd, p, res.Ops, res.Errors)
		}

		if dc := cpu1 - cpu0; dc > 0 && float64(res.Ops)/dc > cell.IOPSCPU {
			cell.IOPSCPU = float64(res.Ops) / dc
			cell.IOPS = res.IOPS()
			cell.MeanLatUs = float64(res.Lat.Mean()) / float64(time.Microsecond)
			cell.AllocsPerOp = float64(m1.Mallocs-m0.Mallocs) / float64(res.Ops)
			cell.BytesPerOp = float64(m1.TotalAlloc-m0.TotalAlloc) / float64(res.Ops)
		}
	}
	return cell, nil
}

// ceilingMicros runs the steady-state hot-path micro-benchmarks. Each loop
// body is one hot-path unit of work; all must run at 0 allocs/op.
func ceilingMicros() []ceilingMicro {
	ssd := simdisk.NewSSD(ceilingSSD(), clock.Realtime)
	defer ssd.Close()
	store := blockstore.New(ssd, util.AlignDown(ssd.Size(), util.ChunkSize))
	id := blockstore.MakeChunkID(7, 0)
	if err := store.Create(id); err != nil {
		return nil
	}
	const span = 4 * util.MiB // working window, pre-written in setup
	data := make([]byte, 4*util.KiB)
	for i := range data {
		data[i] = byte(i)
	}
	for off := int64(0); off < span; off += int64(len(data)) {
		if err := store.WriteAt(id, data, off); err != nil {
			return nil
		}
		store.Sums().Stamp(id, off, data)
	}
	offs := make([]int64, 64)
	r := util.NewRand(42)
	for i := range offs {
		offs[i] = util.AlignDown(r.Int63n(span-4096), util.SectorSize)
	}

	run := func(name string, fn func(i int)) ceilingMicro {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(i)
			}
		})
		return ceilingMicro{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}

	var out []ceilingMicro
	out = append(out, run("read4k-verify", func(i int) {
		buf := bufpool.Get(4096)
		off := offs[i&63]
		if err := store.ReadAt(id, buf, off); err != nil {
			panic(err)
		}
		if err := store.Sums().Verify(id, off, buf); err != nil {
			panic(err)
		}
		bufpool.Put(buf)
	}))
	out = append(out, run("write4k-stamp", func(i int) {
		off := offs[i&63]
		if err := store.WriteAt(id, data, off); err != nil {
			panic(err)
		}
		store.Sums().Stamp(id, off, data)
	}))

	// Decode with payload-capacity reuse: one encoded 4 KiB frame, decoded
	// repeatedly into the same leased buffer.
	var frame bytes.Buffer
	src := &proto.Message{Op: proto.OpWrite, Chunk: id, Length: 4096, Payload: data}
	if err := src.Encode(&frame); err != nil {
		return out
	}
	raw := frame.Bytes()
	rd := bytes.NewReader(raw)
	var msg proto.Message
	msg.Payload = bufpool.Get(4096)
	out = append(out, run("decode4k-reuse", func(i int) {
		rd.Reset(raw)
		if err := msg.Decode(rd); err != nil {
			panic(err)
		}
	}))
	bufpool.Put(msg.Payload)

	// Client-directed fan-out: one pooled 3-way broadcast per op against a
	// synchronous stub replica, isolating the dispatch machinery (flight
	// lease, message frames, worker hand-off, result collection) from the
	// server stack. This is the loop writeClientDirected runs per tiny write.
	bc := transport.NewBroadcaster(fanoutStub{})
	op := opctx.New(clock.Realtime, 0)
	fanAddrs := [3]string{"r0", "r1", "r2"}
	payload := bufpool.Get(4096)
	copy(payload, data)
	out = append(out, run("write4k-client-directed", func(i int) {
		fl := bc.Begin(len(fanAddrs))
		for t := range fanAddrs {
			m := proto.GetMessage()
			m.Op = proto.OpReplicate
			m.Chunk = id
			m.Off = offs[i&63]
			m.Length = 4096
			m.Version = 7
			m.Payload = payload
			bufpool.Retain(payload)
			fl.Go(t, fanAddrs[t], op, time.Second, m)
		}
		for range fanAddrs {
			if r := fl.Next(); r.Err || r.Status != proto.StatusOK {
				panic("fan-out stub failed")
			}
		}
		fl.Finish()
	}))
	bufpool.Put(payload)
	bc.Close()

	// Journal-index insert: cycling writes over a small working set, with a
	// periodic merge so the freeze/merge scratch and the node freelist are
	// exercised (their cost amortizes to zero per op, which is the claim).
	ins := jindex.New(0)
	insJOff := uint64(0)
	out = append(out, run("jindex-insert", func(i int) {
		ins.Insert(uint32(offs[i&63]/util.SectorSize), 8, insJOff)
		insJOff += 8
		if i&4095 == 4095 {
			ins.MergeNow()
		}
	}))

	// Journal-index query: resolve a 32 KiB range against a populated
	// tree+array index into reused extent and hole buffers.
	qix := jindex.New(0)
	qJOff := uint64(0)
	for sec := uint32(0); sec < 8192; sec += 16 {
		qix.Insert(sec, 8, qJOff) // half coverage: extents and holes alike
		qJOff += 8
	}
	qix.MergeNow() // push into the sorted array level
	for i, o := range offs {
		qix.Insert(uint32(o/util.SectorSize), 4, qJOff+uint64(i)*4)
	}
	var qExt, qHoles []jindex.Extent
	out = append(out, run("jindex-query", func(i int) {
		off := uint32(offs[i&63] / util.SectorSize)
		qExt = qix.QueryInto(qExt[:0], off, 64)
		qHoles = jindex.HolesInto(qHoles[:0], off, 64, qExt)
	}))
	return out
}

// fanoutStub is the zero-cost replica behind the write4k-client-directed
// micro: it settles the request exactly as the transport would (one payload
// reference consumed, frame recycled) and answers OK from the message pool.
type fanoutStub struct{}

func (fanoutStub) Do(op *opctx.Op, addr string, m *proto.Message, cap time.Duration) (*proto.Message, error) {
	resp := m.Reply(proto.StatusOK)
	resp.Version = m.Version
	bufpool.Put(m.Payload)
	proto.Recycle(m)
	return resp, nil
}

// FigCeiling benchmarks the software IOPS ceiling: 4 KiB random reads and
// writes end-to-end through client, transport, chunk servers, and journals,
// with every simulated device and network hop at zero cost — so the ceiling
// is set purely by the software stack. Steady-state micro-benchmarks
// confirm the hot path runs at 0 allocs/op. Results are also written to
// BENCH_ceiling.json, stamped with the commit and host shape they ran on.
func FigCeiling(cfg Config) Table {
	t := Table{
		ID:     "Fig C",
		Title:  "Software IOPS ceiling: 4KiB random, zero-cost devices, hybrid 3x3",
		Header: []string{"op", "qd", "iops", "iops/cpu-s", "mean lat us", "allocs/op", "B/op"},
	}
	doc := ceilingDoc{
		Bench:      "ceiling",
		Quick:      cfg.Quick,
		Provenance: provenance(),
		History:    ceilingHistory,
	}
	for _, op := range []string{"read", "write"} {
		for _, qd := range []int{1, 8, 32} {
			cell, err := runCeilingCell(cfg, op == "write", qd)
			if err != nil {
				t.Notes = append(t.Notes, "cell failed: "+err.Error())
				continue
			}
			doc.Cells = append(doc.Cells, cell)
			t.Rows = append(t.Rows, []string{
				op, f0(float64(qd)), f0(cell.IOPS), f0(cell.IOPSCPU),
				f1(cell.MeanLatUs), f1(cell.AllocsPerOp), f0(cell.BytesPerOp),
			})
		}
	}
	doc.Micro = ceilingMicros()
	doc.PoolLeases = bufpool.Leases()
	doc.PoolInUseAfter = bufpool.InUse()

	micro := Table{
		ID:     "Fig C micro",
		Title:  "steady-state hot path, via testing.Benchmark",
		Header: []string{"loop", "ns/op", "allocs/op", "B/op"},
	}
	for _, m := range doc.Micro {
		micro.Rows = append(micro.Rows, []string{
			m.Name, f0(m.NsPerOp),
			fmt.Sprintf("%d", m.AllocsPerOp), fmt.Sprintf("%d", m.BytesPerOp),
		})
	}
	t.Extra = append(t.Extra, micro)
	t.Notes = append(t.Notes,
		"iops/cpu-s is ops per process-CPU-second: with zero-cost devices the stack is",
		"pure software, so CPU-normalized IOPS is the ceiling and is immune to host noise;",
		"allocs/op is process-wide heap mallocs per completed I/O (client+servers+journals).",
		"history: "+ceilingHistory,
		fmt.Sprintf("pool leases=%d, in-use after drain=%d (must be 0)",
			doc.PoolLeases, doc.PoolInUseAfter),
		fmt.Sprintf("provenance: commit %s, %s, GOMAXPROCS=%d, nproc=%d",
			doc.Provenance.Commit, doc.Provenance.GoVersion,
			doc.Provenance.GOMAXPROCS, doc.Provenance.NumCPU))
	if buf, err := json.MarshalIndent(&doc, "", "  "); err == nil {
		if werr := os.WriteFile(artifactPath(cfg, ceilingBenchJSON), append(buf, '\n'), 0o644); werr != nil {
			t.Notes = append(t.Notes, "write "+ceilingBenchJSON+": "+werr.Error())
		}
	}
	return t
}
