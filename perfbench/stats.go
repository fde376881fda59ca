package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/chunkserver"
	"ursa/internal/client"
	"ursa/internal/transport"
	"ursa/internal/util"
)

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics read at each window boundary.
var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/latencies:seconds",
	"/sched/goroutines:goroutines",
}

// snapshot is everything the benchmark reads from outside the program at a
// window boundary; per-window figures are differences of two snapshots.
type snapshot struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64

	vd          client.VDiskStats
	rpcs        int64 // chunk-server requests served (reads, writes, replicates)
	replicates  int64
	flushes     int64 // journal group-commit flushes
	batched     int64 // records those flushes committed
	appended    int64 // journal payload bytes appended
	replayed    int64 // journal payload bytes replayed
	merged      int64 // sectors replay skipped as overwritten
	ssdWritten  int64
	hddWritten  int64
	hddSeeks    int64
	leases      int64
	mismatches  int64
	pendSum     int64 // chunk-pending-writes samples
	pendN       int64
	inflightSum int64 // rpc-conn-inflight samples
	inflightN   int64
	fanout      map[time.Duration]int64
	rt          []rtmetrics.Sample
}

func takeSnapshot(e *env) snapshot {
	reg := e.c.Metrics()
	s := snapshot{vd: e.vd.Stats(), leases: bufpool.Leases()}
	for _, m := range e.c.Machines {
		for _, srv := range m.Servers {
			st := srv.Stats()
			s.rpcs += st.Reads + st.Writes + st.Replicates
			s.replicates += st.Replicates
		}
		for _, d := range m.SSDs {
			s.ssdWritten += d.Stats().BytesWrite
		}
		for _, d := range m.HDDs {
			st := d.Stats()
			s.hddWritten += st.BytesWrite
			s.hddSeeks += st.Seeks
		}
	}
	for _, js := range e.journalSets() {
		st := js.Stats()
		s.flushes += st.Flushes
		s.batched += st.BatchedRecords
		s.replayed += st.ReplayedBytes
		s.merged += st.MergedSectors
		for _, j := range st.Journals {
			s.appended += j.Bytes
		}
	}
	s.mismatches = reg.Counter(chunkserver.MetricChecksumMismatches).Load()
	if h := reg.ValueHist(chunkserver.MetricPendingWrites); h != nil {
		s.pendSum, s.pendN = h.Sum(), h.Count()
	}
	if h := reg.ValueHist(transport.MetricConnInflight); h != nil {
		s.inflightSum, s.inflightN = h.Sum(), h.Count()
	}
	s.fanout = histCounts(reg.LatencyHist("client-directed-fanout"))
	s.rt = make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s.rt[i].Name = n
	}
	rtmetrics.Read(s.rt)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	// Wall and CPU last, so the snapshot's own cost falls outside the
	// window it opens (and inside the one it closes, where it is small).
	s.wall, s.cpu = time.Now(), cpuTime()
	return s
}

// histCounts copies a latency histogram's per-bucket counts, keyed by the
// bucket's representative value.
func histCounts(h *util.Hist) map[time.Duration]int64 {
	out := map[time.Duration]int64{}
	if h == nil {
		return out
	}
	cp := util.NewHist()
	cp.Merge(h) // one consistent copy: count and buckets under one lock
	n := float64(cp.Count())
	xs, ys := cp.PDF()
	for i, x := range xs {
		out[x] = int64(math.Round(ys[i] * n))
	}
	return out
}

// deltaQuantile is the q-quantile of the samples a histogram gained
// between two histCounts copies (a bucket value, as util.Hist reports).
func deltaQuantile(before, after map[time.Duration]int64, q float64) time.Duration {
	var xs []time.Duration
	var total int64
	for x, n := range after {
		if n -= before[x]; n > 0 {
			xs = append(xs, x)
			total += n
		}
	}
	if total == 0 {
		return 0
	}
	slices.Sort(xs)
	target := int64(q * float64(total))
	var seen int64
	for _, x := range xs {
		seen += after[x] - before[x]
		if seen > target {
			return x
		}
	}
	return xs[len(xs)-1]
}

// rtFloat reads a counter-like runtime metric as a float.
func rtFloat(s rtmetrics.Sample) float64 {
	switch s.Value.Kind() {
	case rtmetrics.KindUint64:
		return float64(s.Value.Uint64())
	case rtmetrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// rtDelta is the growth of runtime metric i between two snapshots.
func rtDelta(a, b snapshot, i int) float64 { return rtFloat(b.rt[i]) - rtFloat(a.rt[i]) }

// schedP99 is the p99 goroutine scheduling latency over the window, from
// the runtime's /sched/latencies histogram (upper edge of the bucket).
func schedP99(a, b snapshot) time.Duration {
	ha, hb := a.rt[3].Value.Float64Histogram(), b.rt[3].Value.Float64Histogram()
	var total uint64
	for i := range hb.Counts {
		total += hb.Counts[i] - ha.Counts[i]
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(0.99 * float64(total)))
	var seen uint64
	for i := range hb.Counts {
		seen += hb.Counts[i] - ha.Counts[i]
		if seen >= target {
			edge := hb.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = hb.Buckets[i]
			}
			return time.Duration(edge * float64(time.Second))
		}
	}
	return 0
}

// pct is one percentile of raw per-op samples, with the sample count it
// was taken from and how many samples lie beyond it.
type pct struct {
	value  time.Duration
	n      int
	beyond int
}

// percentile takes the nearest-rank q-quantile of sorted samples (ns).
func percentile(sorted []int64, q float64) pct {
	n := len(sorted)
	if n == 0 {
		return pct{}
	}
	i := int(math.Ceil(q*float64(n))) - 1
	i = max(0, min(i, n-1))
	v := sorted[i]
	beyond := n - i - 1
	for beyond > 0 && sorted[n-beyond] == v {
		beyond--
	}
	return pct{value: time.Duration(v), n: n, beyond: beyond}
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
