// Command perfbench is the repository's data-path benchmark. It builds an
// in-process hybrid cluster, runs one named workload against one vdisk
// from a closed loop of queue depth GOMAXPROCS, verifies every byte it
// reads, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as the last line of standard output:
//
//	perfbench -workload randwrite-4k -seed 1 -seconds 25 -trace 0
//
// perfbench/run.py builds it and is the usual entry point; perfbench/README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/util"
)

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	qd       int
	outDir   string
	commit   string
	source   string
}

// workingSet is the pre-filled stretch of the vdisk every workload
// addresses: far beyond the CPU caches and well above one client's issuers.
const workingSet = 512 * util.MiB

// numSetups is how many full set-ups an untraced run makes; setup_s is
// their median.
const numSetups = 3

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloads))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 0, "length of the measured window (required)")
	flag.IntVar(&traceFlag, "trace", 0, "1: print the per-layer metrics of a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.outDir, "out", ".bench_build/trace", "directory for a traced run's spans and CPU profile")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit of the measured source, for the provenance line")
	flag.StringVar(&cfg.source, "source", "unknown", "digest of the measured source, for the provenance line")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.qd = runtime.GOMAXPROCS(0)
	if err := validate(cfg, traceFlag); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validate(cfg config, traceFlag int) error {
	if !slices.Contains(workloads, cfg.workload) {
		return fmt.Errorf("-workload %q: want one of %v", cfg.workload, workloads)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", traceFlag)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds %g: want a positive run length", cfg.seconds)
	}
	return nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// numSlices is how many equal slices a window is cut into. The end-to-end
// rate, CPU and latency figures are medians over the slices, so a stall or
// a burst of host noise in one slice moves them little.
const numSlices = 10

// mark is a slice boundary.
type mark struct {
	wall time.Time
	cpu  time.Duration
}

// window is one measured stretch of load.
type window struct {
	a, b              snapshot
	marks             []mark // numSlices+1 boundaries
	ops               int64
	attempted, failed int64
	bytesWritten      int64
	reads, writes     []latSample
	profile           []byte
	pendingMax        int
}

func (w *window) elapsed() time.Duration { return w.b.wall.Sub(w.a.wall) }
func (w *window) cpu() time.Duration     { return w.b.cpu - w.a.cpu }

// cpuPerOp is process CPU per completed op over the whole window, in µs.
func (w *window) cpuPerOp() float64 { return ratio(us(w.cpu()), float64(w.ops)) }

// sliceStat is one slice's figures.
type sliceStat struct {
	iops, cpuPerOp float64
	p50, p99       time.Duration
}

// sliceStats splits the window's ops by completion time into its slices.
func (w *window) sliceStats(epoch time.Time) []sliceStat {
	n := len(w.marks) - 1
	edges := make([]int64, len(w.marks))
	for i, m := range w.marks {
		edges[i] = m.wall.Sub(epoch).Nanoseconds()
	}
	lat := make([][]int64, n)
	for _, samples := range [][]latSample{w.reads, w.writes} {
		for _, s := range samples {
			// Slice k holds ops ending in (edges[k], edges[k+1]].
			if k := sort.Search(len(edges), func(i int) bool { return edges[i] >= s.end }) - 1; k >= 0 && k < n {
				lat[k] = append(lat[k], s.d)
			}
		}
	}
	out := make([]sliceStat, n)
	for k := range out {
		slices.Sort(lat[k])
		ops := float64(len(lat[k]))
		out[k] = sliceStat{
			iops:     ops / w.marks[k+1].wall.Sub(w.marks[k].wall).Seconds(),
			cpuPerOp: ratio(us(w.marks[k+1].cpu-w.marks[k].cpu), ops),
			p50:      percentile(lat[k], 0.50).value,
			p99:      percentile(lat[k], 0.99).value,
		}
	}
	return out
}

// medianOf is the median of f over the slices.
func medianOf(st []sliceStat, f func(sliceStat) float64) float64 {
	xs := make([]float64, len(st))
	for i, s := range st {
		xs[i] = f(s)
	}
	slices.Sort(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

func run(cfg config) (*result, error) {
	epoch := time.Now()
	var setupSpans []span
	rec := func(kind string, t0, t1 time.Time) {
		setupSpans = append(setupSpans, span{kind: kind, start: t0.Sub(epoch).Nanoseconds(), end: t1.Sub(epoch).Nanoseconds()})
	}
	printProvenance(cfg)

	setups := numSetups
	if cfg.trace {
		setups = 1 // a traced run reports no set-up time
	}
	var setupTimes []float64
	var e *env
	for i := 0; i < setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(cfg, rec); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer e.close()
	fmt.Printf("info setup_s runs %v\n", setupTimes)
	if err := setWorkload(e.iss, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}

	// A traced run splits its time between an untraced window, the base
	// of the tracing overhead, and the traced window.
	window := cfg.seconds
	if cfg.trace {
		window /= 2
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	plain, err := measure(e, window, false, epoch)
	if err != nil {
		return nil, err
	}
	res.Attempted, res.Failed = plain.attempted, plain.failed
	printLatencies("untraced", plain)
	if !cfg.trace {
		st := plain.sliceStats(epoch)
		plain.reads, plain.writes = nil, nil // not program memory
		if err := e.drain(); err != nil {
			// A stuck journal fails the run; the read-back and teardown
			// would only wait on it again.
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
			res.Correct = false
			return res, nil
		}
		heap := programHeapMiB(e)
		slices.Sort(setupTimes)
		put := func(name string, v float64) { res.Metrics[name] = metric{v, e2eUnits[name]} }
		put("setup_s", setupTimes[len(setupTimes)/2])
		put("iops", medianOf(st, func(s sliceStat) float64 { return s.iops }))
		put("p50_us", medianOf(st, func(s sliceStat) float64 { return us(s.p50) }))
		put("p99_us", medianOf(st, func(s sliceStat) float64 { return us(s.p99) }))
		put("cpu_us_per_op", medianOf(st, func(s sliceStat) float64 { return s.cpuPerOp }))
		put("allocs_per_op", ratio(float64(plain.b.mallocs-plain.a.mallocs), float64(plain.ops)))
		put("program_heap_mib", heap)
		printSlices(st)
	} else {
		traced, err := measure(e, window, true, epoch)
		if err != nil {
			return nil, err
		}
		res.Attempted += traced.attempted
		res.Failed += traced.failed
		printLatencies("traced", traced)
		lm, err := layerMetrics(e, plain, traced)
		if err != nil {
			return nil, err
		}
		for name, v := range lm {
			res.Metrics[name] = metric{v, layerUnits[name]}
		}
		if err := writeTrace(cfg, e, setupSpans, traced); err != nil {
			return nil, err
		}
	}

	// Read back the whole working set, then check the program's own
	// end state.
	for _, is := range e.iss {
		is.startWindow(0, false, epoch)
	}
	runAll(e.iss, func(is *issuer) { is.sweep(false) })
	for _, is := range e.iss {
		res.Attempted += is.attempted
		res.Failed += is.failed
	}
	if err := e.failure(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	if err := e.teardownChecks(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		res.Correct = false
	}
	if cfg.trace {
		res.Metrics["bufpool.in_use_after"] = metric{float64(bufpool.InUse()), layerUnits["bufpool.in_use_after"]}
	}
	res.Correct = res.Correct && res.Failed == 0
	return res, nil
}

// maxIssuerRate is the most ops per second one issuer is expected to
// complete: about twice what an issuer reaches on randread-4k on a 2-vCPU
// host. Each issuer reserves sample space for this rate over the window.
const maxIssuerRate = 100e3

// measure runs the workload for the given seconds and collects the window.
// A traced window also records a CPU profile, one span per request, and
// the journal backlog every 10 ms. It fails if an issuer outran its
// reserved sample space, since growing it inside the window would charge
// the benchmark's own allocations and copies to the program.
func measure(e *env, seconds float64, traced bool, epoch time.Time) (*window, error) {
	capacity := int(seconds*maxIssuerRate) + 1024
	for _, is := range e.iss {
		is.firstErr = nil
		is.startWindow(capacity, traced, epoch)
	}
	w := &window{}
	var prof bytes.Buffer
	var stopSampler atomic.Bool
	samplerDone := make(chan struct{})
	if traced {
		e.c.Metrics().ResetStages()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
		}
		go func() {
			defer close(samplerDone)
			for !stopSampler.Load() {
				w.pendingMax = max(w.pendingMax, e.pending())
				time.Sleep(10 * time.Millisecond)
			}
		}()
	} else {
		close(samplerDone)
	}

	var stop atomic.Bool
	loadDone := make(chan struct{})
	w.a = takeSnapshot(e)
	w.marks = append(w.marks, mark{w.a.wall, w.a.cpu})
	go func() {
		defer close(loadDone)
		runAll(e.iss, func(is *issuer) { is.runUntil(&stop) })
	}()
	slice := time.Duration(seconds * float64(time.Second) / numSlices)
	for k := 1; k <= numSlices; k++ {
		time.Sleep(time.Until(w.a.wall.Add(time.Duration(k) * slice)))
		w.marks = append(w.marks, mark{time.Now(), cpuTime()})
	}
	stop.Store(true)
	<-loadDone
	w.b = takeSnapshot(e)

	if traced {
		pprof.StopCPUProfile()
		w.profile = prof.Bytes()
		stopSampler.Store(true)
	}
	<-samplerDone
	for _, is := range e.iss {
		if cap(is.reads) != capacity || cap(is.writes) != capacity || (traced && cap(is.spans) != capacity) {
			return nil, fmt.Errorf("issuer %d completed more than the %d ops its sample space holds (%.0f ops/s); raise maxIssuerRate",
				is.idx, capacity, maxIssuerRate)
		}
		w.attempted += is.attempted
		w.failed += is.failed
		w.bytesWritten += is.bytesWritten
		w.ops += int64(len(is.reads) + len(is.writes))
		w.reads = append(w.reads, is.reads...)
		w.writes = append(w.writes, is.writes...)
		is.reads, is.writes = nil, nil
	}
	if err := e.failure(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
	}
	return w, nil
}

// programHeapMiB is the live heap after forced GCs, less the simulated
// devices' stored bytes: the program's own memory. The second GC empties
// the sync.Pool victim caches, whose fill depends on timing alone.
func programHeapMiB(e *env) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapAlloc)-e.simdiskUsedBytes()) / util.MiB
}

// printLatencies prints, per op type over the whole window, the median and
// p99 with the sample count and the samples beyond each, the maximum, and
// the ops over 100 ms.
func printLatencies(label string, w *window) {
	durs := func(samples ...[]latSample) []int64 {
		var out []int64
		for _, ss := range samples {
			for _, s := range ss {
				out = append(out, s.d)
			}
		}
		slices.Sort(out)
		return out
	}
	for _, t := range []struct {
		name string
		lat  []int64
	}{{"read", durs(w.reads)}, {"write", durs(w.writes)}, {"all", durs(w.reads, w.writes)}} {
		if len(t.lat) == 0 {
			continue
		}
		p50, p99 := percentile(t.lat, 0.50), percentile(t.lat, 0.99)
		slow, _ := slices.BinarySearch(t.lat, int64(100*time.Millisecond))
		fmt.Printf("info %s %s n=%d p50_us=%.2f (beyond %d) p99_us=%.2f (beyond %d) max_us=%.1f over_100ms=%d\n",
			label, t.name, p50.n, us(p50.value), p50.beyond, us(p99.value), p99.beyond,
			us(time.Duration(t.lat[len(t.lat)-1])), len(t.lat)-slow)
	}
	fmt.Printf("info %s ops=%d seconds=%.3f cpu_s=%.3f\n", label, w.ops, w.elapsed().Seconds(), w.cpu().Seconds())
}

// printSlices prints each slice's rate, CPU and percentiles.
func printSlices(st []sliceStat) {
	for k, s := range st {
		fmt.Printf("info slice %d iops=%.0f cpu_us_per_op=%.2f p50_us=%.2f p99_us=%.2f\n",
			k, s.iops, s.cpuPerOp, us(s.p50), us(s.p99))
	}
}

// printProvenance prints what the result was measured on.
func printProvenance(cfg config) {
	p := map[string]any{
		"commit": cfg.commit, "source_sha256": cfg.source,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "traced": cfg.trace,
		"queue_depth": cfg.qd, "working_set_mib": workingSet / util.MiB,
	}
	b, _ := json.Marshal(p) // a map of plain values always marshals
	fmt.Printf("provenance %s\n", b)
}

// e2eUnits are the end-to-end metrics an untraced run prints.
var e2eUnits = map[string]string{
	"setup_s":          "s",
	"iops":             "1/s",
	"p50_us":           "us",
	"p99_us":           "us",
	"cpu_us_per_op":    "us",
	"allocs_per_op":    "count",
	"program_heap_mib": "MiB",
}

// writeTrace writes a traced run's spans (CSV) and CPU profile.
func writeTrace(cfg config, e *env, setupSpans []span, w *window) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err := os.WriteFile(base+".cpu.pprof", w.profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.csv")
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "id,kind,bytes,offset,start_ns,end_ns")
	for _, s := range setupSpans {
		fmt.Fprintf(bw, "0,%s,0,0,%d,%d\n", s.kind, s.start, s.end)
	}
	var all []span
	for _, is := range e.iss {
		all = append(all, is.spans...)
		is.spans = nil
	}
	sort.Slice(all, func(i, j int) bool { return all[i].start < all[j].start })
	for _, s := range all {
		fmt.Fprintf(bw, "%d,%s,%d,%d,%d,%d\n", s.id, s.kind, s.bytes, s.off, s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("info trace written to %s.{spans.csv,cpu.pprof}\n", base)
	return nil
}
