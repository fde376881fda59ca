package main

import (
	"fmt"
	"math"

	"ursa/internal/opctx"
	"ursa/internal/util"
)

// replayLoop is the journal replayer goroutine's root function; CPU under
// it is journal.replay_cpu_share.
const replayLoop = "ursa/internal/journal.(*Set).replayLoop"

// layerUnits are the per-layer metrics a traced run prints.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"client.tiny_write_frac":           "frac",
		"client.fanout_p99_us":             "us",
		"client.retries_per_kop":           "count",
		"transport.rpcs_per_op":            "count",
		"transport.conn_inflight_mean":     "count",
		"chunkserver.replicates_per_write": "count",
		"chunkserver.pending_writes_mean":  "count",
		"chunkserver.checksum_mismatches":  "count",
		"journal.records_per_flush":        "count",
		"journal.flushes_per_kop":          "count",
		"journal.pending_max":              "count",
		"journal.replay_cpu_share":         "frac",
		"journal.merged_sector_frac":       "frac",
		"journal.bypass_frac":              "frac",
		"simdisk.ssd_bytes_per_user_byte":  "B/B",
		"simdisk.hdd_bytes_per_user_byte":  "B/B",
		"simdisk.hdd_seeks_per_op":         "count",
		"bufpool.leases_per_op":            "count",
		"bufpool.in_use_after":             "count",
		"runtime.gc_cycles":                "count",
		"runtime.gc_cpu_frac":              "frac",
		"runtime.goroutines":               "count",
		"runtime.sched_p99_us":             "us",
		"bench.cpu_share":                  "frac",
		"trace.overhead_frac":              "frac",
		"trace.profile_coverage":           "frac",
	}
	for _, l := range layers {
		u[l+".cpu_us_per_op"] = "us"
	}
	for _, s := range opctx.Stages() {
		if s == opctx.StageColdFetch {
			continue // no workload here reads object-backed chunks
		}
		u["stage."+s.String()+"_p50_us"] = "us"
		u["stage."+s.String()+"_p99_us"] = "us"
		u["stage."+s.String()+"_us_per_op"] = "us"
	}
	return u
}()

// coverageTol bounds how far the profile's total may stray from the process
// CPU measured over the same window before the attribution is refused: 5%
// for what the profiler cannot see (the window's edges, its own signal
// handling) plus four standard errors of sampling, at the profiler's one
// sample per 10 ms of CPU.
func coverageTol(profNanos int64) float64 {
	return 0.05 + 4/math.Sqrt(max(1, float64(profNanos)/1e7))
}

// layerMetrics derives the per-layer metrics of a traced window; plain is
// the untraced window before it, the base of the tracing overhead.
func layerMetrics(e *env, plain, w *window) (map[string]float64, error) {
	a, b := w.a, w.b
	ops := float64(w.ops)
	writes := float64(b.vd.Writes - a.vd.Writes)
	userWritten := float64(w.bytesWritten)
	m := map[string]float64{}

	byLayer, replayNanos, err := cpuByLayer(w.profile, replayLoop)
	if err != nil {
		return nil, err
	}
	var profNanos int64
	for _, l := range layers {
		profNanos += byLayer[l]
		m[l+".cpu_us_per_op"] = ratio(float64(byLayer[l])/1e3, ops)
	}
	coverage := ratio(float64(profNanos), float64(w.cpu()))
	if tol := coverageTol(profNanos); math.Abs(coverage-1) > tol {
		return nil, fmt.Errorf("per-layer CPU sums to %.1f%% of the measured process CPU (tolerance %.1f%%)",
			coverage*100, tol*100)
	}
	m["trace.profile_coverage"] = coverage
	m["journal.replay_cpu_share"] = ratio(float64(replayNanos), float64(profNanos))
	m["bench.cpu_share"] = ratio(float64(byLayer["bench"]), float64(profNanos))
	m["trace.overhead_frac"] = ratio(w.cpuPerOp(), plain.cpuPerOp()) - 1

	for _, st := range e.c.Metrics().StageSnapshot() {
		if _, ok := layerUnits["stage."+st.Stage+"_p50_us"]; !ok {
			continue
		}
		m["stage."+st.Stage+"_p50_us"] = us(st.P50)
		m["stage."+st.Stage+"_p99_us"] = us(st.P99)
		m["stage."+st.Stage+"_us_per_op"] = ratio(us(st.Total), ops)
	}

	m["client.tiny_write_frac"] = ratio(float64(b.vd.TinyWrites-a.vd.TinyWrites), writes)
	m["client.fanout_p99_us"] = us(deltaQuantile(a.fanout, b.fanout, 0.99))
	m["client.retries_per_kop"] = ratio(1e3*float64(b.vd.Retries-a.vd.Retries), ops)
	m["transport.rpcs_per_op"] = ratio(float64(b.rpcs-a.rpcs), ops)
	m["transport.conn_inflight_mean"] = ratio(float64(b.inflightSum-a.inflightSum), float64(b.inflightN-a.inflightN))
	m["chunkserver.replicates_per_write"] = ratio(float64(b.replicates-a.replicates), writes)
	m["chunkserver.pending_writes_mean"] = ratio(float64(b.pendSum-a.pendSum), float64(b.pendN-a.pendN))
	m["chunkserver.checksum_mismatches"] = float64(b.mismatches - a.mismatches)

	m["journal.records_per_flush"] = ratio(float64(b.batched-a.batched), float64(b.flushes-a.flushes))
	m["journal.flushes_per_kop"] = ratio(1e3*float64(b.flushes-a.flushes), ops)
	m["journal.pending_max"] = float64(w.pendingMax)
	m["journal.merged_sector_frac"] = ratio(float64(b.merged-a.merged)*util.SectorSize, float64(b.replayed-a.replayed))
	// Every write reaches each backup replica once; what the journals did
	// not append went to the backup HDDs directly.
	if backupBytes := userWritten * float64(e.backupsPerChunk()); backupBytes > 0 {
		m["journal.bypass_frac"] = max(0, 1-float64(b.appended-a.appended)/backupBytes)
	}

	m["simdisk.ssd_bytes_per_user_byte"] = ratio(float64(b.ssdWritten-a.ssdWritten), userWritten)
	m["simdisk.hdd_bytes_per_user_byte"] = ratio(float64(b.hddWritten-a.hddWritten), userWritten)
	m["simdisk.hdd_seeks_per_op"] = ratio(float64(b.hddSeeks-a.hddSeeks), ops)
	m["bufpool.leases_per_op"] = ratio(float64(b.leases-a.leases), ops)

	m["runtime.gc_cycles"] = rtDelta(a, b, 0)
	m["runtime.gc_cpu_frac"] = ratio(rtDelta(a, b, 1), rtDelta(a, b, 2))
	m["runtime.sched_p99_us"] = us(schedP99(a, b))
	m["runtime.goroutines"] = rtFloat(b.rt[4])

	// bufpool.in_use_after is filled in once the load has drained.
	for name := range layerUnits {
		if _, ok := m[name]; !ok {
			m[name] = 0 // stages the workload never entered
		}
	}
	return m, nil
}

// backupsPerChunk is the number of backup replicas of each chunk.
func (e *env) backupsPerChunk() int { return len(e.vd.Meta().Chunks[0].Replicas) - 1 }
