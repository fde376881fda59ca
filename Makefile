# Tier-1 gates. `make check` is the pre-commit bar: vet + full tests with
# the race detector (the RPC/replication paths are goroutine-heavy).
GO ?= go

.PHONY: build test race vet lint check bench-quick bench-smoke chaos-smoke scrub-smoke ec-smoke perf-smoke failover-smoke cold-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Optional deeper static analysis: runs staticcheck and govulncheck when
# they are installed, and skips them cleanly when they are not (CI images
# without the tools still pass `make check`).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

check: vet lint build test race chaos-smoke scrub-smoke ec-smoke failover-smoke cold-smoke perf-smoke bench-smoke

bench-quick:
	$(GO) run ./cmd/ursa-bench -all -quick

# Short-run sanity pass over the bench figures that gate acceptance. Quick
# runs write their (shrunk, noisy) artifacts to a temp dir; only explicit
# full `-fig X` runs refresh the canonical repo-root BENCH_*.json files
# (internal/bench/artifactPath). ursa-bench is built once into a temp dir,
# and each figure runs under `timeout` (coreutils): a hung figure fails the
# gate with a non-zero exit instead of stalling `make check`.
bench-smoke: vet
	@bin=$$(mktemp -d) && trap 'rm -rf "$$bin"' EXIT && \
	$(GO) build -o "$$bin/ursa-bench" ./cmd/ursa-bench && \
	for fig in journal hotchunk recovery scrub ec failover coldtier; do \
		echo "bench-smoke: -fig $$fig -quick"; \
		timeout -k 10 600 "$$bin/ursa-bench" -fig $$fig -quick || { \
			rc=$$?; echo "bench-smoke: -fig $$fig failed (exit $$rc; 124 = timed out after 600s)" >&2; exit $$rc; }; \
	done

# Hot-path allocation regression gate, ceilings checked in at
# internal/bench/testdata/perf_baseline.json:
#  - TestPerfSmoke: the steady-state micro benchmarks (read+verify,
#    write+stamp, pooled decode, client-directed write fan-out, jindex
#    insert/query) must stay at 0 allocs/op and 0 B/op;
#  - TestPerfSmokeEndToEnd: one quick 4 KiB random read and one write
#    ceiling cell at queue depth 8 (whole hybrid stack, zero-cost devices)
#    must stay at or under 6.5 (reads) and 41 (writes) allocs/op.
perf-smoke:
	$(GO) test ./internal/bench -run TestPerfSmoke -count=1 -v

# Deterministic chaos acceptance run (fixed seed, scripted schedule, ~2s):
# every SSD journal in the cluster dies mid-workload and the client must
# finish with zero failed I/Os and a linearizable history.
chaos-smoke:
	$(GO) test ./internal/cluster -run TestChaosJournalDeathNoClientErrors -count=1 -v

# Deterministic bit-rot acceptance run: a backup replica's whole HDD rots
# silently mid-workload; the scrubber must detect it, the master must
# re-replicate, and every byte the client ever reads must be correct.
scrub-smoke:
	$(GO) test ./internal/cluster -run TestChaosBitRotScrubRepairs -count=1 -v

# Deterministic erasure-coding acceptance run: M=2 segment holders of an
# RS(4,2) chunk die mid-workload under the linearizability checker, and the
# client must finish with zero failed I/Os; plus degraded-read
# reconstruction and the all-replicas-corrupt clean-error floor.
ec-smoke:
	$(GO) test ./internal/cluster -run 'TestChaosECSegmentDeath|TestECDegradedReadReconstructs|TestAllReplicasCorruptCleanError' -count=1 -v

# Deterministic master-failover acceptance run: the primary master of a
# three-master cluster is killed mid-workload under the linearizability
# checker; a standby must promote at a higher epoch, the deposed master
# must bounce off the chunkservers' epoch fence, and the client must finish
# with zero failed I/Os. Also: a lone master runs the same protocol as a
# group of one (epoch 1, op log, self-promotion), and every fenced op in the
# chunkserver's dispatch table bounces off a stale epoch.
failover-smoke:
	$(GO) test ./internal/cluster ./internal/master ./internal/core ./internal/chunkserver -run 'TestChaosKillMasterFailover|TestDeposedMasterFencedByChunkservers|TestLone|TestEpochFence' -race -count=1 -v

# Deterministic cold-tier acceptance run: thin clones from a golden-image
# snapshot read back byte-identical under racing source writes and object-
# store stall/rot/partition chaos, and extent GC fully drains the store
# once the clone materializes and the snapshot is deleted.
cold-smoke:
	$(GO) test ./internal/cluster -run 'TestSnapshotCloneColdReads|TestSnapshotImmutableUnderRacingWrites|TestChaosColdReadsSurviveObjstoreStall|TestColdGCReclaimsAfterMaterialization' -race -count=1 -v
