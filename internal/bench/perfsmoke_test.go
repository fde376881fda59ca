package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// perfBaseline mirrors testdata/perf_baseline.json: hard per-iteration
// allocation ceilings for the steady-state hot-path loops, and end-to-end
// allocs/op ceilings for 4 KiB reads and writes through the whole stack.
type perfBaseline struct {
	Loops map[string]struct {
		AllocsPerOp int64 `json:"allocs_per_op"`
		BytesPerOp  int64 `json:"bytes_per_op"`
	} `json:"loops"`
	EndToEnd map[string]struct {
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"end_to_end"`
}

// endToEndQD is the queue depth of the end-to-end cells. Over six
// unloaded runs each, the write cell's allocs/op spread 0.5 at depth 8 and
// 1.8 at depth 1.
const endToEndQD = 8

func loadPerfBaseline(t *testing.T) perfBaseline {
	t.Helper()
	raw, err := os.ReadFile("testdata/perf_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base perfBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	return base
}

// TestPerfSmoke is the allocation regression gate behind `make perf-smoke`:
// it runs the ceiling figure's steady-state micro-benchmarks (blockstore
// read+verify, write+stamp, pooled proto decode) and fails if any loop
// allocates more than the checked-in baseline permits. The baseline pins
// the hot path at 0 allocs/op — any regression that reintroduces a
// per-I/O allocation fails here before it reaches a full bench run.
func TestPerfSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime distorts allocation accounting; gate runs race-free via make perf-smoke")
	}
	base := loadPerfBaseline(t)

	micros := ceilingMicros()
	if len(micros) == 0 {
		t.Fatal("ceilingMicros returned nothing")
	}
	seen := make(map[string]bool)
	for _, m := range micros {
		seen[m.Name] = true
		want, ok := base.Loops[m.Name]
		if !ok {
			t.Errorf("%s: no baseline entry — add one to testdata/perf_baseline.json", m.Name)
			continue
		}
		t.Logf("%s: %.0f ns/op, %d allocs/op, %d B/op (ceiling %d allocs, %d B)",
			m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp,
			want.AllocsPerOp, want.BytesPerOp)
		if m.AllocsPerOp > want.AllocsPerOp {
			t.Errorf("%s: %d allocs/op exceeds baseline %d",
				m.Name, m.AllocsPerOp, want.AllocsPerOp)
		}
		if m.BytesPerOp > want.BytesPerOp {
			t.Errorf("%s: %d B/op exceeds baseline %d",
				m.Name, m.BytesPerOp, want.BytesPerOp)
		}
	}
	for name := range base.Loops {
		if !seen[name] {
			t.Errorf("baseline loop %s no longer measured", name)
		}
	}
}

// TestPerfSmokeEndToEnd is the end-to-end half of the gate: one quick
// ceiling cell each for 4 KiB random reads and writes (client, transport,
// chunk servers, journals, blockstore and zero-cost simulated devices) must
// stay at or under the checked-in process-wide allocs/op ceilings.
func TestPerfSmokeEndToEnd(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime distorts allocation accounting; gate runs race-free via make perf-smoke")
	}
	base := loadPerfBaseline(t)
	seen := make(map[string]bool)
	for _, op := range []string{"read", "write"} {
		cell, err := runCeilingCell(Config{Quick: true, Seed: 42}, op == "write", endToEndQD)
		if err != nil {
			t.Fatalf("%s cell: %v", op, err)
		}
		name := "4k-" + op
		seen[name] = true
		want, ok := base.EndToEnd[name]
		if !ok {
			t.Errorf("%s: no end_to_end entry in testdata/perf_baseline.json", name)
			continue
		}
		t.Logf("%s qd%d: %.2f allocs/op, %.0f B/op, %.0f iops/cpu-s (ceiling %.1f allocs)",
			name, cell.QD, cell.AllocsPerOp, cell.BytesPerOp, cell.IOPSCPU, want.AllocsPerOp)
		if cell.AllocsPerOp > want.AllocsPerOp {
			t.Errorf("%s: %.2f allocs/op exceeds ceiling %.1f", name, cell.AllocsPerOp, want.AllocsPerOp)
		}
	}
	for name := range base.EndToEnd {
		if !seen[name] {
			t.Errorf("end_to_end cell %s no longer measured", name)
		}
	}
}
