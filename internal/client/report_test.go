package client

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"ursa/internal/clock"
	"ursa/internal/master"
	"ursa/internal/proto"
	"ursa/internal/transport"
)

// TestReportFailureAsyncCooldown checks the client's straggler-report
// throttle: a repeat (chunk, address) report within reportCooldown is
// dropped, a report naming another address is filed, and the repeat is
// filed again once the cooldown has passed.
func TestReportFailureAsyncCooldown(t *testing.T) {
	// Model time runs at wall speed, so only Advance crosses the cooldown.
	clk := clock.NewScaled(1)
	net := transport.NewSimNet(clk, time.Microsecond)

	// A stub master that records the failed address of every report.
	var mu sync.Mutex
	var filed []string
	l, err := net.Listen("master", transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rpc := transport.Serve(l, func(m *proto.Message) *proto.Message {
		if m.Op == proto.MOpReportFailure {
			var req master.ReportFailureReq
			if err := json.Unmarshal(m.Payload, &req); err == nil {
				mu.Lock()
				filed = append(filed, req.FailedAddr)
				mu.Unlock()
			}
		}
		return m.Reply(proto.StatusOK)
	})
	t.Cleanup(rpc.Close)
	reports := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), filed...)
	}

	cl := New(Config{
		Name: "c", MasterAddrs: []string{"master"}, Clock: clk,
		Dialer: net.Dialer("client-c", transport.NodeConfig{}),
	})
	t.Cleanup(cl.Close)
	vd := newVDisk(cl, master.VDiskMeta{ID: 1, Chunks: make([]master.ChunkMeta, 1)})

	// waitFor blocks until n reports have landed and the reporter has
	// released the chunk's in-flight marker, so a later drop can only be
	// the cooldown's doing.
	waitFor := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			vd.repMu.Lock()
			idle := len(vd.repInflight) == 0
			vd.repMu.Unlock()
			if idle && len(reports()) >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("reports filed = %v, want %d", reports(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	vd.reportFailureAsync(0, "b1")
	waitFor(1)
	vd.reportFailureAsync(0, "b1") // within the cooldown: dropped
	vd.reportFailureAsync(0, "b2")
	waitFor(2)
	clk.Advance(reportCooldown)
	vd.reportFailureAsync(0, "b1")
	waitFor(3)

	// The reporter drains its queue in order, so once it is idle every
	// report enqueued so far has landed.
	if got, want := reports(), []string{"b1", "b2", "b1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reports filed = %v, want %v", got, want)
	}
}
