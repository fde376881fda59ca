package chunkserver

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"

	"ursa/internal/blockstore"
	"ursa/internal/clock"
	"ursa/internal/proto"
	"ursa/internal/simdisk"
	"ursa/internal/transport"
)

// reportStub is a master that records the failed address of every
// MOpReportFailure it receives and acks it.
type reportStub struct {
	mu    sync.Mutex
	addrs []string
}

func newReportStub(t *testing.T, net *transport.SimNet, addr string) *reportStub {
	t.Helper()
	st := &reportStub{}
	l, err := net.Listen(addr, transport.NodeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rpc := transport.Serve(l, func(m *proto.Message) *proto.Message {
		if m.Op == proto.MOpReportFailure {
			var req reportFailureReq
			if err := json.Unmarshal(m.Payload, &req); err == nil {
				st.mu.Lock()
				st.addrs = append(st.addrs, req.FailedAddr)
				st.mu.Unlock()
			}
		}
		return m.Reply(proto.StatusOK)
	})
	t.Cleanup(rpc.Close)
	return st
}

func (st *reportStub) filed() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.addrs...)
}

// waitFor blocks until n reports have arrived.
func (st *reportStub) waitFor(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(st.filed()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("reports filed = %v, want %d", st.filed(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReportFailureCooldown checks the per-(chunk, address) report
// throttle: a repeat report within reportCooldown is dropped, a report
// naming another address is filed, and the repeat is filed again once the
// cooldown has passed.
func TestReportFailureCooldown(t *testing.T) {
	// Model time runs at wall speed, so only Advance crosses the cooldown.
	clk := clock.NewScaled(1)
	net := transport.NewSimNet(clk, time.Microsecond)
	stub := newReportStub(t, net, "master")
	srv := New(Config{
		Addr: "s", Role: RolePrimary, Clock: clk,
		Dialer:      net.Dialer("s", transport.NodeConfig{}),
		MasterAddrs: []string{"master"},
	}, blockstore.New(simdisk.NewSSD(fastSSD(), clk), 0), nil)
	t.Cleanup(srv.Close)

	key := testChunk.String() + "|b1"
	lastB1 := func() time.Time {
		srv.failMu.Lock()
		defer srv.failMu.Unlock()
		return srv.lastReport[key]
	}

	srv.reportFailure(testChunk, "b1")
	stub.waitFor(t, 1)
	first := lastB1()
	// Within the cooldown the repeat is dropped before its report goroutine
	// starts, so the throttle entry keeps the first report's time.
	clk.Advance(reportCooldown / 2)
	srv.reportFailure(testChunk, "b1")
	if got := lastB1(); !got.Equal(first) {
		t.Fatalf("repeat within the cooldown was filed: last report %v, want %v", got, first)
	}
	srv.reportFailure(testChunk, "b2")
	stub.waitFor(t, 2)
	clk.Advance(reportCooldown / 2)
	srv.reportFailure(testChunk, "b1")
	stub.waitFor(t, 3)
	if got := lastB1(); !got.After(first) {
		t.Fatalf("repeat after the cooldown not recorded: last report %v, first %v", got, first)
	}
	if got, want := stub.filed(), []string{"b1", "b2", "b1"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reports filed = %v, want %v", got, want)
	}
}
