package transport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ursa/internal/bufpool"
	"ursa/internal/clock"
	"ursa/internal/proto"
)

// TestPooledDecodeRaceSoak hammers one connection with concurrent Client.Go
// pipelines whose payloads decode into pooled buffers, checking that echoed
// bytes survive the lease/return churn and that the pool balances to its
// starting in-use count once the connection drains. Run under -race this is
// the ownership-contract soak: any buffer recycled while still referenced
// shows up as either corrupted echo bytes or a data race on the buffer.
func TestPooledDecodeRaceSoak(t *testing.T) {
	start := bufpool.InUse()

	l, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(l, echoHandler)
	conn, err := TCPDialer{}.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cli := NewClient(conn, clock.Realtime)

	const workers = 8
	const callsPerWorker = 150
	const pipeline = 4 // in-flight calls per worker
	sizes := []int{512, 4096, 16384}
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			type flight struct {
				ch   <-chan *proto.Message
				n    int
				mark byte
			}
			var inflight []flight
			reap := func(f flight) error {
				resp, ok := <-f.ch
				if !ok {
					return fmt.Errorf("worker %d: connection died", w)
				}
				if resp.Status != proto.StatusOK {
					return fmt.Errorf("worker %d: status %v", w, resp.Status)
				}
				if len(resp.Payload) != f.n ||
					resp.Payload[0] != f.mark || resp.Payload[f.n-1] != f.mark {
					return fmt.Errorf("worker %d: corrupted echo (len=%d want %d)",
						w, len(resp.Payload), f.n)
				}
				bufpool.Put(resp.Payload)
				return nil
			}
			for i := 0; i < callsPerWorker; i++ {
				n := sizes[(w+i)%len(sizes)]
				mark := byte(w*31 + i)
				pay := bufpool.Get(n)
				pay[0], pay[n-1] = mark, mark
				// Go consumes the request payload reference on every path.
				inflight = append(inflight, flight{
					ch: cli.Go(&proto.Message{Op: proto.OpRead, Payload: pay}),
					n:  n, mark: mark,
				})
				if len(inflight) >= pipeline {
					if err := reap(inflight[0]); err != nil {
						errs <- err
						return
					}
					inflight = inflight[1:]
				}
			}
			for _, f := range inflight {
				if err := reap(f); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	cli.Close()
	srv.Close()
	deadline := time.Now().Add(10 * time.Second)
	for bufpool.InUse() != start {
		if time.Now().After(deadline) {
			t.Fatalf("pool did not drain: in-use %d, started at %d (leases=%d returns=%d)",
				bufpool.InUse(), start, bufpool.Leases(), bufpool.Returns())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
