package main

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// memDevice is an in-memory device for exercising the verifier.
type memDevice struct{ b []byte }

func (d *memDevice) ReadAt(p []byte, off int64) error  { copy(p, d.b[off:]); return nil }
func (d *memDevice) WriteAt(p []byte, off int64) error { copy(d.b[off:], p); return nil }

func TestCheckBlockAcceptsOnlyTheExpectedBlock(t *testing.T) {
	p := make([]byte, blockSize)
	fillBlock(p, 7, 3)
	if !checkBlock(p, 7, 3) {
		t.Fatal("block 7 version 3 rejected")
	}
	if checkBlock(p, 7, 2) || checkBlock(p, 7, 4) {
		t.Error("accepted a stale or future version")
	}
	if checkBlock(p, 8, 3) {
		t.Error("accepted another block's content")
	}
	p[blockSize-1] ^= 1
	if checkBlock(p, 7, 3) {
		t.Error("accepted a block with a flipped bit")
	}
	if got := describeBlock(p); got != "unrecognized bytes" {
		t.Errorf("describeBlock of a corrupt block = %q", got)
	}
}

func TestIssuerVerifiesReads(t *testing.T) {
	dev := &memDevice{b: make([]byte, 64*blockSize)}
	ver := make([]uint32, 64)
	is := newIssuer(0, dev, 0, 64, ver)
	is.startWindow(16, false, time.Time{})
	is.sweep(true)
	is.do(op{write: true, block: 5, n: 2})
	is.do(op{block: 4, n: 4})
	is.sweep(false)
	if is.failed != 0 {
		t.Fatalf("clean device: %d failed ops: %v", is.failed, is.firstErr)
	}

	// The device holds version 2 of block 5 (fill, then one write);
	// expecting version 3
	// must fail the read and name what was found.
	ver[5]++
	is.do(op{block: 5, n: 1})
	if is.failed != 1 || !strings.Contains(is.firstErr.Error(), "got block 5 version 2") {
		t.Fatalf("wrong expected block: failed=%d err=%v", is.failed, is.firstErr)
	}
}

type errDevice struct{ memDevice }

var errInjected = errors.New("injected")

func (d *errDevice) ReadAt(p []byte, off int64) error { return errInjected }

func TestIssuerCountsOpErrors(t *testing.T) {
	dev := &errDevice{memDevice{b: make([]byte, 8*blockSize)}}
	is := newIssuer(0, dev, 0, 8, make([]uint32, 8))
	is.startWindow(4, false, time.Time{})
	is.do(op{block: 1, n: 1})
	if is.failed != 1 || !errors.Is(is.firstErr, errInjected) {
		t.Fatalf("op error not counted: failed=%d err=%v", is.failed, is.firstErr)
	}
}
