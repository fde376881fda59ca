package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the groups CPU time is charged to: the program's packages
// under ursa/internal (simnet split out of transport, the packages the data
// path does not reach folded into "other"), "runtime" for samples with no
// program or benchmark frame (GC workers, the scheduler, idle spinning) and
// "bench" for the load generator and verifier.
var layers = []string{
	"client", "transport", "proto", "chunkserver", "journal", "jindex",
	"blockstore", "bufpool", "opctx", "metrics", "clock", "util", "master",
	"simdisk", "simnet", "runtime", "bench", "other",
}

// layerOf names the layer a function belongs to, or "" when the function is
// neither the program's nor the benchmark's (the Go runtime and standard
// library), in which case the caller looks further up the stack.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "ursa/internal/trace.") {
		return "bench" // the trace package generates the trace-mds1 inputs
	}
	rest, ok := strings.CutPrefix(fn, "ursa/internal/")
	if !ok {
		return ""
	}
	end := strings.IndexAny(rest, "/.")
	if end < 0 {
		return "other"
	}
	pkg := rest[:end]
	if pkg == "transport" && isSimnet(rest[len("transport."):]) {
		return "simnet"
	}
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// isSimnet reports whether a transport symbol belongs to the simulated
// fabric: the sim* types and the NIC token buckets.
func isSimnet(sym string) bool {
	sym = strings.TrimPrefix(sym, "(*")
	for _, p := range []string{"sim", "Sim", "newSim", "NewSim", "TokenBucket", "NewTokenBucket", "cutKey"} {
		if strings.HasPrefix(sym, p) {
			return true
		}
	}
	return false
}

// cpuByLayer charges every sample of a gzipped pprof CPU profile to the
// innermost program or benchmark frame on its stack ("runtime" when there
// is none). It returns nanoseconds per layer, and the nanoseconds of
// samples whose stack passes through any function named in within.
func cpuByLayer(gz []byte, within string) (map[string]int64, int64, error) {
	p, err := decodeProfile(gz)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var inside int64
	for _, s := range p.samples {
		layer := ""
		hit := false
		for _, loc := range s.locs {
			for _, fid := range p.locations[loc] {
				name := p.strings[p.functions[fid]]
				if layer == "" {
					layer = layerOf(name)
				}
				if name == within {
					hit = true
				}
			}
		}
		if layer == "" {
			layer = "runtime"
		}
		out[layer] += s.nanos
		if hit {
			inside += s.nanos
		}
	}
	return out, inside, nil
}

// profile is the part of a pprof profile cpuByLayer needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id -> name string index
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []sample
}

type sample struct {
	locs  []uint64 // leaf first
	nanos int64
}

// Field numbers of the pprof profile.proto messages used here.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileString   = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4
	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

// decodeProfile parses a gzipped profile.proto as runtime/pprof writes it.
// CPU samples carry two values, count and nanoseconds; the second is used.
func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{functions: map[uint64]int64{}, locations: map[uint64][]uint64{}}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileString:
			p.strings = append(p.strings, string(b))
		case fProfileSample:
			var s sample
			var vals []uint64
			if err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					s.locs = appendVarints(s.locs, wire, v, b)
				case fSampleValue:
					vals = appendVarints(vals, wire, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) < 2 {
				return errors.New("profile: sample without a nanoseconds value")
			}
			s.nanos = int64(vals[1])
			p.samples = append(p.samples, s)
		case fProfileLocation:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			p.locations[id] = fns
		case fProfileFunction:
			var id uint64
			var name int64
			if err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			p.functions[id] = name
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, errors.New("profile: function name outside the string table")
		}
	}
	return p, nil
}

// Protobuf wire types used by profile.proto.
const (
	wireVarint = 0
	wireI64    = 1
	wireBytes  = 2
	wireI32    = 5
)

// eachField walks one protobuf message, calling fn with each field's number
// and wire type, and its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case wireI64:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case wireI32:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		case wireBytes:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, whether the
// encoder wrote it packed or one value per field.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == wireVarint {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
