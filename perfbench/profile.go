package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// layers are the repository's modules, named by their package.
var layers = []string{"topk", "core", "coord", "protocol", "rng", "filter", "order", "comm", "wire", "transport", "netrun", "shardrun", "ingest", "ckpt"}

// modules are what a CPU sample's self time is charged to: a layer,
// goruntime (garbage collection, scheduler, system calls), bench (this
// program's own generator and checks) or other (any other repository
// package).
var modules = append(slices.Clone(layers), "goruntime", "bench", "other")

// selfTime decodes a gzipped pprof CPU profile and returns the sampled
// CPU nanoseconds per module. A sample is charged to the first
// repository frame from its leaf, so time in a standard-library helper
// (a sort, a bufio write, a mutex) counts for the layer that called it.
// A sample whose leaf is in the Go runtime or the system-call layer is
// goruntime's, except the runtime's memory copy and compare routines,
// which also count for their caller.
func selfTime(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	out := make(map[string]int64, len(modules))
	for _, s := range p.samples {
		if len(s.values) < 2 {
			continue
		}
		out[p.charge(s.locs)] += s.values[1]
	}
	return out, nil
}

// charge picks the module a stack (leaf first) is charged to.
func (p *profile) charge(locs []uint64) string {
	leaf := true
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] { // innermost inlined frame first
			pkg := packageOf(p.strings[p.funcName[fn]])
			if m := moduleOf(pkg); m != "" {
				return m
			}
			if leaf && isRuntime(pkg) && !isMemHelper(p.strings[p.funcName[fn]]) {
				return "goruntime"
			}
			leaf = false
		}
	}
	return "goruntime"
}

// packageOf extracts the import path from a symbol name such as
// "repro/internal/coord.(*Machine).Step" or "slices.Sort[...]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// moduleOf maps a repository package to its module name, "" otherwise.
func moduleOf(pkg string) string {
	switch {
	case pkg == "main" || strings.HasPrefix(pkg, "repro/perfbench"):
		return "bench"
	case pkg == "repro/topk":
		return "topk"
	case strings.HasPrefix(pkg, "repro/internal/"):
		name, _, _ := strings.Cut(strings.TrimPrefix(pkg, "repro/internal/"), "/")
		if slices.Contains(layers, name) {
			return name
		}
		return "other"
	case strings.HasPrefix(pkg, "repro/"):
		return "other"
	}
	return ""
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || pkg == "syscall" || pkg == "internal/poll" ||
		strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		strings.HasPrefix(pkg, "internal/syscall/")
}

func isMemHelper(fn string) bool {
	return strings.HasPrefix(fn, "runtime.mem") || fn == "runtime.cmpbody" || fn == "runtime.indexbytebody"
}

// profile is the part of a pprof profile.proto message selfTime needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile reads the fields of profile.proto used here: Profile.sample
// (2), .location (4), .function (5) and .string_table (6);
// Sample.location_id (1) and .value (2); Location.id (1) and .line (4);
// Line.function_id (1); Function.id (1) and .name (2).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					return varints(v, sub, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(v, sub, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}

var errProto = errors.New("malformed protobuf")

// fields walks the protobuf fields of b, passing varint values in v and
// length-delimited payloads in sub (nil for varints). Fixed-width fields
// are skipped.
func fields(b []byte, f func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if typ == 5 {
				w = 4
			}
			if len(b) < w {
				return errProto
			}
			b = b[w:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := f(num, 0, sub); err != nil {
				return err
			}
		default:
			return errProto
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one value
// per field (sub == nil) or packed into one length-delimited payload.
func varints(v uint64, sub []byte, add func(uint64)) error {
	if sub == nil {
		add(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errProto
		}
		add(x)
		sub = sub[n:]
	}
	return nil
}
