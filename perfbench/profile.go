package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stackSample is one CPU profile sample: the function names on its stack,
// leaf first (inlined frames expanded), and its CPU time in nanoseconds.
type stackSample struct {
	stack []string
	nanos int64
}

// parseProfile decodes a gzipped pprof protobuf profile as written by
// runtime/pprof.StartCPUProfile. Only the fields needed to rebuild stacks
// are read: sample, location, function and the string table.
func parseProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]int64{}    // function id -> name string index
		strs    []string
	)
	err = eachField(data, func(f field) error {
		switch f.num {
		case 2:
			var s rawSample
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					return g.uints(func(v uint64) { s.locs = append(s.locs, v) })
				case 2:
					return g.uints(func(v uint64) { s.values = append(s.values, int64(v)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					return eachField(g.data, func(h field) error {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(f.data, func(g field) error {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = int64(g.val)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(f.data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile: sample without values")
		}
		st := stackSample{nanos: s.values[len(s.values)-1]}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx, ok := funcs[fn]
				if !ok || idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", l, fn)
				}
				st.stack = append(st.stack, strs[idx])
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// field is one protobuf field: its number, and either its varint value or
// its length-delimited payload.
type field struct {
	num  int
	wire int
	val  uint64
	data []byte
}

// uints visits the field's unsigned values, whether encoded as a single
// varint or as a packed run.
func (f field) uints(visit func(uint64)) error {
	if f.wire == 0 {
		visit(f.val)
		return nil
	}
	b := f.data
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		visit(v)
		b = b[n:]
	}
	return nil
}

// eachField walks the fields of one protobuf message.
func eachField(b []byte, visit func(field) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		f := field{num: int(key >> 3), wire: int(key & 7)}
		switch f.wire {
		case 0:
			if f.val, n = uvarint(b); n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if f.wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errors.New("profile: truncated fixed field")
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: truncated field")
			}
			f.data = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", f.wire)
		}
		if err := visit(f); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// modulePrefix is the import-path prefix of the simulator's layers.
const modulePrefix = "montecimone/internal/"

// layerOf names the simulator package a function belongs to ("node" for
// montecimone/internal/node.(*Node).step), or "" outside the simulator.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	rest := fn[len(modulePrefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// selfByLayer buckets CPU time by the innermost simulator package on each
// stack: time in the runtime or the standard library counts against the
// layer that called it. Samples with no simulator frame go to "other".
func selfByLayer(samples []stackSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		layer := "other"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.nanos
	}
	return out
}

// underAny sums the CPU time of samples whose stack holds any of the
// given functions and whose innermost simulator package is one of layers
// (any package, or none, when layers is empty).
func underAny(samples []stackSample, layers []string, fns ...string) int64 {
	var total int64
	for _, s := range samples {
		if len(layers) > 0 && !inLayers(s.stack, layers) {
			continue
		}
		if stackHoldsAny(s.stack, fns) {
			total += s.nanos
		}
	}
	return total
}

func inLayers(stack, layers []string) bool {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			for _, want := range layers {
				if l == want {
					return true
				}
			}
			return false
		}
	}
	return false
}

func stackHoldsAny(stack, fns []string) bool {
	for _, fn := range stack {
		for _, want := range fns {
			if fn == want {
				return true
			}
		}
	}
	return false
}

func totalNanos(samples []stackSample) int64 {
	var t int64
	for _, s := range samples {
		t += s.nanos
	}
	return t
}
