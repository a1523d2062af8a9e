package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the buckets a CPU profile's self time is split into: the
// repository's packages by name, the Go runtime, the rest of the standard
// library, and everything else (other repo packages and this benchmark).
var cpuLayers = []string{"core", "sim", "tub", "pilot", "nn", "eval", "serve", "fed", "gossip",
	"netem", "objstore", "obs", "runtime", "std", "other"}

// cpuShares parses a gzipped pprof CPU profile and returns each layer's
// share of the sampled CPU time, attributing every sample to the function
// at the top of its stack (the innermost inlined frame). It reads only
// the few profile.proto fields it needs.
func cpuShares(gz []byte) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		leaf  uint64
		nanos int64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64]uint64{} // location id -> innermost function id
		funName = map[uint64]int64{}  // function id -> string index
	)
	err = pbFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			if err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					locs = append(locs, v)
				case f == 1 && w == 2:
					locs = append(locs, pbPacked(b)...)
				case f == 2 && w == 0:
					vals = append(vals, int64(v))
				case f == 2 && w == 2:
					for _, x := range pbPacked(b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			}); err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{leaf: locs[0], nanos: vals[len(vals)-1]})
			}
		case 4: // Location
			var id, fn uint64
			first := true
			if err := pbFields(b, func(f, w int, v uint64, b []byte) error {
				switch {
				case f == 1 && w == 0:
					id = v
				case f == 4 && w == 2 && first:
					first = false
					return pbFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 && w == 0 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f, w int, v uint64, _ []byte) error {
				if w == 0 && f == 1 {
					id = v
				} else if w == 0 && f == 2 {
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		name := ""
		if si, ok := funName[locFunc[s.leaf]]; ok && si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		out[layerOfFunc(name)] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, len(samples), nil
}

// layerOfFunc maps a symbol such as "repro/internal/nn.(*Conv2D).Forward"
// to its bucket in cpuLayers.
func layerOfFunc(name string) string {
	pkg := name
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range cpuLayers {
			if rest == l {
				return l
			}
		}
		return "other"
	}
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "" || strings.HasPrefix(pkg, "repro/") || pkg == "main":
		return "other"
	case !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "std"
	}
	return "other"
}

// pbFields walks one protobuf message, calling fn for each field with its
// number, wire type, and varint value or length-delimited bytes.
func pbFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length")
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
	}
	return nil
}

// pbPacked decodes a packed run of varints.
func pbPacked(b []byte) []uint64 {
	var out []uint64
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}
