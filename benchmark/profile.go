package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// stackSample is one CPU-profile sample: its call stack, innermost frame
// first, and the CPU time it stands for.
type stackSample struct {
	frames []string
	nanos  int64
}

// gcWorkers are the runtime functions that run garbage collection in the
// background rather than on behalf of a caller. A sample under one of them
// is charged to the gc layer; "runtime._GC" is the profiler's name for GC
// time it could not unwind.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime._GC":            true,
}

// funcPackage returns the import path of the package that defines the
// function with the given fully qualified name, as the profile spells it
// ("alm/internal/fairshare.(*System).allocate" → "alm/internal/fairshare").
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// repoLayer names the layer a function belongs to: the module's package
// name under internal/ ("fairshare", "engine", ...), "alm" for the public
// facade and "bench" for this program. ok is false outside the module.
func repoLayer(fn string) (layer string, ok bool) {
	pkg := funcPackage(fn)
	switch {
	case pkg == "main" || pkg == "alm/benchmark" || strings.HasPrefix(pkg, "alm/benchmark/"):
		return "bench", true
	case pkg == "alm":
		return "alm", true
	case strings.HasPrefix(pkg, "alm/"):
		rest := strings.TrimPrefix(strings.TrimPrefix(pkg, "alm/"), "internal/")
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest, true
	}
	return "", false
}

// sampleLayer charges one stack to a layer: background GC work to "gc",
// otherwise the innermost frame in a package of this module, so runtime
// and standard-library frames (map access, sorting, allocation) count for
// the repository code that called them. A stack with neither is "runtime".
func sampleLayer(frames []string) string {
	for _, f := range frames {
		if gcWorkers[f] {
			return "gc"
		}
	}
	for _, f := range frames {
		if l, ok := repoLayer(f); ok {
			return l
		}
	}
	return "runtime"
}

// foldLayers sums the samples' CPU time per layer.
func foldLayers(samples []stackSample) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range samples {
		out[sampleLayer(s.frames)] += s.nanos
	}
	return out
}

// layerShare is one layer's CPU time and its percentage of the profile.
type layerShare struct {
	layer string
	nanos int64
	pct   float64
}

// shares orders the folded layers by CPU time, largest first, with each
// layer's percentage of the total.
func shares(folded map[string]int64) []layerShare {
	var total int64
	for _, n := range folded {
		total += n
	}
	out := make([]layerShare, 0, len(folded))
	for l, n := range folded {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(n) / float64(total)
		}
		out = append(out, layerShare{layer: l, nanos: n, pct: pct})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].nanos != out[j].nanos {
			return out[i].nanos > out[j].nanos
		}
		return out[i].layer < out[j].layer
	})
	return out
}

// parseProfile decodes a gzipped pprof profile, as runtime/pprof writes
// it, into stack samples. It reads only the fields the folding needs:
// sample types, samples, locations (with inlined frames), functions and
// the string table. Each sample's CPU time is its "cpu" value.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct{ locs, values []uint64 }
	var (
		strs       []string
		valueTypes []uint64 // string index of each sample value's type
		samples    []rawSample
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 1 && wire == 2: // sample_type
			return eachField(b, func(n, w int, v uint64, _ []byte) error {
				if n == 1 && w == 0 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case num == 2 && wire == 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendUints(&s.locs, w, v, b)
				case 2:
					return appendUints(&s.values, w, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case num == 4 && wire == 2: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch {
				case n == 1 && w == 0:
					id = v
				case n == 4 && w == 2: // line
					return eachField(b, func(n, w int, v uint64, _ []byte) error {
						if n == 1 && w == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case num == 5 && wire == 2: // function
			var id, name uint64
			err := eachField(b, func(n, w int, v uint64, _ []byte) error {
				if w == 0 && n == 1 {
					id = v
				} else if w == 0 && n == 2 {
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := len(valueTypes) - 1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no sample types")
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				frames = append(frames, str(funcNames[fn]))
			}
		}
		out = append(out, stackSample{frames: frames, nanos: int64(s.values[cpu])})
	}
	return out, nil
}

// appendUints appends a repeated integer field that may arrive packed
// (one length-delimited run) or as single varints.
func appendUints(dst *[]uint64, wire int, v uint64, b []byte) error {
	switch wire {
	case 0:
		*dst = append(*dst, v)
	case 2:
		for len(b) > 0 {
			x, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad packed varint")
			}
			*dst = append(*dst, x)
			b = b[n:]
		}
	}
	return nil
}

// eachField walks one protobuf message and calls fn for every field with
// its number, wire type, and its value: v for varints and fixed-width
// fields, b for length-delimited ones.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
