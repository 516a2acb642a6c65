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

// modules are the layers a CPU profile is bucketed into, besides runtime
// (samples with no repository frame) and other (repository frames outside
// these modules).
var modules = []string{"sim", "gpu", "llm", "plan", "server", "cluster", "serve", "polca", "trace", "obs", "replay"}

// sample is one CPU-profile sample: its weight and the function names on
// its stack, innermost first.
type sample struct {
	weight int64
	funcs  []string
}

// profileShares buckets a pprof CPU profile by module and returns each
// bucket's percentage of the samples.
func profileShares(data []byte) (map[string]float64, error) {
	samples, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	return bucket(samples), nil
}

// bucket returns each module's percentage of the sample weight, keyed by
// module, runtime and other; the values sum to 100 unless there are no
// samples.
func bucket(samples []sample) map[string]float64 {
	out := map[string]float64{"runtime": 0, "other": 0}
	for _, m := range modules {
		out[m] = 0
	}
	var total int64
	for _, s := range samples {
		total += s.weight
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		out[moduleOf(s.funcs)] += 100 * float64(s.weight) / float64(total)
	}
	return out
}

// moduleOf names the module of the innermost polca/internal frame, other
// for a stack whose repository frames are all outside the listed modules,
// and runtime for a stack with no repository frame.
func moduleOf(funcs []string) string {
	repo := false
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, "polca/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			for _, m := range modules {
				if m == rest {
					return m
				}
			}
			return "other"
		}
		// The benchmark's own frames belong to package main.
		if strings.HasPrefix(f, "polca/") || strings.HasPrefix(f, "main.") {
			repo = true
		}
	}
	if repo {
		return "other"
	}
	return "runtime"
}

// parseProfile decodes the samples of a (gzipped) profile.proto message,
// as runtime/pprof writes it. Only the fields bucketing needs are read.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		raw    []rawSample
		locs   = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcs  = map[uint64]int64{}    // function id -> name string index
		strtab []string
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1: // location_id
					ids, err := varints(v, b)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value: the first is the sample count
					vals, err := varints(v, b)
					if len(vals) > 0 && s.weight == 0 {
						s.weight = int64(vals[0])
					}
					return err
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]sample, 0, len(raw))
	for _, r := range raw {
		s := sample{weight: r.weight}
		for _, l := range r.locs {
			for _, f := range locs[l] {
				i := funcs[f]
				if i < 0 || int(i) >= len(strtab) {
					return nil, fmt.Errorf("function %d names string %d of %d", f, i, len(strtab))
				}
				s.funcs = append(s.funcs, strtab[i])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("truncated profile")

// eachField calls fn for every field of a protobuf message: v carries a
// varint or fixed value, b the bytes of a length-delimited one (nil
// otherwise).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values: one unpacked value
// (b nil) or a packed run.
func varints(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return out, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
