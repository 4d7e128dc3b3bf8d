package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// profilePhases attributes CPU-profile samples of the paper run to the
// calls the in-process workloads trace with spans: a sample counts toward a
// phase when any frame of its stack matches. Together they give busy times
// (summed over the CLI's workers) without changing the CLI.
var profilePhases = map[string]func(fn string) bool{
	// Simulated threads run as coroutines whose stacks start at the
	// engine's, not under Machine.Run; its body closures and the engine
	// package mark them.
	"run": func(fn string) bool {
		return strings.HasPrefix(fn, "commtm.(*Machine).Run") || strings.HasPrefix(fn, "commtm/internal/engine.")
	},
	"new":      func(fn string) bool { return fn == "commtm.New" },
	"reset":    func(fn string) bool { return fn == "commtm.(*Machine).ResetSeed" },
	"setup":    func(fn string) bool { return workloadMethod(fn, "Setup") },
	"validate": func(fn string) bool { return workloadMethod(fn, "Validate") },
	"digest": func(fn string) bool {
		return fn == "commtm.(*Machine).MemDigest" || workloadMethod(fn, "DigestState")
	},
	"mk": func(fn string) bool {
		rest, ok := strings.CutPrefix(fn, "commtm/internal/workloads/")
		return ok && !strings.Contains(rest, "(") && strings.Contains(rest, ".New")
	},
	"emit": func(fn string) bool { return fn == "commtm/internal/sweep.(*JSONLSink).Emit" },
}

func workloadMethod(fn, method string) bool {
	return strings.HasPrefix(fn, "commtm/internal/workloads/") && strings.HasSuffix(fn, ")."+method)
}

// profileBusy reads a gzipped pprof CPU profile and returns the CPU time of
// the samples matching each phase.
func profileBusy(path string, phases map[string]func(string) bool) (map[string]time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	out := make(map[string]time.Duration, len(phases))
	for name := range phases {
		out[name] = 0
	}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		ns := s.values[len(s.values)-1] // cpu nanoseconds is the last sample type
		for name, match := range phases {
			if p.stackMatches(s.locs, match) {
				out[name] += time.Duration(ns)
			}
		}
	}
	return out, nil
}

// profile is the part of a pprof profile.proto message the benchmark
// needs: samples with their stacks, and the names of the stack's functions.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id -> function ids (inlined frames too)
	funcNames map[uint64]int64    // function id -> string table index
	strs      []string
}

type sample struct {
	locs   []uint64
	values []int64
}

func (p *profile) stackMatches(locs []uint64, match func(string) bool) bool {
	for _, l := range locs {
		for _, fid := range p.locFuncs[l] {
			if i := p.funcNames[fid]; i >= 0 && int(i) < len(p.strs) && match(p.strs[i]) {
				return true
			}
		}
	}
	return false
}

// Field numbers of profile.proto.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6
	fSampleLocation  = 1
	fSampleValue     = 2
	fLocationID      = 1
	fLocationLine    = 4
	fLineFunction    = 1
	fFunctionID      = 1
	fFunctionName    = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case fProfileSample:
			var s sample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case fSampleLocation:
					return appendVarints(&s.locs, v, d)
				case fSampleValue:
					var u []uint64
					if err := appendVarints(&u, v, d); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(d, func(n int, v uint64, _ []byte) error {
						if n == fLineFunction {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case fProfileFunction:
			var id uint64
			name := int64(-1)
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strs = append(p.strs, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated integer field, packed (data) or not (v).
func appendVarints(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

var errBadProto = errors.New("malformed protobuf")

// eachField walks the fields of one protobuf message, passing varint values
// as v and length-delimited payloads as data (non-nil, possibly empty).
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			b = b[4:]
			continue
		default:
			return errBadProto
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}
