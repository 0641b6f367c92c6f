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

// cpuProfile is the part of a runtime/pprof CPU profile the cross-check
// needs: each sample's call stack (function names, leaf first, inlined
// frames expanded) and its CPU time.
type cpuProfile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzipped profile.proto as runtime/pprof writes
// it. Only the fields the cross-check reads are decoded: samples,
// locations with their lines, functions and the string table.
func parseProfile(data []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples   []rawSample
		locLines  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int64{}    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					for _, x := range appendVarints(nil, wire, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, b []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ps := profSample{ns: s.vals[len(s.vals)-1]}
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				name := "?"
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					name = strs[i]
				}
				ps.stack = append(ps.stack, name)
			}
		}
		p.samples = append(p.samples, ps)
	}
	return p, nil
}

// eachField calls fn for every field of one protobuf message: varint
// fields pass their value in v, length-delimited ones their bytes in b.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
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

// packageOf names the repository package a function belongs to
// (internal/<pkg>), "runtime" for the Go runtime, "other" otherwise.
func packageOf(fn string) string {
	const prefix = "nestedecpt/internal/"
	if strings.HasPrefix(fn, prefix) {
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") {
		return "runtime"
	}
	return "other"
}

// entryGroup maps a function to the profile group of the simulator
// entry point it is, or "" when it is none. The groups are the layers
// the span attribution times (metrics.go, profileGroups).
func entryGroup(fn string) string {
	switch {
	case strings.HasPrefix(fn, "nestedecpt/internal/kernel.(*Kernel).Touch"),
		strings.HasPrefix(fn, "nestedecpt/internal/kernel.(*Kernel).Translate"),
		strings.HasPrefix(fn, "nestedecpt/internal/hypervisor.(*Hypervisor).EnsureMapped"),
		strings.HasPrefix(fn, "nestedecpt/internal/hypervisor.(*Hypervisor).Translate"):
		return "translate"
	case strings.HasPrefix(fn, "nestedecpt/internal/core.") && (strings.HasSuffix(fn, ").Walk") || strings.HasSuffix(fn, ").WalkBatch")):
		return "walker"
	case strings.HasPrefix(fn, "nestedecpt/internal/cachesim.(*Hierarchy).Access"):
		return "cachesim"
	case strings.HasPrefix(fn, "nestedecpt/internal/tlbsim.(*TLB)."):
		return "tlbsim"
	case strings.HasPrefix(fn, "nestedecpt/internal/workload.") && strings.HasSuffix(fn, ").Next"):
		return "workload"
	case strings.HasPrefix(fn, "nestedecpt/internal/sim.(*Machine).Prepopulate"):
		return "rescan"
	}
	return ""
}

// runEntry is the simulating goroutine's outermost simulator frame.
const runEntry = "nestedecpt/internal/sim.(*Machine).RunContext"

// profileShares summarizes a profile of Machine.Run. Only samples of
// the simulating goroutine count (stacks through Machine.RunContext);
// background GC workers on other threads are left out, as the span
// attribution measures the simulating thread's time. groups gives each
// sample to the outermost entry point on its stack ("self" when none);
// flat gives it to the package of its innermost frame. n counts the
// samples that were kept.
func profileShares(p *cpuProfile) (groups, flat map[string]float64, total int64, n int) {
	groups, flat = map[string]float64{}, map[string]float64{}
	for _, s := range p.samples {
		if !contains(s.stack, runEntry) {
			continue
		}
		total += s.ns
		n++
		g := "self"
		for i := len(s.stack) - 1; i >= 0; i-- { // root to leaf
			if e := entryGroup(s.stack[i]); e != "" {
				g = e
				break
			}
		}
		groups[g] += float64(s.ns)
		pkg := packageOf(s.stack[0])
		if !contains(flatPackages, pkg) {
			pkg = "other"
		}
		flat[pkg] += float64(s.ns)
	}
	for k := range groups {
		groups[k] /= float64(total)
	}
	for k := range flat {
		flat[k] /= float64(total)
	}
	return groups, flat, total, n
}

// kept counts the samples profileShares keeps: those of the simulating
// goroutine.
func (p *cpuProfile) kept() int {
	n := 0
	for _, s := range p.samples {
		if contains(s.stack, runEntry) {
			n++
		}
	}
	return n
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}
