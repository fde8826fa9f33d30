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

// cpuShares reads a gzipped pprof CPU profile and splits its samples
// into the cpu_share ledger: each sample's time goes to the repository
// layer that was running, so the ledger reads as self time per layer
// without tracing inside the program. Rules, first match wins:
//
//   - a stack inside a GC worker, assist or sweeper is runtime.gc;
//   - otherwise the frames are walked from the leaf: runtime frames of
//     the scheduler (park, wake, find work) make the sample
//     runtime.sched, other runtime and standard-library frames are
//     skipped (an allocation or memmove is charged to its caller), a
//     syscall or poller frame makes it syscall, a repro/internal/...
//     frame charges the package named by its last path element, and a
//     frame of this benchmark's own package main charges bench;
//   - anything left is other.
func cpuShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, pkg := range cpuPackages {
		known[pkg] = true
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			stack = append(stack, p.locFuncs[loc]...)
		}
		bucket := classify(stack)
		if !known[bucket] {
			bucket = "other"
		}
		shares[bucket] += float64(s.value)
		total += float64(s.value)
	}
	for _, pkg := range cpuPackages {
		shares[pkg] = ratio(shares[pkg], total)
	}
	return shares, nil
}

var (
	gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
		"runtime.bgscavenge", "runtime.gcStart", "runtime.markroot", "runtime.gcDrain",
		"runtime.sweepone", "runtime.(*sweepLocked).sweep"}
	schedFuncs = []string{"runtime.schedule", "runtime.findRunnable", "runtime.park_m",
		"runtime.mcall", "runtime.gopark", "runtime.goready", "runtime.ready",
		"runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.notesleep",
		"runtime.notewakeup", "runtime.futexsleep", "runtime.futexwakeup",
		"runtime.netpoll", "runtime.sysmon", "runtime.usleep", "runtime.osyield",
		"runtime.goexit0", "runtime.newproc", "runtime.runqgrab", "runtime.stealWork",
		"runtime.checkTimers", "runtime.entersyscall", "runtime.exitsyscall"}
)

// classify names the ledger bucket of one stack (leaf first).
func classify(stack []string) string {
	for _, f := range stack {
		for _, g := range gcFuncs {
			if f == g {
				return "runtime.gc"
			}
		}
	}
	for _, f := range stack {
		pkg := funcPackage(f)
		switch {
		case pkg == "runtime" || strings.HasPrefix(pkg, "internal/runtime/") && pkg != "internal/runtime/syscall":
			for _, s := range schedFuncs {
				if f == s {
					return "runtime.sched"
				}
			}
		case pkg == "syscall" || pkg == "internal/poll" || pkg == "internal/runtime/syscall":
			return "syscall"
		case strings.HasPrefix(pkg, "repro/internal/"):
			return pkg[strings.LastIndexByte(pkg, '/')+1:]
		case pkg == "main" || pkg == "repro/padbench":
			return "bench"
		}
	}
	return "other"
}

// funcPackage returns the import path of a symbol such as
// "repro/internal/sim.(*Stepper).Advance" or "runtime.mallocgc".
func funcPackage(sym string) string {
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return sym
	}
	return sym[:slash+1+dot]
}

// profile is the part of a pprof profile the ledger needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string // location id -> function names, leaf first
}

type profSample struct {
	locs  []uint64
	value int64 // last sample value (CPU nanoseconds)
}

// parseProfile decodes the protobuf fields of profile.proto the ledger
// reads: samples (2), locations (4), functions (5), strings (6).
func parseProfile(b []byte) (*profile, error) {
	var (
		samples   []profSample
		locLines  = map[uint64][]uint64{} // location -> function ids
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
	)
	err := fields(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			var vals []int64
			if err := fields(data, func(n, wt int, v uint64, d []byte) error {
				switch n {
				case 1:
					return packed(wt, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return packed(wt, v, d, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = vals[len(vals)-1]
			}
			samples = append(samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := fields(data, func(n, wt int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return fields(d, func(n, wt int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := fields(data, func(n, wt int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcNames[id] = name
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for loc, fns := range locLines {
		for _, fn := range fns {
			idx := funcNames[fn]
			if idx < 0 || int(idx) >= len(strs) {
				return nil, errors.New("profile: function name out of string table")
			}
			p.locFuncs[loc] = append(p.locFuncs[loc], strs[idx])
		}
	}
	return p, nil
}

// fields walks one protobuf message, calling fn per field with the
// varint value (wire types 0, 1, 5) or the payload (wire type 2).
func fields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed reads a repeated varint field in either encoding.
func packed(wt int, v uint64, data []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		add(x)
		data = data[n:]
	}
	return nil
}
