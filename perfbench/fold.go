package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The traced pass records a CPU profile (runtime/pprof) and folds each
// sample into one layer. This splits the time that has no public call
// seam inside it: the engine residual of the routers and the whole
// fabric.

// layerRule maps a Go package, or a package and everything below it
// (tree), to a layer.
type layerRule struct {
	path  string
	tree  bool
	layer string
}

// layerRules covers the root package and every package under
// packetshader/internal; packages the benchmark never runs go to
// "other". Each package matches exactly one rule (see the tests).
var layerRules = []layerRule{
	{"packetshader", false, "core"}, // the facade's Instance.Run
	{"packetshader/internal/sim", true, "sim"},
	{"packetshader/internal/hw", true, "hw"},
	{"packetshader/internal/model", true, "hw"},
	{"packetshader/internal/pktio", true, "pktio"},
	{"packetshader/internal/mem", true, "pktio"},
	{"packetshader/internal/core", true, "core"},
	{"packetshader/internal/faults", true, "core"},
	{"packetshader/internal/apps", true, "apps"},
	{"packetshader/internal/openflow", true, "apps"},
	{"packetshader/internal/modular", true, "apps"},
	{"packetshader/internal/lookup", true, "lookup"},
	{"packetshader/internal/ipsec", true, "ipsec"},
	{"packetshader/internal/packet", true, "packet"},
	{"packetshader/internal/pcap", true, "packet"},
	{"packetshader/internal/pktgen", true, "pktgen"},
	{"packetshader/internal/route", true, "route"},
	{"packetshader/internal/ctrl", true, "ctrl"},
	{"packetshader/internal/cluster", true, "cluster"},
	{"packetshader/internal/obs", true, "obs"},
	{"packetshader/internal/experiments", true, "other"},
	{"packetshader/internal/analysis", true, "other"},
	// This benchmark's own code: "main" in the built command, its
	// import path in a test binary.
	{"main", false, "bench"},
	{"packetshader/perfbench", false, "bench"},
}

// foldLayers lists every layer foldStack can return, in report order.
var foldLayers = []string{
	"sim", "hw", "pktio", "core", "apps", "lookup", "ipsec", "packet",
	"pktgen", "route", "ctrl", "cluster", "obs",
	"runtime", "runtime_sched", "gc", "bench", "other",
}

// packageOf returns the import path of a symbol name as the profile
// writes it, e.g. "packetshader/internal/sim.(*Env).Run" gives
// "packetshader/internal/sim".
func packageOf(fn string) string {
	s := fn
	if i := strings.IndexAny(s, "[("); i >= 0 {
		s = s[:i]
	}
	slash := strings.LastIndex(s, "/")
	if dot := strings.Index(s[slash+1:], "."); dot >= 0 {
		return s[:slash+1+dot]
	}
	return s
}

// layerOfPackage returns the layer of a package, or "" for packages
// outside the repository (the standard library).
func layerOfPackage(pkg string) string {
	for _, r := range layerRules {
		if pkg == r.path || (r.tree && strings.HasPrefix(pkg, r.path+"/")) {
			return r.layer
		}
	}
	return ""
}

// gcFrame reports a frame that only garbage collection runs under.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone", "runtime.GC"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// schedFrames are the runtime functions of goroutine hand-off: channel
// operations, parking and waking, and the scheduler loop.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.gopark": true, "runtime.goready": true,
	"runtime.ready": true, "runtime.chansend": true, "runtime.chanrecv": true,
	"runtime.chansend1": true, "runtime.chanrecv1": true, "runtime.chanrecv2": true,
	"runtime.selectgo": true, "runtime.futex": true, "runtime.notesleep": true,
	"runtime.notewakeup": true, "runtime.stopm": true, "runtime.startm": true,
	"runtime.wakep": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
	"runtime.goexit0": true, "runtime.newproc": true, "runtime.runqgrab": true,
	"runtime.stealWork": true, "runtime.usleep": true, "runtime.osyield": true,
	"runtime.handoffp": true, "runtime.entersyscallblock": true,
}

// foldStack assigns one sample to a layer. stack lists function names
// from the leaf outwards. Time under a GC worker or assist is "gc";
// time in the scheduler or a channel hand-off is "runtime_sched";
// other time whose leaf is in the runtime (allocation, map access,
// copying) is "runtime"; otherwise the sample belongs to the innermost
// repository frame, so a standard-library leaf counts for the layer
// that called it.
func foldStack(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if schedFrames[fn] {
			return "runtime_sched"
		}
	}
	if len(stack) > 0 && runtimePackage(packageOf(stack[0])) {
		return "runtime"
	}
	for _, fn := range stack {
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

func runtimePackage(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// foldProfile decodes a gzipped pprof CPU profile and returns the share
// of sampled CPU time per layer.
func foldProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locLines[loc] {
				stack = append(stack, p.funcName[fid])
			}
		}
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		byLayer[foldStack(stack)] += v
		total += v
	}
	shares := map[string]float64{}
	for _, l := range foldLayers {
		if total > 0 {
			shares[l] = byLayer[l] / total
		} else {
			shares[l] = 0
		}
	}
	return shares, nil
}

// A minimal decoder for the parts of profile.proto a fold needs:
// samples (location ids, values), locations (their lines' function
// ids, innermost first) and functions (name string index).

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	samples  []profSample
	locLines map[uint64][]uint64 // location id -> function ids
	funcName map[uint64]string
}

var errProto = errors.New("cpu profile: malformed protobuf")

type pbuf struct{ b []byte }

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads one key and returns its number, wire type, varint value
// (wire type 0) or payload (wire type 2).
func (p *pbuf) field() (num int, wire int, v uint64, payload []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if uint64(len(p.b)) < n {
				return 0, 0, 0, nil, errProto
			}
			payload, p.b = p.b[:n], p.b[n:]
		}
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		err = errProto
	}
	return num, wire, v, payload, err
}

// repeatedVarints appends one element (wire type 0) or a packed run
// (wire type 2) of a repeated integer field.
func repeatedVarints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	pb := pbuf{payload}
	for len(pb.b) > 0 {
		x, err := pb.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(raw []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcStr := map[uint64]uint64{}
	top := pbuf{raw}
	for len(top.b) > 0 {
		num, wire, _, payload, err := top.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // sample
			var s profSample
			var vals []uint64
			sb := pbuf{payload}
			for len(sb.b) > 0 {
				n, w, v, pl, err := sb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					if s.locs, err = repeatedVarints(s.locs, w, v, pl); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedVarints(vals, w, v, pl); err != nil {
						return nil, err
					}
				}
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fids []uint64
			lb := pbuf{payload}
			for len(lb.b) > 0 {
				n, _, v, pl, err := lb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // line
					ln := pbuf{pl}
					for len(ln.b) > 0 {
						m, _, fv, _, err := ln.field()
						if err != nil {
							return nil, err
						}
						if m == 1 {
							fids = append(fids, fv)
						}
					}
				}
			}
			p.locLines[id] = fids
		case 5: // function
			var id, name uint64
			fb := pbuf{payload}
			for len(fb.b) > 0 {
				n, _, v, _, err := fb.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcStr[id] = name
		case 6: // string table
			if wire != 2 {
				return nil, errProto
			}
			strs = append(strs, string(payload))
		}
	}
	for id, si := range funcStr {
		if si >= uint64(len(strs)) {
			return nil, errProto
		}
		p.funcName[id] = strs[si]
	}
	return p, nil
}
