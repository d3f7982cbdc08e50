package main

import (
	"encoding/json"
	"fmt"
	"syscall"
	"unsafe"
)

// Host-time figures are taken in CPU time and expressed in units of a
// fixed reference kernel's speed.
//
// CPU time, not wall time: the benchmark runs at GOMAXPROCS 1 (see
// main), so the process's CPU time is the simulation's, and on a
// virtual machine it leaves out the time the hypervisor gave the CPU to
// someone else (steal time), which wall time counts.
//
// Reference units: on a shared host the machine itself changes speed by
// tens of percent over seconds and minutes, with the other tenants'
// load on the shared caches, memory and cores. Every simulation slice
// and op is bracketed by runs of a fixed kernel of code outside the
// program, and its CPU time is divided by theirs. The program does not
// run inside the kernel, so a change in the program changes the ratio
// in full, while a change in host speed moves both sides.
//
// The kernel is ordinary Go work of the kind the simulator is made of:
// updates and lookups in a runtime map of 2^16 entries (hashing and
// scattered memory over a few MiB) and encoding/json round trips of a
// small document (reflection, a large instruction footprint, small
// allocations). On a 2-core Xeon KVM guest, against each slice's CPU
// time over the same seconds, it tracked the host's slow and fast
// periods with a slope of about 0.8 on both the IPv4 and the fabric
// workload (correlation 0.82 to 0.91); with the other kernels tried (a
// binary-heap event queue, scattered table reads, goroutine ping-pong)
// the ratio spread two to three times as much between runs.
//
// refKernelNS, the kernel's CPU time on that host when it is quiet,
// turns the ratio back into nanoseconds: a figure in ref_ns or ref_ms
// is the time the work would take there. The constant only sets the
// scale; comparisons between runs do not depend on it.
const refKernelNS = 2.1e6 // 2-core Intel Xeon (Sapphire Rapids) KVM guest, Go 1.24

const (
	kernelKeys       = 1 << 16
	kernelMapOps     = 10_000
	kernelRoundTrips = 5
)

// clockProcessCPU is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPU = 2

// cpuNow returns the CPU time the process has used, in nanoseconds.
func cpuNow() int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic("perfbench: clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + e.Error())
	}
	return ts.Nano()
}

// refKernel is the reference kernel with its fixed inputs.
type refKernel struct {
	table map[uint64]uint64
	doc   []byte // JSON text of a kernelDoc
	x     uint64 // key generator
	sink  int
}

type kernelDoc struct {
	Name  string
	Items []kernelItem
	Tags  map[string]int
}

type kernelItem struct {
	ID    int
	Label string
	Vals  []float64
	Ok    bool
}

func newRefKernel() (*refKernel, error) {
	d := kernelDoc{Name: "reference", Tags: map[string]int{}}
	for i := 0; i < 60; i++ {
		d.Items = append(d.Items, kernelItem{ID: i, Label: fmt.Sprintf("item-%d", i), Vals: []float64{float64(i), 1.5, 2.25}, Ok: i%2 == 0})
		d.Tags[fmt.Sprintf("tag-%d", i)] = i
	}
	doc, err := json.Marshal(d)
	if err != nil {
		return nil, err
	}
	k := &refKernel{table: make(map[uint64]uint64, kernelKeys), doc: doc, x: 88172645463325252}
	for i := uint64(0); i < kernelKeys; i++ {
		k.table[i] = i
	}
	return k, nil
}

// run executes the kernel once and returns its CPU time in nanoseconds.
func (k *refKernel) run() float64 {
	t := cpuNow()
	x := k.x
	for i := 0; i < kernelMapOps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[x%kernelKeys] += x
		k.sink += int(k.table[(x>>20)%kernelKeys])
	}
	k.x = x
	for i := 0; i < kernelRoundTrips; i++ {
		var d kernelDoc
		if err := json.Unmarshal(k.doc, &d); err != nil {
			panic("perfbench: reference kernel: " + err.Error()) // the document is the kernel's own
		}
		b, err := json.Marshal(&d)
		if err != nil {
			panic("perfbench: reference kernel: " + err.Error())
		}
		k.sink += len(b)
	}
	return float64(cpuNow() - t)
}

// speedMeter times units of work in reference nanoseconds: the CPU
// time of each unit over the mean of the kernel runs just before and
// just after it, times refKernelNS.
type speedMeter struct {
	k        *refKernel
	last     float64   // CPU ns of the kernel run that closed the previous unit
	kernelNS []float64 // every closing kernel run
}

func newSpeedMeter() (*speedMeter, error) {
	k, err := newRefKernel()
	if err != nil {
		return nil, err
	}
	k.run() // warm the JSON codec's type cache
	return &speedMeter{k: k}, nil
}

// measure runs work and returns its cost in reference nanoseconds and
// its CPU time in nanoseconds.
func (m *speedMeter) measure(work func()) (refNS, cpuNS float64) {
	before := m.last
	if before == 0 {
		before = m.k.run()
	}
	t := cpuNow()
	work()
	cpuNS = float64(cpuNow() - t)
	m.last = m.k.run()
	m.kernelNS = append(m.kernelNS, m.last)
	return cpuNS / ((before + m.last) / 2) * refKernelNS, cpuNS
}

// restart makes the next unit open with a fresh kernel run: units
// measured after a pause are not bracketed by a stale reading.
func (m *speedMeter) restart() { m.last = 0 }

// kernelMS is the median kernel CPU time so far, in milliseconds: the
// host's speed during the run, for the report line.
func (m *speedMeter) kernelMS() float64 { return median(m.kernelNS) / 1e6 }

// meter is the process's speed meter; the benchmark measures from one
// goroutine.
var meter *speedMeter

// hostMeter returns the speed meter, made on first use.
func hostMeter() (*speedMeter, error) {
	if meter == nil {
		m, err := newSpeedMeter()
		if err != nil {
			return nil, err
		}
		meter = m
	}
	return meter, nil
}

// dropMeter lets the kernel's map be collected, so that a heap reading
// taken next is the program's alone. The next hostMeter call makes a
// new meter.
func dropMeter() { meter = nil }
