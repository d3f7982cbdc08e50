package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/hw/nic"
	"packetshader/internal/obs"
	"packetshader/internal/packet"
)

// The traced pass times calls through the program's public seams from
// the outside: the core.App callbacks, the NIC frame source, the TX
// completion observer and the control plane's FIB applier. No call is
// nested inside another one's interval (the simulator runs one process
// at a time, and the seams do not call each other), so the wrapped
// times add up, and slice wall time minus their sum is the engine's
// own time: sim, hw, pktio and core.

var epoch = time.Now()

// nowNS reads the monotonic clock.
func nowNS() int64 { return int64(time.Since(epoch)) }

// span accumulates the wall time, calls and work items of one seam.
type span struct{ ns, calls, items int64 }

func (s *span) add(start int64, items int) {
	s.ns += nowNS() - start
	s.calls++
	s.items += int64(items)
}

// minus returns the accumulation since an earlier reading o.
func (s span) minus(o span) span { return span{s.ns - o.ns, s.calls - o.calls, s.items - o.items} }

// Per-packet seams (Fill and the TX observer) are timed on one call in
// timeEvery, scaled up: reading the clock costs about as much as a
// Fill, so timing every call would double what it measures.
const timeEvery = 8

// timed counts one call of a per-packet seam and reports whether this
// call is to be timed.
func (s *span) timed() bool {
	s.calls++
	s.items++
	return s.calls%timeEvery == 0
}

// addScaled adds a timed call's wall time for all timeEvery calls it
// stands for.
func (s *span) addScaled(start int64) { s.ns += (nowNS() - start) * timeEvery }

// probe holds the per-seam totals of one traced assembly.
type probe struct {
	pre, kernel, post, cpu span
	fill, sink, apply      span
	// cryptoBytes counts frame bytes handed to RunKernel and CPUWork
	// (the bytes an IPsec gateway encrypts and authenticates).
	cryptoBytes int64
	// cells and applyErrs are what ApplyRoutes returned.
	cells, applyErrs int64
}

// wrapped returns the wall time spent inside every wrapped seam.
func (p *probe) wrapped() int64 {
	return p.pre.ns + p.kernel.ns + p.post.ns + p.cpu.ns + p.fill.ns + p.sink.ns + p.apply.ns
}

// timedApp times every core.App callback.
type timedApp struct {
	core.App
	p *probe
}

func frameBytes(c *core.Chunk) int64 {
	var n int64
	for _, b := range c.Bufs {
		n += int64(len(b.Data))
	}
	return n
}

func (a *timedApp) PreShade(c *core.Chunk) core.PreResult {
	t := nowNS()
	r := a.App.PreShade(c)
	a.p.pre.add(t, len(c.Bufs))
	return r
}

func (a *timedApp) RunKernel(c *core.Chunk) {
	a.p.cryptoBytes += frameBytes(c)
	t := nowNS()
	a.App.RunKernel(c)
	a.p.kernel.add(t, len(c.Bufs))
}

func (a *timedApp) PostShade(c *core.Chunk) float64 {
	t := nowNS()
	r := a.App.PostShade(c)
	a.p.post.add(t, len(c.Bufs))
	return r
}

func (a *timedApp) CPUWork(c *core.Chunk) float64 {
	a.p.cryptoBytes += frameBytes(c)
	t := nowNS()
	r := a.App.CPUWork(c)
	a.p.cpu.add(t, len(c.Bufs))
	return r
}

// ReportMetrics forwards to the wrapped application, so a registry
// dump reads the same as without the wrapper.
func (a *timedApp) ReportMetrics(reg *obs.Registry) {
	if mr, ok := a.App.(core.MetricsReporter); ok {
		mr.ReportMetrics(reg)
	}
}

// timedSource times nic.FrameSource.Fill.
type timedSource struct {
	nic.FrameSource
	p *probe
}

func (s *timedSource) Fill(b *packet.Buf, port, queue int, seq uint64) {
	if !s.p.fill.timed() {
		s.FrameSource.Fill(b, port, queue, seq)
		return
	}
	t := nowNS()
	s.FrameSource.Fill(b, port, queue, seq)
	s.p.fill.addScaled(t)
}

// timedFIB times ctrl.FIBApplier.ApplyRoutes.
type timedFIB struct {
	ctrl.FIBApplier
	p *probe
}

func (f *timedFIB) ApplyRoutes(batch []ctrl.RouteUpdate) (uint64, error) {
	t := nowNS()
	cells, err := f.FIBApplier.ApplyRoutes(batch)
	f.p.apply.add(t, len(batch))
	f.p.cells += int64(cells)
	if err != nil {
		f.p.applyErrs++
	}
	return cells, err
}

// rtSnapshot is a reading of the Go runtime's own counters.
type rtSnapshot struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU, idleCPU float64
	sched                    *metrics.Float64Histogram
	cpuNS                    int64 // process user+system CPU time
	at                       time.Time
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/sched/latencies:seconds",
}

func readRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU time on failure only dims cpu_util
	return rtSnapshot{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		idleCPU:      s[4].Value.Float64(),
		sched:        s[5].Value.Float64Histogram(),
		cpuNS:        ru.Utime.Nano() + ru.Stime.Nano(),
		at:           time.Now(),
	}
}

// readGauge reads one uint64 runtime metric.
func readGauge(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// histQuantile returns the q-quantile of the bucket-count difference
// b-a, as the upper edge of the bucket holding it.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	d := make([]uint64, len(b.Counts))
	for i := range b.Counts {
		d[i] = b.Counts[i] - a.Counts[i]
		total += d[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(q * float64(total))
	var acc uint64
	for i, c := range d {
		acc += c
		if acc > want || acc == total {
			hi := b.Buckets[i+1]
			if hi > 1e300 { // +Inf upper edge: report the lower one
				hi = b.Buckets[i]
			}
			return hi
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// runtimeLayer derives the runtime per-layer metrics between two
// snapshots; work is the number of packets (forwards for the fabric)
// the interval processed.
func runtimeLayer(a, b rtSnapshot, work float64, peak uint64, set func(string, float64, string)) {
	if work <= 0 {
		work = 1
	}
	set("runtime.alloc_bytes_per_pkt", float64(b.allocBytes-a.allocBytes)/work, "B")
	set("runtime.allocs_per_pkt", float64(b.allocObjects-a.allocObjects)/work, "count")
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	gcFrac := 0.0
	if busy > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / busy
	}
	set("runtime.gc_cpu_frac", gcFrac, "frac")
	set("runtime.sched_latency_p50_us", histQuantile(a.sched, b.sched, 0.50)*1e6, "us")
	set("runtime.sched_latency_p99_us", histQuantile(a.sched, b.sched, 0.99)*1e6, "us")
	wall := b.at.Sub(a.at).Seconds()
	util := 0.0
	if wall > 0 {
		util = float64(b.cpuNS-a.cpuNS) / 1e9 / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	set("runtime.cpu_util", util, "frac")
	set("runtime.goroutines_peak", float64(peak), "count")
}

// goroutineWatch samples the live goroutine count until stopped and
// keeps the peak.
type goroutineWatch struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func watchGoroutines() *goroutineWatch {
	w := &goroutineWatch{stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			if n := readGauge("/sched/goroutines:goroutines"); n > w.peak {
				w.peak = n
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// done stops the sampler and returns the peak.
func (w *goroutineWatch) done() uint64 {
	close(w.stop)
	w.wg.Wait()
	return w.peak
}
