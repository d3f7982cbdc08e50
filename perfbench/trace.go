package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"packetshader/internal/sim"
)

// layerUnits indexes perLayerMetrics by name.
var layerUnits = func() map[string]string {
	m := map[string]string{}
	for _, d := range perLayerMetrics {
		m[d.name] = d.unit
	}
	return m
}()

// setLayer records one per-layer metric under its listed unit.
func setLayer(out *outcome, name string, v float64) {
	unit, ok := layerUnits[name]
	if !ok {
		panic("perfbench: unlisted per-layer metric " + name)
	}
	out.set(name, v, unit)
}

// profiler records a CPU profile and the Go runtime's counters over the
// traced slices.
type profiler struct {
	buf   bytes.Buffer
	rt    rtSnapshot
	watch *goroutineWatch
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p.watch = watchGoroutines()
	p.rt = readRuntime()
	return p, nil
}

// stop ends the recording and sets the runtime and fold metrics; work
// is the packets (or fabric forwards) processed meanwhile.
func (p *profiler) stop(out *outcome, work float64) error {
	end := readRuntime()
	peak := p.watch.done()
	pprof.StopCPUProfile()
	runtimeLayer(p.rt, end, work, peak, func(n string, v float64, _ string) { setLayer(out, n, v) })
	shares, err := foldProfile(p.buf.Bytes())
	if err != nil {
		return err
	}
	for l, v := range shares {
		setLayer(out, "fold."+l+"_share", v)
	}
	return nil
}

// busyNames are the sim.Server name prefixes of each hardware
// occupancy metric, per NUMA node or port.
var busyNames = []struct {
	metric string
	names  []string
}{
	{"hw.ioh_up_busy", []string{"ioh0-up", "ioh1-up"}},
	{"hw.ioh_down_busy", []string{"ioh0-down", "ioh1-down"}},
	{"hw.gpu_h2d_busy", []string{"gpu0-down", "gpu1-down"}},
	{"hw.gpu_exec_busy", []string{"gpu0-exec", "gpu1-exec"}},
	{"hw.gpu_d2h_busy", []string{"gpu0-up", "gpu1-up"}},
	{"hw.tx_wire_busy", []string{"tx0-", "tx1-", "tx2-", "tx3-", "tx4-", "tx5-", "tx6-", "tx7-"}},
}

// busy reads the accumulated busy time of every occupancy metric.
func (g *rig) busy() map[string]sim.Duration {
	m := map[string]sim.Duration{}
	for _, b := range busyNames {
		for _, n := range b.names {
			m[b.metric] += g.sampler.BusyByName(n)
		}
	}
	return m
}

// traceRouter runs an untraced pass and then a traced pass of a router
// workload, each on half the budget, and reports the per-layer metrics
// of the traced one.
func traceRouter(spec *routerSpec, opt options, budget time.Duration, out *outcome) error {
	zeroPerLayer(out)
	plain, err := assemble(spec, opt.seed, false)
	if err != nil {
		return err
	}
	ps0, err := plain.runPass(budget/2, out, nil, nil)
	plain.close()
	if err != nil {
		return err
	}
	runtime.GC()

	g, err := assemble(spec, opt.seed, true)
	if err != nil {
		return err
	}
	defer g.close()
	var (
		prof         *profiler
		perr         error
		p0, p1       probe
		c0, c1       counters
		busy0, busy1 map[string]sim.Duration
		simT0, simT1 sim.Time
	)
	begin := func() {
		p0 = *g.probe
		c0 = g.counters()
		busy0 = g.busy()
		simT0 = g.inst.Env.Now()
		prof, perr = startProfiler()
	}
	end := func() {
		p1 = *g.probe
		c1 = g.counters()
		busy1 = g.busy()
		simT1 = g.inst.Env.Now()
		if perr == nil {
			perr = prof.stop(out, float64(p1.fill.calls-p0.fill.calls))
		}
	}
	ps1, err := g.runPass(budget/2, out, begin, end)
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	if a, b := fmt.Sprintf("%+v", ps0.sim), fmt.Sprintf("%+v", ps1.sim); a != b {
		out.fail("traced simulated results differ from untraced:\n  untraced %s\n  traced   %s", a, b)
	}

	pre, ker, post, cpu := p1.pre.minus(p0.pre), p1.kernel.minus(p0.kernel), p1.post.minus(p0.post), p1.cpu.minus(p0.cpu)
	fill, sink, apply := p1.fill.minus(p0.fill), p1.sink.minus(p0.sink), p1.apply.minus(p0.apply)
	wall := ps1.wallSum
	wrapped := float64(p1.wrapped() - p0.wrapped())
	pkts := float64(fill.calls)
	per := func(ns, n int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / float64(n)
	}
	share := func(ns int64) float64 { return float64(ns) / wall }

	setLayer(out, "engine.ns_per_pkt", (wall-wrapped)/max(pkts, 1))
	setLayer(out, "engine.self_share", (wall-wrapped)/wall)
	setLayer(out, "apps.share", share(pre.ns+ker.ns+post.ns+cpu.ns))
	setLayer(out, "apps.preshade_ns_per_pkt", per(pre.ns, pre.items))
	setLayer(out, "apps.kernel_ns_per_pkt", per(ker.ns, ker.items))
	setLayer(out, "apps.postshade_ns_per_pkt", per(post.ns, post.items))
	setLayer(out, "apps.cpuwork_ns_per_pkt", per(cpu.ns, cpu.items))
	setLayer(out, "apps.kernel_share", share(ker.ns))
	setLayer(out, "apps.pkts_per_kernel_call", per(ker.items, ker.calls))
	if spec.ipsec {
		setLayer(out, "ipsec.ns_per_byte", per(ker.ns+cpu.ns, p1.cryptoBytes-p0.cryptoBytes))
	}
	setLayer(out, "pktgen.fill_ns_per_pkt", per(fill.ns, fill.calls))
	setLayer(out, "pktgen.fill_share", share(fill.ns))
	setLayer(out, "pktgen.sink_ns_per_pkt", per(sink.ns, sink.calls))
	setLayer(out, "pktgen.sink_share", share(sink.ns))
	setLayer(out, "route.generate_s", g.generate.Seconds())
	setLayer(out, "lookup.build_s", g.build.Seconds())
	setLayer(out, "core.assemble_s", g.assemble.Seconds())
	setLayer(out, "ctrl.apply_ns_per_route", per(apply.ns, apply.items))
	setLayer(out, "ctrl.apply_share", share(apply.ns))
	setLayer(out, "lookup.cells_per_route", per(p1.cells-p0.cells, apply.items))
	setLayer(out, "ctrl.routes_applied", float64(apply.items))
	setLayer(out, "ctrl.errors", float64(p1.applyErrs-p0.applyErrs))

	hist := func(name string, permille int) float64 {
		return float64(g.reg.Histogram(name, 0).Quantile(permille)) / float64(sim.Microsecond)
	}
	mean := func(name string) float64 {
		h := g.reg.Histogram(name, 0)
		if h.Count() == 0 {
			return 0
		}
		return float64(h.Sum()) / float64(h.Count())
	}
	setLayer(out, "core.gpu_queue_wait_p50_us", hist("core.gpu_queue_wait", 500))
	setLayer(out, "core.gpu_queue_wait_p99_us", hist("core.gpu_queue_wait", 990))
	setLayer(out, "core.chunk_latency_p50_us", hist("core.chunk_latency", 500))
	setLayer(out, "core.chunk_latency_p99_us", hist("core.chunk_latency", 990))
	setLayer(out, "core.chunk_packets_mean", mean("core.chunk_packets"))
	setLayer(out, "core.launch_threads_mean", mean("core.launch_threads"))
	setLayer(out, "core.gpu_launches", float64(c1.launches-c0.launches))
	setLayer(out, "core.app_drops", float64(c1.appDrops-c0.appDrops))
	offered := float64((c1.rx + c1.rxDropped) - (c0.rx + c0.rxDropped))
	if offered > 0 {
		setLayer(out, "pktio.rx_dropped_frac", float64(c1.rxDropped-c0.rxDropped)/offered)
	}
	elapsed := float64(simT1 - simT0)
	for _, b := range busyNames {
		if elapsed > 0 {
			setLayer(out, b.metric, float64(busy1[b.metric]-busy0[b.metric])/(elapsed*float64(len(b.names))))
		}
	}
	simRate0 := float64(spec.slice) / median(ps0.costs)
	simRate1 := float64(spec.slice) / median(ps1.costs)
	setLayer(out, "trace.overhead_frac", 1-simRate1/simRate0)
	out.details["untraced_sim_rate"] = simRate0 / float64(sim.Nanosecond)
	out.details["traced_sim_rate"] = simRate1 / float64(sim.Nanosecond)
	out.details["untraced_slices"] = len(ps0.walls)
	out.details["traced_slices"] = len(ps1.walls)
	out.details["histograms"] = "core.* quantiles cover warm-up and traced slices (obs.Registry cannot be reset)"
	return nil
}
