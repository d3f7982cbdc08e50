package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"packetshader"
	"packetshader/internal/apps"
	"packetshader/internal/core"
	"packetshader/internal/ctrl"
	"packetshader/internal/hw/nic"
	"packetshader/internal/ipsec"
	"packetshader/internal/model"
	"packetshader/internal/obs"
	"packetshader/internal/packet"
	"packetshader/internal/pktgen"
	"packetshader/internal/route"
	"packetshader/internal/sim"

	lookupv4 "packetshader/internal/lookup/ipv4"
)

// routerSpec fixes one single-box router workload.
type routerSpec struct {
	ipsec    bool // the ESP gateway; otherwise IPv4 forwarding
	prefixes int  // synthetic BGP table size (IPv4 only)
	fib      core.FIBUpdateMode
	pktSize  int
	offered  float64 // Gbps per port
	streams  int     // CUDA streams (concurrent copy and execution); 0 means 1
	warmup   sim.Duration
	slice    sim.Duration
	// window is the number of slices, right after warm-up, whose
	// simulated results are reported. It is fixed, so simulated
	// metrics repeat exactly whatever the host speed; the timed slices
	// go on past it until the wall budget is spent.
	window int
	// flap, when set, is the control-plane churn of the route-flap
	// workload.
	flap *flapSpec
}

var (
	specIPv4 = routerSpec{
		prefixes: route.BGPTableSize, fib: core.FIBStatic, pktSize: 64, offered: 10,
		warmup: 3 * sim.Millisecond, slice: sim.Millisecond, window: 20,
	}
	// The gateway's host work arrives in lumps, one per GPU launch
	// (the cipher runs inside RunKernel); a 1.5 ms slice holds several,
	// so slice wall times are not multimodal and their median is steady.
	specIPsec = routerSpec{
		ipsec: true, pktSize: 1514, offered: 10, streams: 4,
		warmup: 15 * sim.Millisecond, slice: 1500 * sim.Microsecond, window: 8,
	}
	specFlap = routerSpec{
		prefixes: route.BGPTableSize, fib: core.FIBDynamic, pktSize: 64, offered: 4,
		warmup: 3 * sim.Millisecond, slice: sim.Millisecond, window: 20,
		flap: &flapSpec{routes: 1000, batches: 4},
	}
)

func runIPv4(opt options) (*outcome, error)      { return runRouter(&specIPv4, opt) }
func runIPsec(opt options) (*outcome, error)     { return runRouter(&specIPsec, opt) }
func runRouteFlap(opt options) (*outcome, error) { return runRouter(&specFlap, opt) }

// rig is one assembled router with the benchmark's observers attached.
type rig struct {
	spec    *routerSpec
	inst    *packetshader.Instance
	entries []route.Entry
	dyn     *lookupv4.DynamicTable
	fib     ctrl.FIBApplier
	tx      txObserver
	flap    *flapper

	// Set only in the traced assembly.
	probe   *probe
	reg     *obs.Registry
	sampler *obs.ServerSampler

	generate, build, assemble time.Duration
}

// startRun is the first Instance.Run, which starts the router; set-up
// includes it.
const startRun = sim.Nanosecond

// assemble builds a router the way the packetshader facade does, but
// from its parts, so the traced copy can wrap the public seams. With
// traced false it is call-for-call the facade's assembly (the tests
// hold the two to byte-identical reports).
func assemble(spec *routerSpec, seed int64, traced bool) (*rig, error) {
	g := &rig{spec: spec}
	t0 := time.Now()
	if spec.prefixes > 0 {
		g.entries = route.GenerateBGPTable(spec.prefixes, 64, seed)
	}
	t1 := time.Now()
	var app core.App
	if spec.ipsec {
		app = apps.NewIPsecGW(model.NumPorts)
	} else {
		fwd := &apps.IPv4Fwd{NumPorts: model.NumPorts}
		switch spec.fib {
		case core.FIBDynamic:
			dyn, err := lookupv4.NewDynamic(g.entries)
			if err != nil {
				return nil, err
			}
			fwd.Table, g.dyn, g.fib = &dyn.Table, dyn, &ctrl.DynamicFIB{T: dyn}
		default:
			tbl, err := lookupv4.Build(g.entries)
			if err != nil {
				return nil, err
			}
			fwd.Table = tbl
		}
		app = fwd
	}
	t2 := time.Now()

	env := sim.NewEnv()
	cfg := core.DefaultConfig()
	cfg.PacketSize = spec.pktSize
	cfg.OfferedGbpsPerPort = spec.offered
	cfg.FIBUpdate = spec.fib
	if spec.streams > 0 {
		cfg.Streams = spec.streams
	}
	var src nic.FrameSource = &pktgen.UDP4Source{Size: cfg.PacketSize, Seed: uint64(seed), Table: g.entries}
	if traced {
		g.probe = &probe{}
		app = &timedApp{App: app, p: g.probe}
		src = &timedSource{FrameSource: src, p: g.probe}
		if g.fib != nil {
			g.fib = &timedFIB{FIBApplier: g.fib, p: g.probe}
		}
		g.sampler = obs.NewServerSampler(nil)
		env.SetHooks(g.sampler)
	}
	r := core.New(env, cfg, app)
	if traced {
		g.reg = obs.NewRegistry()
		r.EnableObs(nil, g.reg)
	}
	sink := pktgen.NewLatencySink()
	g.tx.ipsec = spec.ipsec
	for _, p := range r.Engine.Ports {
		port := p.ID
		if traced {
			p.Tx.OnComplete = func(b *packet.Buf, at sim.Time) {
				if !g.probe.sink.timed() {
					sink.Observe(b, at)
					g.tx.observe(b, port, at)
					return
				}
				t := nowNS()
				sink.Observe(b, at)
				g.tx.observe(b, port, at)
				g.probe.sink.addScaled(t)
			}
		} else {
			p.Tx.OnComplete = func(b *packet.Buf, at sim.Time) {
				sink.Observe(b, at)
				g.tx.observe(b, port, at)
			}
		}
	}
	r.SetSource(src)
	g.inst = &packetshader.Instance{Env: env, Router: r, Sink: sink}
	g.inst.Run(startRun)
	t3 := time.Now()
	g.generate, g.build, g.assemble = t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	if spec.flap != nil {
		g.flap = newFlapper(spec.flap, spec.slice, g.entries, seed)
	}
	return g, nil
}

func (g *rig) close() { g.inst.Env.Close() }

// txObserver sees every transmitted frame: it records latency from
// generation to TX completion (exact, uncapped) while recording is on,
// and keeps a few frames per slice for the output checks.
type txObserver struct {
	ipsec     bool
	recording bool
	lat       []int64 // picoseconds
	n         uint64
	left      int // samples still wanted in this slice
	slice     int
	samples   []txSample
}

// txSample is one transmitted frame kept for checking.
type txSample struct {
	slice int
	port  int
	dst   packet.IPv4Addr // IPv4: the forwarded destination
	frame []byte          // IPsec: a copy of the ESP frame
}

const (
	samplesPerSlice = 2
	sampleEvery     = 1021 // TX frames between samples
)

func (t *txObserver) observe(b *packet.Buf, port int, at sim.Time) {
	if t.recording && b.GenAt != 0 && at >= b.GenAt {
		t.lat = append(t.lat, int64(at-b.GenAt))
	}
	t.n++
	if t.left == 0 || t.n%sampleEvery != 0 {
		return
	}
	t.left--
	s := txSample{slice: t.slice, port: port}
	if t.ipsec {
		s.frame = append([]byte(nil), b.Data...)
	} else if len(b.Data) >= packet.EthHdrLen+packet.IPv4HdrLen {
		s.dst = packet.IPv4Addr(binary.BigEndian.Uint32(b.Data[packet.EthHdrLen+16:]))
	}
	t.samples = append(t.samples, s)
}

// counters is a reading of the router's cumulative packet counters.
type counters struct {
	rx, rxDropped, txDropped, appDrops, launches uint64
}

func (g *rig) counters() counters {
	var c counters
	c.rx, c.rxDropped, _, c.txDropped = g.inst.Router.Engine.AggregateStats()
	c.appDrops = g.inst.Router.Stats.Drops
	c.launches = g.inst.Router.Stats.GPULaunches
	return c
}

// simResult is what one pass simulated over the fixed window. Two
// passes over the same inputs must produce equal simResults.
type simResult struct {
	reports                []string // every window slice's Report
	gbps, deliveredFrac    float64
	lossFrac               float64
	p50, p99, mean, max    float64 // latency, microseconds
	latSamples             int
	offered, lost, flapped uint64
}

// pass is the outcome of one run of a rig's slices.
type pass struct {
	sim     simResult
	costs   []float64 // reference ns per timed slice (see hostspeed.go)
	walls   []float64 // wall ns per timed slice
	wallSum float64
}

// runPass warms the router up, runs the fixed window, and keeps running
// timed slices until budget has passed. Checks that fail are recorded
// in out. begin and end, when set, run just before the first and just
// after the last slice (the traced pass takes its readings there).
func (g *rig) runPass(budget time.Duration, out *outcome, begin, end func()) (*pass, error) {
	spec := g.spec
	m, err := hostMeter()
	if err != nil {
		return nil, err
	}
	g.inst.Run(spec.warmup)
	m.restart()
	if begin != nil {
		begin()
	}
	ps := &pass{}
	var reports []packetshader.Report
	var first, last counters
	var flapped uint64
	start := time.Now()
	failedSlices := map[int]bool{}
	for i := 0; i < spec.window || time.Since(start) < budget; i++ {
		inWindow := i < spec.window
		if i == 0 {
			first = g.counters()
		}
		g.tx.recording = inWindow
		g.tx.slice = i
		if g.flap == nil { // the flap is checked by flapper.check
			g.tx.left = samplesPerSlice
		}
		var ctl *ctrl.Controller
		if g.flap != nil {
			var err error
			if ctl, err = g.flap.attach(g); err != nil {
				return nil, err
			}
		}
		var rep packetshader.Report
		var err error
		var wall time.Duration
		cost, _ := m.measure(func() {
			t := time.Now()
			rep, err = g.runSlice()
			wall = time.Since(t)
		})
		ps.costs = append(ps.costs, cost)
		ps.walls = append(ps.walls, float64(wall.Nanoseconds()))
		ps.wallSum += float64(wall.Nanoseconds())
		if err == nil && ctl != nil {
			if errs := ctl.Errors(); len(errs) > 0 {
				err = fmt.Errorf("control script: %v", errs)
			} else if want := 2 * g.flap.spec.batches; ctl.Fired() != want {
				err = fmt.Errorf("%d of %d route batches fired", ctl.Fired(), want)
			}
		}
		if err != nil {
			out.fail("slice %d: %v", i, err)
			failedSlices[i] = true
		}
		if inWindow {
			reports = append(reports, rep)
			if i == spec.window-1 {
				last = g.counters()
				if g.flap != nil {
					flapped = g.flap.applied
				}
			}
		}
	}
	if end != nil {
		end()
	}
	out.attempted += len(ps.walls)
	if g.flap != nil {
		out.attempted++
		if err := g.flap.check(g); err != nil {
			out.fail("%v", err)
		}
	}
	for _, bad := range g.checkSamples() {
		if !failedSlices[bad.slice] {
			out.fail("slice %d: %s", bad.slice, bad.why)
			failedSlices[bad.slice] = true
		}
	}
	ps.sim = g.summarize(reports, first, last)
	ps.sim.flapped = flapped
	return ps, nil
}

// runSlice is one operation: Instance.Run over one slice. A panic on
// this goroutine is reported as a failed operation.
func (g *rig) runSlice() (rep packetshader.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return g.inst.Run(g.spec.slice), nil
}

// summarize derives the simulated results of the window.
func (g *rig) summarize(reports []packetshader.Report, a, b counters) simResult {
	var s simResult
	for _, r := range reports {
		s.reports = append(s.reports, fmt.Sprintf("%+v", r))
		if g.spec.ipsec {
			s.gbps += r.InputGbps // §6.2.4 reports IPsec by input bytes
		} else {
			s.gbps += r.DeliveredGbps
		}
	}
	if len(reports) > 0 {
		s.gbps /= float64(len(reports))
	}
	s.offered = (b.rx + b.rxDropped) - (a.rx + a.rxDropped)
	s.lost = (b.rxDropped - a.rxDropped) + (b.txDropped - a.txDropped) + (b.appDrops - a.appDrops)
	if s.offered > 0 {
		s.lossFrac = float64(s.lost) / float64(s.offered)
	}
	s.deliveredFrac = 1 - s.lossFrac
	lat := g.tx.lat
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.latSamples = len(lat)
	if len(lat) > 0 {
		var sum float64
		for _, v := range lat {
			sum += float64(v)
		}
		us := float64(sim.Microsecond)
		s.p50 = float64(nearestRank(lat, 0.50)) / us
		s.p99 = float64(nearestRank(lat, 0.99)) / us
		s.mean = sum / float64(len(lat)) / us
		s.max = float64(lat[len(lat)-1]) / us
	}
	return s
}

// badSample is a transmitted frame that failed its check.
type badSample struct {
	slice int
	why   string
}

// checkSamples verifies the kept TX frames. IPv4: the egress port is
// the one the reference linear LPM gives for the destination (the
// route-flap workload keeps no frames: its table is checked by
// flapper.check). IPsec: the frame decapsulates under the peer SA.
func (g *rig) checkSamples() []badSample {
	var bad []badSample
	switch {
	case g.spec.ipsec:
		for _, s := range g.tx.samples {
			if err := checkESP(s.frame, s.port); err != nil {
				bad = append(bad, badSample{s.slice, err.Error()})
			}
		}
	case g.flap == nil:
		ref := route.NewLinearLPM(g.entries)
		for _, s := range g.tx.samples {
			hop := ref.Lookup(s.dst)
			if hop == route.NoRoute || int(hop)%model.NumPorts != s.port {
				bad = append(bad, badSample{s.slice, fmt.Sprintf("%v left port %d, reference next hop %d", s.dst, s.port, hop)})
			}
		}
	}
	g.tx.samples = nil
	return bad
}

// peerSA builds the receiving end of the gateway's SA for port i: the
// keys apps.NewIPsecGW derives, agreed out of band as a peer would.
func peerSA(i int) *ipsec.SA {
	enc := make([]byte, 16)
	auth := make([]byte, 20)
	for j := range enc {
		enc[j] = byte(i*16 + j)
	}
	for j := range auth {
		auth[j] = byte(i*20 + j + 1)
	}
	return ipsec.NewSA(uint32(0x1000+i), uint32(0xabcd0000+i), enc, auth,
		packet.IPv4Addr(0x0AFF0001+uint32(i)), packet.IPv4Addr(0x0A000001+uint32(i)))
}

// checkESP decapsulates one gateway output frame with the peer SA of
// its egress port and checks the inner packet is a valid IPv4 packet.
func checkESP(frame []byte, port int) error {
	if len(frame) < packet.EthHdrLen {
		return fmt.Errorf("port %d: short frame", port)
	}
	inner, err := peerSA(port).Decap(frame[packet.EthHdrLen:])
	if err != nil {
		return fmt.Errorf("port %d: decap: %w", port, err)
	}
	if len(inner) < packet.IPv4HdrLen || inner[0]>>4 != 4 || !packet.VerifyIPv4Checksum(inner) {
		return fmt.Errorf("port %d: decapsulated packet is not valid IPv4", port)
	}
	return nil
}

// Set-up is repeated at least minSetups times and until setupBudget of
// set-up CPU time has accumulated (at most maxSetups times), and its
// median reported: a cheap set-up gets enough repetitions to be steady.
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 1.5 * float64(time.Second)
)

// setups times build with the speed meter until the set-up rule above
// is met and returns the median cost in reference seconds. discard,
// untimed, runs before every build but the first.
func setups(build func() error, discard func()) (float64, error) {
	m, err := hostMeter()
	if err != nil {
		return 0, err
	}
	var costs []float64
	var total float64
	for len(costs) < minSetups || (total < setupBudget && len(costs) < maxSetups) {
		if len(costs) > 0 {
			discard()
		}
		m.restart()
		cost, cpu := m.measure(func() { err = build() })
		if err != nil {
			return 0, err
		}
		costs = append(costs, cost)
		total += cpu
	}
	return median(costs) / 1e9, nil
}

// setupRepeated assembles the workload repeatedly and returns the
// median set-up cost and the last assembly; the others are closed.
func setupRepeated(spec *routerSpec, seed int64) (*rig, float64, error) {
	var g *rig
	setupS, err := setups(func() (err error) {
		g, err = assemble(spec, seed, false)
		return err
	}, func() {
		g.close()
		g = nil
		// Every set-up starts as the first one in a fresh process
		// does, with the heap's free memory returned to the OS: how
		// much of it the background scavenger had returned otherwise
		// varies from run to run, and with it the page faults.
		debug.FreeOSMemory()
	})
	if err != nil {
		return nil, 0, err
	}
	return g, setupS, nil
}

// runRouter runs one router workload.
func runRouter(spec *routerSpec, opt options) (*outcome, error) {
	out := newOutcome()
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		return out, traceRouter(spec, opt, budget, out)
	}
	g, setupS, err := setupRepeated(spec, opt.seed)
	if err != nil {
		return nil, err
	}
	defer g.close()
	ps, err := g.runPass(budget, out, nil, nil)
	if err != nil {
		return nil, err
	}
	kernelMS := meter.kernelMS()
	dropMeter()
	runtime.GC()
	heap := readGauge("/gc/heap/live:bytes")
	runtime.KeepAlive(g)

	sliceNS := float64(spec.slice) / float64(sim.Nanosecond)
	tailNS, pct := tail(ps.costs)
	out.set("sim_rate", sliceNS/median(ps.costs), "sim_ns/ref_ns")
	out.set("slice_ref_ms_tail", tailNS/1e6, "ref_ms")
	out.set("setup_s", setupS, "s")
	out.set("heap_live_mb", float64(heap)/(1<<20), "MB")
	out.set("sim_gbps", ps.sim.gbps, "Gbps")
	out.set("sim_delivered_frac", ps.sim.deliveredFrac, "frac")
	out.set("sim_latency_mid_us", ps.sim.p50, "us")
	out.set("sim_latency_tail_us", ps.sim.p99, "us")
	d := out.details
	d["slices"] = len(ps.walls)
	d["slice_sim_us"] = spec.slice.Microseconds()
	d["slice_ref_ms_median"] = median(ps.costs) / 1e6
	d["slice_tail_percentile"] = pct
	d["slice_wall_ms_median"] = median(ps.walls) / 1e6
	d["wall_sim_rate"] = sliceNS / median(ps.walls)
	d["kernel_cpu_ms_median"] = kernelMS
	d["window_slices"] = spec.window
	d["error_rate"] = float64(out.failed) / float64(max(out.attempted, 1))
	d["sim_loss_frac"] = ps.sim.lossFrac
	d["sim_latency_p50_us"] = ps.sim.p50
	d["sim_latency_p99_us"] = ps.sim.p99
	d["sim_latency_mean_us"] = ps.sim.mean
	d["sim_latency_max_us"] = ps.sim.max
	d["latency_samples"] = ps.sim.latSamples
	d["latency_stats"] = "mid = p50, tail = p99 of every packet transmitted in the window"
	d["packets_offered"] = ps.sim.offered
	d["packets_lost"] = ps.sim.lost
	if g.flap != nil {
		d["routes_applied"] = ps.sim.flapped
	}
	return out, nil
}
