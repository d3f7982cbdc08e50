package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"

	"packetshader/internal/cluster"
	"packetshader/internal/sim"
)

const (
	fabricHorizon = 5 * sim.Millisecond
	fabricWorkers = 2
	// fabricSubSeeds is how many fabric inputs one run cycles through;
	// a run times at least one RunFabric call on each, however short
	// its budget. The simulated metrics average over them: one fabric's
	// maximum latency alone moves by several percent from seed to seed.
	fabricSubSeeds = 4
)

// fabricConfig is the 128-leaf, 16-spine leaf-spine fabric of
// BenchmarkLeafSpineScale/l128: 144 partitions and 8,192 links,
// Zipf-1.1 flows over a uniform 1.28 Tbps matrix, 50 µs links. The
// k-th sub-seed of a run's seed picks the flows.
func fabricConfig(seed int64, k, workers int, horizon sim.Duration) cluster.FabricConfig {
	return cluster.FabricConfig{
		Topo: &cluster.LeafSpine{
			Leaves: 128, Spines: 16, Uplinks: 2,
			EdgeGbps: 40, LeafGbps: 40, SpineGbps: 160, UplinkGbps: 10,
		},
		Matrix:      cluster.Uniform(128, 1280),
		LinkLatency: 50 * sim.Microsecond,
		Horizon:     horizon,
		Seed:        uint64(seed)*fabricSubSeeds + uint64(k),
		Workers:     workers,
		Flows:       cluster.FlowModel{ZipfS: 1.1},
	}
}

// runFabricOp is one operation: one RunFabric call. A panic on this
// goroutine is reported as a failed operation.
func runFabricOp(cfg cluster.FabricConfig) (res cluster.FabricResult, wall time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	t := time.Now()
	res, err = cluster.RunFabric(cfg)
	return res, time.Since(t), err
}

// fabricOps is what a run of timed RunFabric calls measured.
type fabricOps struct {
	results []cluster.FabricResult // per sub-seed
	costs   []float64              // reference ns per call (see hostspeed.go)
	walls   []float64              // wall ns per call
}

// fabricPass times RunFabric calls at fabricWorkers, cycling through
// the sub-seeds, until budget has passed. Every call must return the
// first result of its sub-seed.
func fabricPass(seed int64, budget time.Duration, out *outcome) (*fabricOps, error) {
	m, err := hostMeter()
	if err != nil {
		return nil, err
	}
	m.restart()
	ops := &fabricOps{results: make([]cluster.FabricResult, fabricSubSeeds)}
	results := ops.results
	start := time.Now()
	for i := 0; i < fabricSubSeeds || time.Since(start) < budget; i++ {
		k := i % fabricSubSeeds
		out.attempted++
		var res cluster.FabricResult
		var wall time.Duration
		cost, _ := m.measure(func() {
			res, wall, err = runFabricOp(fabricConfig(seed, k, fabricWorkers, fabricHorizon))
		})
		ops.costs = append(ops.costs, cost)
		ops.walls = append(ops.walls, float64(wall.Nanoseconds()))
		switch {
		case err != nil:
			out.fail("RunFabric %d: %v", i, err)
		case i < fabricSubSeeds:
			results[k] = res
		case res != results[k]:
			out.fail("RunFabric %d: result %+v differs from the first call's %+v", i, res, results[k])
		}
	}
	return ops, nil
}

// checkFabric verifies the results: each the same at one worker, and
// no more batches delivered or dropped than were generated. It returns
// the peak live heap of those one-worker runs: the largest live heap
// the program's own GC cycles marked during them (the fabric's live
// heap rises and falls within a run, so a forced GC at a wall-clock
// moment would read a different point of it on every host).
func checkFabric(seed int64, results []cluster.FabricResult, out *outcome) uint64 {
	runtime.GC() // the last mark must not be one of the timed calls'
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var high uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			if v := readGauge("/gc/heap/live:bytes"); v > high {
				high = v
			}
			select {
			case <-stop:
				peak <- high
				return
			case <-tick.C:
			}
		}
	}()
	for k, res := range results {
		out.attempted++
		serial, _, err := runFabricOp(fabricConfig(seed, k, 1, fabricHorizon))
		switch {
		case err != nil:
			out.fail("RunFabric at 1 worker: %v", err)
		case serial != res:
			out.fail("RunFabric at 1 worker gives %+v, at %d workers %+v", serial, fabricWorkers, res)
		case res.Delivered+res.RouteDrops+res.NodeDrops > res.Batches:
			out.fail("fabric delivered %d and dropped %d of %d batches", res.Delivered, res.RouteDrops+res.NodeDrops, res.Batches)
		}
	}
	close(stop)
	return <-peak
}

// fabricSim is the simulated outcome of the sub-seeds together.
type fabricSim struct {
	gbps, deliveredFrac, lossFrac, meanUs, maxUs float64
	batches, delivered                           uint64
}

func combineFabric(results []cluster.FabricResult) fabricSim {
	var s fabricSim
	var latSum, drops float64
	for _, r := range results {
		s.gbps += r.DeliveredGbps / float64(len(results))
		s.maxUs += r.MaxLatency.Microseconds() / float64(len(results))
		latSum += r.MeanLatency.Microseconds() * float64(r.Delivered)
		s.batches += r.Batches
		s.delivered += r.Delivered
		drops += float64(r.RouteDrops + r.NodeDrops)
	}
	if s.delivered > 0 {
		s.meanUs = latSum / float64(s.delivered)
	}
	if s.batches > 0 {
		s.deliveredFrac = float64(s.delivered) / float64(s.batches)
		s.lossFrac = drops / float64(s.batches)
	}
	return s
}

func runFabric(opt options) (*outcome, error) {
	out := newOutcome()
	budget := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		return out, traceFabric(opt, budget, out)
	}
	// The fabric is built inside RunFabric: set-up is a RunFabric call
	// over a single lookahead window, which is almost all construction
	// and teardown.
	var nSetups int
	setupS, err := setups(func() error {
		nSetups++
		_, _, err := runFabricOp(fabricConfig(opt.seed, 0, fabricWorkers, 50*sim.Microsecond))
		return err
	}, debug.FreeOSMemory) // as for the routers: see setupRepeated
	if err != nil {
		return nil, err
	}
	ops, err := fabricPass(opt.seed, budget, out)
	if err != nil {
		return nil, err
	}
	results, walls := ops.results, ops.walls
	kernelMS := meter.kernelMS()
	dropMeter()
	heap := checkFabric(opt.seed, results, out)
	fs := combineFabric(results)

	opNS := float64(fabricHorizon) / float64(sim.Nanosecond)
	tailNS, pct := tail(ops.costs)
	out.set("sim_rate", opNS/median(ops.costs), "sim_ns/ref_ns")
	out.set("slice_ref_ms_tail", tailNS/1e6, "ref_ms")
	out.set("setup_s", setupS, "s")
	out.set("heap_live_mb", float64(heap)/(1<<20), "MB")
	out.set("sim_gbps", fs.gbps, "Gbps")
	out.set("sim_delivered_frac", fs.deliveredFrac, "frac")
	out.set("sim_latency_mid_us", fs.meanUs, "us")
	out.set("sim_latency_tail_us", fs.maxUs, "us")
	d := out.details
	d["ops"] = len(walls)
	d["op_sim_us"] = fabricHorizon.Microseconds()
	d["op_ref_ms_median"] = median(ops.costs) / 1e6
	d["op_tail_percentile"] = pct
	d["op_wall_ms_median"] = median(walls) / 1e6
	d["wall_sim_rate"] = opNS / median(walls)
	d["kernel_cpu_ms_median"] = kernelMS
	d["setups"] = nSetups
	d["error_rate"] = float64(out.failed) / float64(max(out.attempted, 1))
	d["sim_loss_frac"] = fs.lossFrac
	d["sim_latency_mean_us"] = fs.meanUs
	d["sim_latency_max_us"] = fs.maxUs
	d["latency_samples"] = fs.delivered
	d["latency_stats"] = fmt.Sprintf("mid = mean over delivered batches, tail = mean over %d sub-seeds of the maximum (the fabric exposes no percentile)", fabricSubSeeds)
	var res []string
	for _, r := range results {
		res = append(res, fmt.Sprintf("%+v", r))
	}
	d["fabric"] = res
	return out, nil
}

// traceFabric runs untraced RunFabric calls and then traced ones (CPU
// profile and runtime counters), each on half the budget, and then
// times the partition parallelism.
func traceFabric(opt options, budget time.Duration, out *outcome) error {
	zeroPerLayer(out)
	ops0, err := fabricPass(opt.seed, budget/2, out)
	if err != nil {
		return err
	}
	prof, err := startProfiler()
	if err != nil {
		return err
	}
	ops1, err := fabricPass(opt.seed, budget/2, out)
	if err != nil {
		return err
	}
	res1 := ops1.results
	var forwards, delivered, routeDrops, nodeDrops uint64
	var hops float64
	for _, r := range res1 {
		forwards += r.Forwards
		delivered += r.Delivered
		routeDrops += r.RouteDrops
		nodeDrops += r.NodeDrops
		hops += r.MeanHops * float64(r.Delivered)
	}
	perOp := float64(forwards) / float64(len(res1))
	if err := prof.stop(out, perOp*float64(len(ops1.walls))); err != nil {
		return err
	}
	for k := range ops0.results {
		if ops0.results[k] != res1[k] {
			out.fail("traced fabric result %+v differs from untraced %+v", res1[k], ops0.results[k])
		}
	}
	perFwd := median(ops1.walls) / max(perOp, 1)
	setLayer(out, "engine.ns_per_pkt", perFwd)
	setLayer(out, "engine.self_share", 1)
	setLayer(out, "cluster.wall_ns_per_forward", perFwd)
	setLayer(out, "cluster.forwards", perOp)
	setLayer(out, "cluster.delivered", float64(delivered)/float64(len(res1)))
	setLayer(out, "cluster.route_drops", float64(routeDrops)/float64(len(res1)))
	setLayer(out, "cluster.node_drops", float64(nodeDrops)/float64(len(res1)))
	setLayer(out, "cluster.mean_hops", hops/float64(max(delivered, 1)))
	setLayer(out, "cluster.parallel_speedup", parallelSpeedup(opt.seed, out))
	setLayer(out, "trace.overhead_frac", 1-median(ops0.costs)/median(ops1.costs))
	out.details["untraced_ops"] = len(ops0.walls)
	out.details["traced_ops"] = len(ops1.walls)
	out.details["cluster_counts"] = fmt.Sprintf("per RunFabric call, averaged over %d sub-seeds", fabricSubSeeds)
	out.details["parallel_speedup"] = fmt.Sprintf("median wall of %d RunFabric calls at 1 worker over that at %d workers, GOMAXPROCS %d", speedupCalls, fabricWorkers, runtime.NumCPU())
	return nil
}

// speedupCalls is how many RunFabric calls parallelSpeedup makes at
// each worker count.
const speedupCalls = 3

// parallelSpeedup is the wall-time speedup of fabricWorkers partition
// workers over one, with GOMAXPROCS raised for the purpose to the CPU
// count. The end-to-end figures run at GOMAXPROCS 1 (see main), where
// partitions interleave rather than run in parallel; this is the one
// figure that times the parallel run, and it is measured in wall time
// on whatever else the host is running, so it is not gated.
func parallelSpeedup(seed int64, out *outcome) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	var w1, w2 []float64
	for i := 0; i < speedupCalls; i++ {
		for _, workers := range []int{1, fabricWorkers} {
			out.attempted++
			_, wall, err := runFabricOp(fabricConfig(seed, 0, workers, fabricHorizon))
			if err != nil {
				out.fail("RunFabric at %d workers: %v", workers, err)
				return 0
			}
			if workers == 1 {
				w1 = append(w1, float64(wall))
			} else {
				w2 = append(w2, float64(wall))
			}
		}
	}
	return median(w1) / median(w2)
}
