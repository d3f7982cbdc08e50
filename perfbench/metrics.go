package main

// metricDef names one metric and its unit. The lists below are the
// contract with BENCHMARK.json (the tests hold them equal): every
// workload prints every end-to-end metric with -trace 0 and every
// per-layer metric with -trace 1.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"sim_rate", "sim_ns/ref_ns"},
	{"slice_ref_ms_tail", "ref_ms"},
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"sim_gbps", "Gbps"},
	{"sim_delivered_frac", "frac"},
	{"sim_latency_mid_us", "us"},
	{"sim_latency_tail_us", "us"},
}

var perLayerMetrics = func() []metricDef {
	m := []metricDef{
		{"engine.ns_per_pkt", "ns"},
		{"engine.self_share", "frac"},
		{"apps.share", "frac"},
		{"apps.preshade_ns_per_pkt", "ns"},
		{"apps.kernel_ns_per_pkt", "ns"},
		{"apps.postshade_ns_per_pkt", "ns"},
		{"apps.cpuwork_ns_per_pkt", "ns"},
		{"apps.kernel_share", "frac"},
		{"apps.pkts_per_kernel_call", "count"},
		{"ipsec.ns_per_byte", "ns/B"},
		{"pktgen.fill_ns_per_pkt", "ns"},
		{"pktgen.fill_share", "frac"},
		{"pktgen.sink_ns_per_pkt", "ns"},
		{"pktgen.sink_share", "frac"},
		{"route.generate_s", "s"},
		{"lookup.build_s", "s"},
		{"core.assemble_s", "s"},
		{"ctrl.apply_ns_per_route", "ns"},
		{"ctrl.apply_share", "frac"},
		{"lookup.cells_per_route", "count"},
		{"ctrl.routes_applied", "count"},
		{"ctrl.errors", "count"},
		{"core.gpu_queue_wait_p50_us", "us"},
		{"core.gpu_queue_wait_p99_us", "us"},
		{"core.chunk_latency_p50_us", "us"},
		{"core.chunk_latency_p99_us", "us"},
		{"core.chunk_packets_mean", "count"},
		{"core.launch_threads_mean", "count"},
		{"core.gpu_launches", "count"},
		{"core.app_drops", "count"},
		{"pktio.rx_dropped_frac", "frac"},
		{"hw.ioh_up_busy", "frac"},
		{"hw.ioh_down_busy", "frac"},
		{"hw.gpu_h2d_busy", "frac"},
		{"hw.gpu_exec_busy", "frac"},
		{"hw.gpu_d2h_busy", "frac"},
		{"hw.tx_wire_busy", "frac"},
		{"runtime.alloc_bytes_per_pkt", "B"},
		{"runtime.allocs_per_pkt", "count"},
		{"runtime.gc_cpu_frac", "frac"},
		{"runtime.sched_latency_p50_us", "us"},
		{"runtime.sched_latency_p99_us", "us"},
		{"runtime.cpu_util", "frac"},
		{"runtime.goroutines_peak", "count"},
		{"cluster.wall_ns_per_forward", "ns"},
		{"cluster.forwards", "count"},
		{"cluster.delivered", "count"},
		{"cluster.route_drops", "count"},
		{"cluster.node_drops", "count"},
		{"cluster.mean_hops", "count"},
		{"cluster.parallel_speedup", "ratio"},
	}
	for _, l := range foldLayers {
		m = append(m, metricDef{"fold." + l + "_share", "frac"})
	}
	return append(m, metricDef{"trace.overhead_frac", "frac"})
}()

// zeroPerLayer sets every per-layer metric to 0, so metrics a
// workload has no use for (cluster counters on a router, GPU queue
// waits on the fabric) are still printed.
func zeroPerLayer(out *outcome) {
	for _, m := range perLayerMetrics {
		out.set(m.name, 0, m.unit)
	}
}
