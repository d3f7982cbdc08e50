package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"packetshader"
	"packetshader/internal/core"
	"packetshader/internal/sim"
)

// facadeRuns is the Run sequence both assemblies are driven through.
var facadeRuns = []sim.Duration{startRun, 2 * sim.Millisecond, sim.Millisecond, sim.Millisecond}

func reportsOf(inst *packetshader.Instance) []string {
	var out []string
	for _, d := range facadeRuns {
		out = append(out, fmt.Sprintf("%+v", inst.Run(d)))
	}
	inst.Env.Close()
	return out
}

// The benchmark's own assembly, plain and wrapped for tracing, must
// simulate byte-for-byte what the packetshader facade simulates.
func TestAssemblyMatchesFacade(t *testing.T) {
	const seed = 7
	small := func(s routerSpec) *routerSpec {
		if s.prefixes > 0 {
			s.prefixes = 5000
		}
		return &s
	}
	cases := []struct {
		name   string
		spec   *routerSpec
		facade func() (*packetshader.Instance, error)
	}{
		{"ipv4-static", small(specIPv4), func() (*packetshader.Instance, error) {
			return packetshader.IPv4(5000, seed, packetshader.WithPacketSize(64), packetshader.WithOfferedGbps(10))
		}},
		{"ipv4-dynamic", small(specFlap), func() (*packetshader.Instance, error) {
			return packetshader.IPv4(5000, seed, packetshader.WithPacketSize(64), packetshader.WithOfferedGbps(4),
				packetshader.WithFIBUpdate(core.FIBDynamic))
		}},
		{"ipsec", small(specIPsec), func() (*packetshader.Instance, error) {
			return packetshader.IPsec(seed, packetshader.WithPacketSize(1514), packetshader.WithOfferedGbps(10),
				packetshader.WithStreams(4))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inst, err := c.facade()
			if err != nil {
				t.Fatal(err)
			}
			want := reportsOf(inst)
			for _, traced := range []bool{false, true} {
				g, err := assemble(c.spec, seed, traced)
				if err != nil {
					t.Fatal(err)
				}
				// assemble has already made the first Run.
				var got []string
				for _, d := range facadeRuns[1:] {
					got = append(got, fmt.Sprintf("%+v", g.inst.Run(d)))
				}
				g.close()
				if strings.Join(got, "\n") != strings.Join(want[1:], "\n") {
					t.Errorf("traced=%v:\n got %v\nwant %v", traced, got, want)
				}
			}
		})
	}
}

// Every package of the repository folds into exactly one layer.
func TestFoldMapsEveryPackageToOneLayer(t *testing.T) {
	pkgs := []string{"packetshader"}
	err := filepath.WalkDir("../internal", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, _ := filepath.Rel("..", filepath.Dir(path))
		pkg := "packetshader/" + filepath.ToSlash(rel)
		if pkgs[len(pkgs)-1] != pkg {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("found only %d packages: %v", len(pkgs), pkgs)
	}
	known := map[string]bool{}
	for _, l := range foldLayers {
		known[l] = true
	}
	for _, pkg := range pkgs {
		var hits []string
		for _, r := range layerRules {
			if pkg == r.path || (r.tree && strings.HasPrefix(pkg, r.path+"/")) {
				hits = append(hits, r.layer)
			}
		}
		if len(hits) != 1 || !known[hits[0]] {
			t.Errorf("%s folds into %v, want exactly one known layer", pkg, hits)
		}
	}
}

func TestFoldStack(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.gcAssistAlloc", "packetshader/internal/sim.NewEnv"}, "gc"},
		{[]string{"runtime.futex", "runtime.notewakeup", "runtime.chansend", "packetshader/internal/sim.(*Env).drive"}, "runtime_sched"},
		{[]string{"runtime.mallocgc", "packetshader/internal/cluster.(*fabricNode).forward"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "packetshader/internal/obs.(*ServerSampler).ServerBusy"}, "runtime"},
		{[]string{"sort.SearchFloat64s", "packetshader/internal/cluster.zipfDraw"}, "cluster"},
		{[]string{"packetshader/internal/sim.(*Queue[go.shape.struct { packetshader/internal/cluster.src int }]).Get"}, "sim"},
		{[]string{"packetshader/internal/hw/nic.(*RxQueue).Fetch"}, "hw"},
		{[]string{"packetshader/internal/lookup/ipv4.(*Table).LookupBatch"}, "lookup"},
		{[]string{"packetshader.(*Instance).Run"}, "core"},
		{[]string{"time.Now", "main.nowNS", "main.(*timedSource).Fill"}, "bench"},
		{[]string{"syscall.Syscall"}, "other"},
	}
	for _, c := range cases {
		if got := foldStack(c.stack); got != c.want {
			t.Errorf("foldStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			n += i * i
		}
	}
	return n
}

// A real runtime/pprof profile decodes, and time spent in this
// package's own code folds into "bench".
func TestFoldProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := foldProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range foldLayers {
		sum += shares[l]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g: %v", sum, shares)
	}
	if shares["bench"] < 0.5 {
		t.Errorf("a spin loop in package main folded into %v", shares)
	}
}

func TestTail(t *testing.T) {
	var v []float64
	for i := 1; i <= 100; i++ {
		v = append(v, float64(i))
	}
	if got, pct := tail(v); got != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %g at p%g, want 90 at p90", got, pct)
	}
	if got, pct := tail(v[:5]); got != 5 || pct != 100 {
		t.Errorf("tail of 1..5 = %g at p%g, want the maximum", got, pct)
	}
	if got := nearestRank([]int64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("p50 of 1..4 = %d, want 2", got)
	}
}

// BENCHMARK.json names exactly the workloads and metrics the program
// prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads() {
		want = append(want, w.name)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("workloads %v, program has %v", got, want)
	}
	check := func(kind string, js []struct{ Name, Unit string }, defs []metricDef) {
		var a, b []string
		for _, m := range js {
			a = append(a, m.Name+" "+m.Unit)
		}
		for _, m := range defs {
			b = append(b, m.name+" "+m.unit)
		}
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s metrics differ:\nBENCHMARK.json %v\nprogram        %v", kind, a, b)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
}

// Every workload, briefly run, passes its checks and prints every
// metric of its mode.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, w := range workloads() {
		for _, trace := range []bool{false, true} {
			out, err := w.run(options{seed: 3, seconds: 0.2, trace: trace})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed: %v", w.name, trace, out.failed, out.attempted, out.problems)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(out.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(out.metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, d.name, m.Value)
				}
			}
		}
	}
}
