// Command perfbench is the repository benchmark. It runs one workload
// per invocation and prints, as the last line of standard output, one
// JSON object with the keys correct, attempted, failed and metrics.
// With -trace 0 the metrics are the end-to-end metrics named in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, taken
// from a separately assembled, instrumented copy of the workload. The
// line before it is a detailed report: every end-to-end figure the
// workload produces, sample counts, and the host fingerprint.
//
// Usage (from the repository root, via the wrapper that builds it):
//
//	bash perfbench/run.sh -workload ipv4-64B -seed 1 -seconds 10 -trace 0
//	bash perfbench/run.sh compare OLD.json NEW.json
//
// See README.md in this directory for the workloads and the map from
// per-layer metrics to the end-to-end metrics they move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload run produces.
type outcome struct {
	attempted, failed int
	// metrics are the values printed in the final line.
	metrics map[string]metric
	// details are extra figures for the report line (sample counts,
	// statistics chosen, figures BENCHMARK.json does not gate).
	details map[string]any
	// problems lists every failed check, for the report.
	problems []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metric{}, details: map[string]any{}}
}

func (o *outcome) set(name string, v float64, unit string) { o.metrics[name] = metric{v, unit} }

// fail records a failed check. Each failed check counts as one failed
// operation; failed never exceeds attempted.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
	o.failed++
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds float64
	trace   bool
}

// workload is one benchmark input set; BENCHMARK.json and README.md
// give the reason for each.
type workload struct {
	name string
	run  func(opt options) (*outcome, error)
}

func workloads() []workload {
	return []workload{
		{"ipv4-64B", runIPv4},
		{"ipsec-1514B", runIPsec},
		{"ipv4-route-flap", runRouteFlap},
		{"leafspine-l128", runFabric},
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "wall seconds of timed slices")
	trace := fs.Int("trace", 0, "1 runs the instrumented per-layer pass")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	var wl *workload
	all := workloads()
	for i := range all {
		if all[i].name == *name {
			wl = &all[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload one of %v, -seconds > 0, -trace 0|1\n", names(all))
		os.Exit(2)
	}
	// A router simulation runs one process at a time. At GOMAXPROCS 1
	// its goroutine hand-offs stay on one thread and the fabric's
	// partition workers take turns, so the figures time the program
	// rather than how fast the host wakes a second CPU, and the
	// process's CPU time is the simulation's (see hostspeed.go).
	runtime.GOMAXPROCS(1)
	start := time.Now()
	out, err := wl.run(options{seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
	if out.failed > out.attempted {
		out.failed = out.attempted
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", wl.name, p)
	}
	report := map[string]any{
		"workload": wl.name,
		"seed":     *seed,
		"trace":    *trace,
		"host":     fingerprint(),
		"wall_s":   time.Since(start).Seconds(),
		"details":  out.details,
		"metrics":  out.metrics,
		"problems": out.problems,
	}
	line, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func names(ws []workload) []string {
	var s []string
	for _, w := range ws {
		s = append(s, w.name)
	}
	sort.Strings(s)
	return s
}
