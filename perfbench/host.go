package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// host identifies the machine and build a result came from. Host-time
// figures from different hosts are not comparable.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func fingerprint() host {
	h := host{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sameMachine reports whether two fingerprints describe one host
// configuration; the commit may differ, which is the point of a
// comparison.
func sameMachine(a, b host) bool {
	return a.CPU == b.CPU && a.NumCPU == b.NumCPU && a.GOMAXPROCS == b.GOMAXPROCS && a.GoVersion == b.GoVersion
}

// savedReport is the part of a report line compare reads.
type savedReport struct {
	Workload string            `json:"workload"`
	Trace    int               `json:"trace"`
	Host     host              `json:"host"`
	Metrics  map[string]metric `json:"metrics"`
}

// readReports collects the report lines of a file holding the standard
// output of one or more runs.
func readReports(path string) ([]savedReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []savedReport
	for _, line := range strings.Split(string(data), "\n") {
		var wrap struct {
			Report *savedReport `json:"report"`
		}
		if json.Unmarshal([]byte(line), &wrap) == nil && wrap.Report != nil {
			out = append(out, *wrap.Report)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no report lines", path)
	}
	return out, nil
}

// compareMain prints, per workload and metric, the median of each side
// and their ratio. It refuses (exit 1) when the two sides come from
// different hosts.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD NEW (files of perfbench output)")
		return 2
	}
	var sides [2][]savedReport
	for i, p := range args {
		r, err := readReports(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
			return 1
		}
		sides[i] = r
	}
	ref := sides[0][0].Host
	for _, side := range sides {
		for _, r := range side {
			if !sameMachine(ref, r.Host) {
				fmt.Fprintf(os.Stderr, "perfbench compare: refusing: results from different hosts (%+v vs %+v)\n", ref, r.Host)
				return 1
			}
		}
	}
	type key struct{ workload, metric string }
	vals := [2]map[key][]float64{{}, {}}
	units := map[key]string{}
	for i, side := range sides {
		for _, r := range side {
			for m, v := range r.Metrics {
				k := key{fmt.Sprintf("%s/trace%d", r.Workload, r.Trace), m}
				vals[i][k] = append(vals[i][k], v.Value)
				units[k] = v.Unit
			}
		}
	}
	var keys []key
	for k := range vals[0] {
		if len(vals[1][k]) > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	for _, k := range keys {
		a, b := median(vals[0][k]), median(vals[1][k])
		ratio := "n/a"
		if a != 0 {
			ratio = fmt.Sprintf("%.4f", b/a)
		}
		fmt.Printf("%-26s %-32s %14.6g %14.6g %-6s new/old=%s (n=%d,%d)\n",
			k.workload, k.metric, a, b, units[k], ratio, len(vals[0][k]), len(vals[1][k]))
	}
	return 0
}
