package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runSteady runs each selected workload o.steady times, one child process
// per run with seeds o.seed, o.seed+1, ..., and prints per metric the median,
// the quartiles and the quartile spread over the median — the measured
// spreads the bounds in BENCHMARK.json rest on. The first seed is run a
// second time, and its repeat-sensitive counts must match exactly.
func runSteady(o options) error {
	sel := workloads
	if o.workload != "all" {
		if !known(o.workload) {
			return fmt.Errorf("unknown --workload %q", o.workload)
		}
		sel = []string{o.workload}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, w := range sel {
		values := map[string][]float64{}
		units := map[string]string{}
		var firstFacts map[string]any
		for i := 0; i <= o.steady; i++ {
			seed := o.seed + uint64(i)
			if i == o.steady {
				seed = o.seed // determinism repeat
			}
			info, res, err := runChild(self, o, w, seed)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w, seed, err)
			}
			if !res.Correct || res.Failed > 0 {
				ok = false
				fmt.Printf("%s seed %d: correct=%v failed=%d checks=%v\n", w, seed, res.Correct, res.Failed, info.Checks)
			}
			if i == 0 {
				firstFacts = info.Facts
			}
			if i == o.steady {
				if diff := factsDiffer(firstFacts, info.Facts); diff != "" {
					ok = false
					fmt.Printf("%s seed %d: repeat differs: %s\n", w, seed, diff)
				} else {
					fmt.Printf("%s seed %d: repeat matches (%v)\n", w, seed, repeatFacts(info.Facts))
				}
				continue
			}
			for n, m := range res.Metrics {
				values[n] = append(values[n], m.Value)
				units[n] = m.Unit
			}
		}
		printSpreads(w, values, units)
	}
	if !ok {
		return fmt.Errorf("steadiness runs failed their checks")
	}
	return nil
}

// childInfo is the provenance line a run prints before its result.
type childInfo struct {
	Checks []check        `json:"checks"`
	Facts  map[string]any `json:"facts"`
}

func runChild(self string, o options, w string, seed uint64) (childInfo, result, error) {
	trace := "0"
	if o.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "--trace", trace,
		"--daemon", o.daemon, "--workdir", o.workDir, "--git-sha", o.gitSHA)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return childInfo{}, result{}, err
	}
	var lines [][]byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if l := bytes.TrimSpace(sc.Bytes()); len(l) > 0 {
			lines = append(lines, append([]byte(nil), l...))
		}
	}
	if len(lines) < 2 {
		return childInfo{}, result{}, fmt.Errorf("child printed %d lines", len(lines))
	}
	var info childInfo
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &info); err != nil {
		return info, res, err
	}
	err = json.Unmarshal(lines[len(lines)-1], &res)
	return info, res, err
}

// repeatKeys are the facts that must repeat exactly for one seed.
var repeatKeys = []string{"admitted_flows", "final_flows", "classes", "verdict_digest"}

func repeatFacts(f map[string]any) map[string]any {
	out := map[string]any{}
	for _, k := range repeatKeys {
		out[k] = f[k]
	}
	return out
}

// factsDiffer names the first repeat-sensitive fact that differs ("" when
// all match).
func factsDiffer(a, b map[string]any) string {
	for _, k := range repeatKeys {
		if fmt.Sprint(a[k]) != fmt.Sprint(b[k]) {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

func printSpreads(w string, values map[string][]float64, units map[string]string) {
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("%-16s %-36s %12s %12s %12s %8s  (n)\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, n := range names {
		q1, q2, q3, _ := quartiles(values[n])
		fmt.Printf("%-16s %-36s %12.6g %12.6g %12.6g %8.4f  (%d) %s\n", w, n, q1, q2, q3, spread(values[n]), len(values[n]), units[n])
	}
}
