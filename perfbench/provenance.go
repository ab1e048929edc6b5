package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// provenance describes where and how a result was produced.
func provenance(o options) map[string]any {
	return map[string]any{
		"git_sha":    o.gitSHA,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"command":    strings.Join(os.Args, " "),
		"seed":       o.seed,
	}
}

// cpuModel reads the first model name from /proc/cpuinfo ("unknown"
// elsewhere).
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
