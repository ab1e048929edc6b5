package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"streamcalc/internal/load"
)

// daemon is one ncadmitd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	started time.Time
	exited  chan struct{}
	waitErr error
	stderr  bytes.Buffer
	client  *http.Client
}

// spawnDaemon starts ncadmitd on a free loopback port and waits until it
// answers /healthz. It returns the spawn-to-ready time in wall time and in
// CPU time: the benchmark's own (fork, exec, polling) plus all the child's.
func spawnDaemon(bin, platform string) (d *daemon, wall, cpu time.Duration, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, 0, err
	}
	addr := l.Addr().String()
	l.Close()

	d = &daemon{
		base:   "http://" + addr,
		exited: make(chan struct{}),
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
	d.cmd = exec.Command(bin, "-platform", platform, "-addr", addr, "-pprof", "-audit=false")
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = &d.stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	self0, err := selfCPU.read()
	if err != nil {
		return nil, 0, 0, err
	}
	d.started = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, 0, err
	}
	go func() {
		d.waitErr = d.cmd.Wait()
		close(d.exited)
	}()

	deadline := d.started.Add(20 * time.Second)
	for {
		select {
		case <-d.exited:
			return nil, 0, 0, fmt.Errorf("ncadmitd exited before ready (%v): %s", d.waitErr, strings.TrimSpace(d.stderr.String()))
		default:
		}
		if status, _, err := d.get("/healthz"); err == nil && status == http.StatusOK {
			wall = time.Since(d.started)
			cpu, err = d.meter().now()
			if err != nil {
				d.stop()
				return nil, 0, 0, err
			}
			return d, wall, cpu - self0, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, 0, fmt.Errorf("ncadmitd not ready after 20s")
		}
		time.Sleep(time.Millisecond)
	}
}

// meter sums the benchmark's and the daemon's CPU clocks.
func (d *daemon) meter() cpuMeter { return cpuMeter{selfCPU, processCPU(d.cmd.Process.Pid)} }

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON fetches path and decodes a 200 response into v.
func (d *daemon) getJSON(path string, v any) error {
	status, body, err := d.get(path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, status)
	}
	return json.Unmarshal(body, v)
}

// verify checks that the process answering on the port is this daemon —
// its own command line, echoed by /debug/pprof/cmdline, names this run's
// private platform file — and that its registry is empty and its uptime
// no longer than the child's. A stale daemon left on a reused port fails
// here instead of serving the run an old registry.
func (d *daemon) verify() error {
	status, body, err := d.get("/debug/pprof/cmdline")
	if err != nil {
		return err
	}
	if got, want := string(body), strings.Join(d.cmd.Args, "\x00"); status != http.StatusOK || got != want {
		return fmt.Errorf("daemon on %s is not this child: cmdline %q, want %q", d.base, got, want)
	}
	h, err := d.health()
	if err != nil {
		return err
	}
	if h.Flows != 0 {
		return fmt.Errorf("daemon registry not fresh: %d flows", h.Flows)
	}
	if lim := time.Since(d.started).Seconds(); h.Uptime > lim {
		return fmt.Errorf("daemon uptime %.3fs exceeds child age %.3fs", h.Uptime, lim)
	}
	return nil
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Flows     int     `json:"flows"`
	Classes   int     `json:"classes"`
	HeapAlloc uint64  `json:"heap_alloc_bytes"`
	Uptime    float64 `json:"uptime_seconds"`
	Caches    map[string]struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"caches"`
	Recorder struct {
		Seq uint64 `json:"seq"`
	} `json:"recorder"`
}

func (d *daemon) health() (health, error) {
	var h health
	err := d.getJSON("/healthz", &h)
	return h, err
}

// liveHeap forces a collection in the daemon through the heap profile
// endpoint, then reads its heap in use.
func (d *daemon) liveHeap() (uint64, error) {
	if status, _, err := d.get("/debug/pprof/heap?gc=1"); err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("GET /debug/pprof/heap?gc=1: status %d: %v", status, err)
	}
	h, err := d.health()
	return h.HeapAlloc, err
}

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited within 5s. It reports whether the exit was clean.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.waitErr
	case <-time.After(5 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("ncadmitd did not exit within 5s of SIGTERM")
	}
}

// runChurnHTTP is the churn-http workload: the real daemon on the built-in
// default-streaming platform, a sequential /admit/batch ramp to 200k flows,
// then the closed-loop churn, all over one keep-alive connection.
func runChurnHTTP(o options, tr *tracer) (*outcome, error) {
	in, err := defaultStreaming(o.seed, churnHTTPFlows)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.workDir, fmt.Sprintf("%d-%d", os.Getpid(), time.Now().UnixNano()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	platform := filepath.Join(dir, "platform.json")
	body, err := json.Marshal(wirePlatform(in.sc))
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(platform, body, 0o644); err != nil {
		return nil, err
	}

	out := newOutcome()
	spawns := daemonSpawns
	if tr != nil {
		spawns = 1
	}
	var d *daemon
	var setups, wallSetups []float64
	for k := 0; k < spawns; k++ {
		dd, wall, cpu, err := spawnDaemon(o.daemon, platform)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cpu.Seconds())
		wallSetups = append(wallSetups, wall.Seconds())
		if k < spawns-1 {
			if err := dd.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up daemon: %w", err)
			}
			continue
		}
		d = dd
	}
	defer d.stop()
	out.e2e.set("setup_s", median(setups), "s")
	out.fact("wall_setup_s", median(wallSetups))
	if err := d.verify(); err != nil {
		return nil, err
	}
	out.check("daemon_is_own_child", true, "")

	target := &load.HTTP{Base: d.base, Client: d.client}
	if tr != nil {
		if err := tr.attachDaemon(d, target); err != nil {
			return nil, err
		}
	}

	// Ramp: sequential batches until the registry holds churnHTTPFlows.
	meter := d.meter()
	var offered, admitted int
	var rates, wallRates []float64
	for admitted < churnHTTPFlows && offered < 4*churnHTTPFlows {
		fs := in.flows(offered, offered+churnHTTPBatch)
		c0, err := meter.now()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		n, err := target.AdmitBatch(fs)
		dur := time.Since(t0)
		c1, cerr := meter.now()
		if cerr != nil {
			return nil, cerr
		}
		offered += len(fs)
		out.attempted += len(fs)
		if err != nil {
			out.failed += len(fs)
			continue
		}
		admitted += n
		rates = append(rates, float64(len(fs))/(c1-c0).Seconds())
		wallRates = append(wallRates, float64(len(fs))/dur.Seconds())
		if tr != nil {
			if err := tr.afterBatch(t0, dur); err != nil {
				return nil, err
			}
		}
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("ramp: every batch failed")
	}
	out.e2e.set("bulk_flows_per_cpu_s", median(rates), "1/cpu_s")
	out.fact("wall_bulk_flows_per_s", median(wallRates))
	h, err := d.health()
	if err != nil {
		return nil, err
	}
	out.check("ramp_flows", h.Flows == admitted, "daemon holds %d flows after the ramp, batches admitted %d", h.Flows, admitted)

	ops, err := in.ops(offered, opCount(churnHTTPOpsRate, o.seconds))
	if err != nil {
		return nil, err
	}
	var after func(int) error
	if tr != nil {
		tr.beginChurn(target)
		after = tr.afterOp
	}
	ch, err := runChurn(target, meter, ops, after)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.endChurn(ch); err != nil {
			return nil, err
		}
	}
	out.addChurn(ch)

	h, err = d.health()
	if err != nil {
		return nil, err
	}
	want := admitted + ch.admitted - ch.released
	out.check("final_flows", h.Flows == want, "daemon holds %d flows, client accounting expects %d", h.Flows, want)
	out.fact("admitted_flows", admitted+ch.admitted)
	out.fact("final_flows", h.Flows)
	out.fact("classes", h.Classes)
	out.fact("ramp_admitted", admitted)
	out.fact("verdict_digest", fmt.Sprintf("%016x", ch.digest))
	out.e2e.set("admitted_flows", float64(admitted+ch.admitted), "count")

	heap, err := d.liveHeap()
	if err != nil {
		return nil, err
	}
	out.e2e.set("live_heap_mib", float64(heap)/(1<<20), "MiB")
	err = d.stop()
	out.check("daemon_clean_exit", err == nil, "ncadmitd exit: %v", err)
	return out, nil
}
