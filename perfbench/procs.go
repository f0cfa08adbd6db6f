package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// adminToken guards the mutation endpoints of the benchmark's servers.
const adminToken = "perfbench"

// proc is one server process the benchmark started.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{}
}

// serverGOMAXPROCS is the GOMAXPROCS every server runs with: one per
// CPU, the Go default, set explicitly so the result can record it.
var serverGOMAXPROCS = runtime.NumCPU()

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startProc launches bin with args on a fresh loopback port. The child
// dies with the benchmark (Pdeathsig), so a crashed run leaves nothing
// behind.
func startProc(name, bin string, args []string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "off"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS))
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server is not a result
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for the drain, and kills after a grace
// period. It returns once the process has exited.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already exited
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// hwmMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) hwmMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM of %s: %w", p.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// cpuSeconds reads the process's user plus system CPU time.
func (p *proc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc stat for %s", p.name)
	}
	var ticks float64
	for _, f := range fields[11:13] { // utime and stime
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing CPU time of %s: %w", p.name, err)
		}
		ticks += v
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times; it is 100 on
// every Linux architecture Go supports.
const clockTicks = 100

// waitHealthy polls GET /healthz until it answers 200 or ctx ends.
func waitHealthy(ctx context.Context, p *proc) error {
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up", p.name)
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// topology is the set of processes serving one workload.
type topology struct {
	backends []*proc
	router   *proc
	// entry is the URL the load goes to.
	entry string
}

func (t *topology) procs() []*proc {
	ps := append([]*proc{}, t.backends...)
	if t.router != nil {
		ps = append(ps, t.router)
	}
	return ps
}

// stop stops every process, router first. A nil topology has none.
func (t *topology) stop() {
	if t == nil {
		return
	}
	if t.router != nil {
		t.router.stop()
	}
	for _, p := range t.backends {
		p.stop()
	}
}

// rssMB sums the peak resident sets of the topology's processes.
func (t *topology) rssMB() (float64, error) {
	var sum float64
	for _, p := range t.procs() {
		mb, err := p.hwmMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// cpuSeconds sums the CPU time of the topology's processes.
func (t *topology) cpuSeconds() (float64, error) {
	var sum float64
	for _, p := range t.procs() {
		s, err := p.cpuSeconds()
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// launchOpts are the per-launch knobs of a topology.
type launchOpts struct {
	binDir string
	// storeDir is the durable store of a Store workload; it must not
	// exist yet.
	storeDir string
	// traced keeps every request's server-side spans at /debug/traces.
	traced bool
}

// traceBuffer is the /debug/traces ring size of traced runs.
const traceBuffer = 4096

// launch starts the workload's servers and waits until they answer
// health checks. The caller stops the topology, on error too.
func launch(ctx context.Context, w workload, o launchOpts) (*topology, error) {
	common := []string{"-trace-sample", "0"}
	if o.traced {
		common = []string{"-trace-sample", "1", "-trace-buffer", strconv.Itoa(traceBuffer)}
	}
	var args []string
	if w.Store {
		args = []string{"-store", o.storeDir, "-admin-token", adminToken}
	} else {
		for _, d := range w.Datasets {
			args = append(args, "-gen", d.genFlag())
		}
	}
	n := 1
	if w.Routed {
		n = 2
	}
	t := &topology{}
	for i := 0; i < n; i++ {
		p, err := startProc(fmt.Sprintf("pnnserve-%d", i), filepath.Join(o.binDir, "pnnserve"), append(append([]string{}, common...), args...))
		if err != nil {
			return t, err
		}
		t.backends = append(t.backends, p)
	}
	for _, p := range t.backends {
		if err := waitHealthy(ctx, p); err != nil {
			return t, err
		}
	}
	t.entry = t.backends[0].url
	if !w.Routed {
		return t, nil
	}
	var urls []string
	for _, p := range t.backends {
		urls = append(urls, p.url)
	}
	p, err := startProc("pnnrouter", filepath.Join(o.binDir, "pnnrouter"), append(append([]string{}, common...), "-backends", strings.Join(urls, ",")))
	if err != nil {
		return t, err
	}
	t.router = p
	if err := waitHealthy(ctx, p); err != nil {
		return t, err
	}
	t.entry = p.url
	return t, nil
}

// checkBinaries reports a missing server binary before any launch.
func checkBinaries(binDir string) error {
	for _, name := range []string{"pnnserve", "pnnrouter"} {
		if _, err := os.Stat(filepath.Join(binDir, name)); err != nil {
			return fmt.Errorf("server binaries not built: %w", err)
		}
	}
	return nil
}
