package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// topology says which processes a workload needs.
type topology uint8

const (
	topoSingle  topology = iota // one goalrecd, in-memory engine
	topoDurable                 // one goalrecd on a fresh -snapshot-dir
	topoCluster                 // coordinator + 2 workers
)

// child is one goalrecd process.
type child struct {
	role   string // "single", "worker" or "coordinator"
	url    string // HTTP base URL
	cmd    *exec.Cmd
	stderr string        // file its stderr is captured to
	done   chan struct{} // closed once Wait returned
}

// deployment is one running instance of a topology: the front URL clients
// talk to plus the processes behind it. In-process deployments (the tier-1
// smoke test) have no children.
type deployment struct {
	front    string
	children []*child
	snapDir  string // topoDurable: the daemon's store directory
	stopping atomic.Bool
	shutdown func() // in-process deployments only
}

// pids returns the daemon processes to sample from /proc; an in-process
// deployment is sampled as the harness itself.
func (d *deployment) pids(role string) []int {
	if len(d.children) == 0 {
		return []int{os.Getpid()}
	}
	var out []int
	for _, c := range d.children {
		if role == "" || c.role == role {
			out = append(out, c.cmd.Process.Pid)
		}
	}
	return out
}

// stop terminates every child and waits until each has ended.
func (d *deployment) stop() {
	d.stopping.Store(true)
	if d.shutdown != nil {
		d.shutdown()
		d.shutdown = nil
	}
	for _, c := range d.children {
		_ = c.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, c := range d.children {
		select {
		case <-c.done:
		case <-time.After(5 * time.Second):
			_ = c.cmd.Process.Kill()
			<-c.done
		}
	}
	d.children = nil
}

// buildDaemon compiles cmd/goalrecd from the checkout the benchmark runs in.
func buildDaemon(ctx context.Context, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "goalrecd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/goalrecd")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building goalrecd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// launcher starts deployments of the real daemon binary.
type launcher struct {
	bin     string
	libPath string
	workDir string
	impls   int
	// fail is called (once) with the cause when a child exits while the
	// deployment is not stopping; it cancels the run.
	fail func(error)
	seq  int
}

func (l *launcher) spawn(d *deployment, role string, args ...string) (*child, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	l.seq++
	errPath := filepath.Join(l.workDir, fmt.Sprintf("daemon-%d-%s.stderr", l.seq, role))
	errFile, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer errFile.Close() // the child holds its own descriptor
	// As few flags as possible: every other setting is the daemon's default,
	// so a later change of a default shows up as a gain or a loss.
	args = append([]string{"-library", l.libPath, "-addr", addr, "-quiet"}, args...)
	cmd := exec.Command(l.bin, args...)
	cmd.Stderr = errFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s daemon: %w", role, err)
	}
	c := &child{role: role, url: "http://" + addr, cmd: cmd, stderr: errPath, done: make(chan struct{})}
	d.children = append(d.children, c)
	go func() {
		err := cmd.Wait()
		close(c.done)
		if !d.stopping.Load() {
			l.fail(fmt.Errorf("%s daemon (pid %d) exited during the run: %v\n%s",
				role, cmd.Process.Pid, err, tail(errPath, 20)))
		}
	}()
	return c, nil
}

// tail returns the last n lines of a captured stderr file.
func tail(path string, n int) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimRight(string(b), "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return "--- " + filepath.Base(path) + " ---\n" + strings.Join(lines, "\n")
}

// deploy execs the topology's daemons and returns once every /readyz is 200.
// The caller still has to get a first request answered (see firstRequest).
func (l *launcher) deploy(ctx context.Context, topo topology) (*deployment, error) {
	d := &deployment{}
	var err error
	switch topo {
	case topoSingle:
		_, err = l.spawn(d, "single")
	case topoDurable:
		l.seq++
		d.snapDir = filepath.Join(l.workDir, fmt.Sprintf("store-%d", l.seq))
		if err = os.Mkdir(d.snapDir, 0o755); err == nil {
			_, err = l.spawn(d, "single", "-snapshot-dir", d.snapDir)
		}
	case topoCluster:
		half := l.impls / 2
		var peers []string
		for _, r := range []string{fmt.Sprintf("0:%d", half), fmt.Sprintf("%d:-1", half)} {
			var comms string
			if comms, err = freeAddr(); err != nil {
				break
			}
			peers = append(peers, comms)
			if _, err = l.spawn(d, "worker", "-role", "worker", "-cluster-addr", comms, "-shard-range", r); err != nil {
				break
			}
		}
		if err == nil {
			_, err = l.spawn(d, "coordinator", "-role", "coordinator", "-peers", strings.Join(peers, ","))
		}
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	d.front = d.children[len(d.children)-1].url
	for _, c := range d.children {
		if err := waitReady(ctx, c.url); err != nil {
			msg := tail(c.stderr, 20)
			d.stop()
			return nil, fmt.Errorf("%s daemon never became ready: %w\n%s", c.role, err, msg)
		}
	}
	return d, nil
}

// waitReady polls /readyz until it answers 200.
func waitReady(ctx context.Context, base string) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		if status, _, err := httpGet(ctx, base+"/readyz"); err == nil && status == http.StatusOK {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return context.Cause(ctx)
		}
		if time.Now().After(deadline) {
			return errors.New("timed out after 60s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// controlClient carries the harness's own probes (/readyz, /v1/metrics),
// apart from the two load connections.
var controlClient = &http.Client{Timeout: 30 * time.Second}

func httpGet(ctx context.Context, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := controlClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON fetches url and decodes the reply into a generic tree.
func getJSON(ctx context.Context, url string) (map[string]any, error) {
	status, body, err := httpGet(ctx, url)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, status)
	}
	var v map[string]any
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	return v, nil
}

// walk descends a decoded JSON tree along path; nil if a step is absent.
func walk(v map[string]any, path ...string) any {
	var cur any = v
	for _, p := range path {
		m, _ := cur.(map[string]any)
		cur = m[p]
	}
	return cur
}

// dig returns the number at path in a decoded JSON tree, 0 if absent.
func dig(v map[string]any, path ...string) float64 {
	f, _ := walk(v, path...).(float64)
	return f
}

// procSample is what /proc says about a set of processes at one instant.
type procSample struct {
	cpuMs float64 // user+system CPU time
	ctxsw float64 // voluntary+involuntary context switches, all threads
	hwmMB float64 // sum of peak resident set sizes (VmHWM)
}

// userHz is the unit of /proc/<pid>/stat CPU times; it is 100 on every
// Linux architecture Go supports.
const userHz = 100

func sampleProcs(pids []int) (procSample, error) {
	var s procSample
	for _, pid := range pids {
		dir := "/proc/" + strconv.Itoa(pid)
		stat, err := os.ReadFile(dir + "/stat")
		if err != nil {
			return s, err
		}
		// Fields after the parenthesised command name: state is field 3,
		// utime and stime fields 14 and 15.
		rest := strings.Fields(string(stat[strings.LastIndexByte(string(stat), ')')+1:]))
		if len(rest) < 13 {
			return s, fmt.Errorf("%s/stat: unexpected format", dir)
		}
		utime, _ := strconv.ParseFloat(rest[11], 64)
		stime, _ := strconv.ParseFloat(rest[12], 64)
		s.cpuMs += (utime + stime) * 1000 / userHz

		status, err := os.ReadFile(dir + "/status")
		if err != nil {
			return s, err
		}
		s.hwmMB += statusField(status, "VmHWM:") / 1024

		tasks, err := os.ReadDir(dir + "/task")
		if err != nil {
			return s, err
		}
		for _, t := range tasks {
			ts, err := os.ReadFile(dir + "/task/" + t.Name() + "/status")
			if err != nil {
				continue // the thread exited between ReadDir and here
			}
			s.ctxsw += statusField(ts, "voluntary_ctxt_switches:") + statusField(ts, "nonvoluntary_ctxt_switches:")
		}
	}
	return s, nil
}

// statusField returns the first number after key in a /proc status file.
func statusField(status []byte, key string) float64 {
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				v, _ := strconv.ParseFloat(f[0], 64)
				return v
			}
		}
	}
	return 0
}
