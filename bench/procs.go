package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	numNodes     = 3
	replicas     = 2
	bootAttempts = 5
	bootDeadline = 10 * time.Second
	outDir       = "bench/out"
	buildDir     = ".bench_build"
)

// buildServer compiles cmd/locserver from the checkout the harness
// runs in and returns the binary's path and the build time.
func buildServer(ctx context.Context) (string, time.Duration, error) {
	if _, err := os.Stat("cmd/locserver"); err != nil {
		return "", 0, fmt.Errorf("run from the repository root: %w", err)
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "locserver"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/locserver")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("building locserver: %w\n%s", err, out)
	}
	return bin, time.Since(start), nil
}

// child is one forked locserver.
type child struct {
	role string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// procGroup owns every process the harness forks, so that each exit
// path — normal return, error, panic, SIGINT/SIGTERM — can kill and
// reap them all: locserver has no signal handling of its own and a
// stray server would poison the next run's numbers.
type procGroup struct {
	mu       sync.Mutex
	children []*child
}

// start forks bin with args, logging its stderr to bench/out/<role>.log.
func (g *procGroup) start(bin, role string, args ...string) (*child, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(outDir, role+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Pdeathsig covers the one exit path no handler can: SIGKILL of the
	// harness itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	c := &child{role: role, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a killed server carries nothing
		logf.Close()
		close(c.done)
	}()
	g.mu.Lock()
	g.children = append(g.children, c)
	g.mu.Unlock()
	return c, nil
}

// stopAll kills every child and waits until each has ended.
func (g *procGroup) stopAll() {
	g.mu.Lock()
	children := g.children
	g.children = nil
	g.mu.Unlock()
	for _, c := range children {
		_ = c.cmd.Process.Kill() // already-exited children report an error nobody needs
	}
	for _, c := range children {
		<-c.done
	}
}

// freeAddr asks the kernel for an unused loopback port. Another
// process can take it before the child binds, which is why startServer
// retries.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer forks one locserver on a free port and waits for its
// /healthz, retrying on a fresh port when the child dies during boot
// (a lost bind race).
func (g *procGroup) startServer(bin, role string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < bootAttempts; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		c, err := g.start(bin, role, append([]string{"-addr", addr}, args...)...)
		if err != nil {
			return nil, err
		}
		c.url = "http://" + addr
		if lastErr = waitHealthy(c); lastErr == nil {
			return c, nil
		}
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	return nil, fmt.Errorf("%s did not come up after %d attempts: %w (see %s/%s.log)", role, bootAttempts, lastErr, outDir, role)
}

func waitHealthy(c *child) error {
	deadline := time.Now().Add(bootDeadline)
	for time.Now().Before(deadline) {
		if c.exited() {
			return fmt.Errorf("%s exited during boot", c.role)
		}
		if _, err := fetch(c.url + "/healthz"); err == nil {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy within %s", c.role, bootDeadline)
}

// procCluster is the benchmark's fixed topology: numNodes node processes
// behind one coordinator process at replication factor `replicas`,
// production defaults otherwise (heartbeat on, tracing off, default
// GOMAXPROCS).
type procCluster struct {
	nodes []*child
	coord *child
}

func (g *procGroup) startCluster(bin string) (*procCluster, error) {
	cl := &procCluster{}
	var peers []string
	for i := 1; i <= numNodes; i++ {
		name := "n" + strconv.Itoa(i)
		n, err := g.startServer(bin, "node-"+name, "-cluster", "node", "-fleet", "0", "-seed", strconv.Itoa(mapSeed))
		if err != nil {
			return nil, err
		}
		cl.nodes = append(cl.nodes, n)
		peers = append(peers, name+"="+n.url)
	}
	var err error
	cl.coord, err = g.startServer(bin, "coordinator", "-cluster", "coordinator",
		"-replicas", strconv.Itoa(replicas), "-peers", strings.Join(peers, ","))
	return cl, err
}

func (cl *procCluster) all() []*child { return append([]*child{cl.coord}, cl.nodes...) }

// checkAlive fails if any server has exited.
func (cl *procCluster) checkAlive() error {
	for _, c := range cl.all() {
		if c.exited() {
			return fmt.Errorf("%s exited early (see %s/%s.log)", c.role, outDir, c.role)
		}
	}
	return nil
}

// procUsage is what /proc says a process has consumed so far.
type procUsage struct {
	cpu   time.Duration // user + system
	rssMB float64
	ctxsw int64 // voluntary + involuntary context switches
}

// clockTick is USER_HZ, the unit of the CPU fields of /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTick = 10 * time.Millisecond

// parseStat extracts user+system CPU time and resident pages from a
// /proc/<pid>/stat line. The process name (field 2) may itself hold
// spaces and parentheses, so fields are counted from the last ')'.
func parseStat(line string) (cpu time.Duration, rssPages int64, err error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return 0, 0, fmt.Errorf("stat line has no process name: %q", line)
	}
	f := strings.Fields(line[end+1:]) // f[0] is field 3 (state)
	if len(f) < 22 {
		return 0, 0, fmt.Errorf("stat line too short: %q", line)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(f[12], 10, 64) // field 15
	rss, err3 := strconv.ParseInt(f[21], 10, 64)   // field 24
	if err1 != nil || err2 != nil || err3 != nil {
		return 0, 0, fmt.Errorf("stat line has non-numeric fields: %q", line)
	}
	return time.Duration(utime+stime) * clockTick, rss, nil
}

// parseCtxSwitches sums the two context-switch counters of a
// /proc/<pid>/status file.
func parseCtxSwitches(status string) int64 {
	var total int64
	for _, line := range strings.Split(status, "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.HasSuffix(k, "voluntary_ctxt_switches") {
			n, _ := strconv.ParseInt(strings.TrimSpace(v), 10, 64) // a malformed counter reads as 0
			total += n
		}
	}
	return total
}

func readUsage(pid int) (procUsage, error) {
	dir := "/proc/" + strconv.Itoa(pid)
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return procUsage{}, err
	}
	cpu, pages, err := parseStat(string(stat))
	if err != nil {
		return procUsage{}, err
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{
		cpu:   cpu,
		rssMB: float64(pages*int64(os.Getpagesize())) / (1 << 20),
		ctxsw: parseCtxSwitches(string(status)),
	}, nil
}

// usage sums readUsage over processes.
func usage(procs ...*child) (procUsage, error) {
	var sum procUsage
	for _, c := range procs {
		u, err := readUsage(c.cmd.Process.Pid)
		if err != nil {
			return sum, fmt.Errorf("%s: %w", c.role, err)
		}
		sum.cpu += u.cpu
		sum.rssMB += u.rssMB
		sum.ctxsw += u.ctxsw
	}
	return sum, nil
}

// scrape is the servers' own view of the cluster at one instant: the
// coordinator's /metrics (which merges its members' registries, so
// node counters and histogram sums arrive already added up) and the
// hinted-record total of /cluster.
type scrape struct {
	m      map[string]float64
	hinted float64
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// parseMetrics reads Prometheus text exposition into name -> value,
// adding series that differ only in labels; histogram buckets are
// skipped (the harness uses only _sum and _count).
func parseMetrics(text []byte) map[string]float64 {
	m := make(map[string]float64)
	for _, line := range bytes.Split(text, []byte("\n")) {
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		sp := bytes.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := string(line[:sp])
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		if v, err := strconv.ParseFloat(string(line[sp+1:]), 64); err == nil {
			m[name] += v
		}
	}
	return m
}

func (cl *procCluster) scrape() (scrape, error) {
	text, err := fetch(cl.coord.url + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	s := scrape{m: parseMetrics(text)}
	body, err := fetch(cl.coord.url + "/cluster")
	if err != nil {
		return scrape{}, err
	}
	var view struct {
		Nodes []struct {
			Hinted float64 `json:"hinted"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(body, &view); err != nil {
		return scrape{}, fmt.Errorf("/cluster: %w", err)
	}
	for _, n := range view.Nodes {
		s.hinted += n.Hinted
	}
	return s, nil
}

// delta returns after-before for one scraped series.
func (s scrape) delta(before scrape, name string) float64 { return s.m[name] - before.m[name] }

// meanUS is the mean, in microseconds, of the observations a seconds
// histogram gained between two scrapes (0 when it gained none).
func (s scrape) meanUS(before scrape, hist string) float64 {
	n := s.delta(before, hist+"_count")
	if n == 0 {
		return 0
	}
	return s.delta(before, hist+"_sum") / n * 1e6
}
