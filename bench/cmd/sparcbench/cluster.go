package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// node is one simd worker of a cluster.
type node struct {
	name, url string
}

// cluster is a running simgw in front of simd workers.
type cluster struct {
	gateway string
	nodes   []node
	// pids are the cluster's processes, whose resident sets rss_mib sums.
	pids []int
	// stop shuts the cluster down and waits for it.
	stop func()
}

// startCluster starts a cluster with one worker per cache directory.
// insts is the workers' and gateway's default run length.
type startCluster func(ctx context.Context, cacheDirs []string, insts int) (*cluster, error)

// proc is one child process of the benchmark.
type proc struct {
	cmd    *exec.Cmd
	log    *os.File
	exited chan struct{}
}

func startProc(bin string, args []string, logPath string) (*proc, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: f, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// stop interrupts the process (simd and simgw drain on SIGINT), kills it
// if it has not exited within ten seconds, and waits for it.
func (p *proc) stop() {
	p.cmd.Process.Signal(os.Interrupt)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.exited
	}
	p.log.Close()
}

// rssMiB is the summed resident set of the processes in MiB, from
// /proc/<pid>/statm.
func rssMiB(pids []int) float64 {
	var pages float64
	for _, pid := range pids {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/statm", pid))
		if err != nil {
			continue
		}
		if f := strings.Fields(string(b)); len(f) > 1 {
			n, _ := strconv.ParseFloat(f[1], 64)
			pages += n
		}
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sampleRSS samples the processes' resident set every 50 ms until the
// returned function is called; that function stops the sampler, waits for
// it, and returns the median sample in MiB. The median of the measured
// phase is what rss_mib reports: a peak would mostly measure when the
// garbage collector happened to run.
func sampleRSS(pids []int) (stop func() float64) {
	done := make(chan struct{})
	samples := make(chan []float64)
	go func() {
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		xs := []float64{rssMiB(pids)}
		for {
			select {
			case <-done:
				samples <- append(xs, rssMiB(pids))
				return
			case <-t.C:
				xs = append(xs, rssMiB(pids))
			}
		}
	}()
	return func() float64 {
		close(done)
		return median(<-samples)
	}
}

// freePorts reserves n loopback ports by listening on port 0, then
// releases them for the child processes to bind.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// procCluster starts the real simd and simgw binaries from bin over
// loopback: workers meshed as each other's cache peers, one simulation
// slot each, logs beside their cache directories.
func procCluster(bin string) startCluster {
	return func(ctx context.Context, cacheDirs []string, insts int) (*cluster, error) {
		if bin == "" {
			return nil, errors.New("SPARCBENCH_BIN is not set: run sparcbench through bench/run.sh")
		}
		var lastErr error
		for attempt := 0; attempt < 3; attempt++ { // a reserved port can be taken before the child binds it
			c, err := tryProcCluster(ctx, bin, cacheDirs, insts)
			if err == nil {
				return c, nil
			}
			lastErr = err
		}
		return nil, lastErr
	}
}

func tryProcCluster(ctx context.Context, bin string, cacheDirs []string, insts int) (*cluster, error) {
	ports, err := freePorts(len(cacheDirs) + 1)
	if err != nil {
		return nil, err
	}
	url := func(i int) string { return fmt.Sprintf("http://127.0.0.1:%d", ports[i]) }
	var procs []*proc
	stopAll := func() {
		for _, p := range procs {
			p.stop()
		}
	}
	var nodes []node
	for i, dir := range cacheDirs {
		var peers []string
		for j := range cacheDirs {
			if j != i {
				peers = append(peers, url(j))
			}
		}
		nd := node{name: fmt.Sprintf("n%d", i), url: url(i)}
		p, err := startProc(filepath.Join(bin, "simd"), []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", ports[i]), "-node-id", nd.name,
			"-peers", strings.Join(peers, ","), "-cache-dir", dir,
			"-workers", "1", "-insts", strconv.Itoa(insts),
		}, dir+".log")
		if err != nil {
			stopAll()
			return nil, err
		}
		procs = append(procs, p)
		nodes = append(nodes, nd)
	}
	var spec []string
	for _, nd := range nodes {
		spec = append(spec, nd.name+"="+nd.url)
	}
	gwPort := ports[len(cacheDirs)]
	p, err := startProc(filepath.Join(bin, "simgw"), []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", gwPort), "-workers", strings.Join(spec, ","),
		"-insts", strconv.Itoa(insts),
	}, filepath.Join(filepath.Dir(cacheDirs[0]), "simgw.log"))
	if err != nil {
		stopAll()
		return nil, err
	}
	procs = append(procs, p)
	c := &cluster{
		gateway: url(len(cacheDirs)),
		nodes:   nodes,
		stop:    stopAll,
	}
	for _, p := range procs {
		c.pids = append(c.pids, p.cmd.Process.Pid)
	}
	for i, u := range append(nodeURLs(nodes), c.gateway) {
		if err := waitHealthy(ctx, u, procs[i]); err != nil {
			stopAll()
			return nil, err
		}
	}
	return c, nil
}

func nodeURLs(nodes []node) []string {
	out := make([]string, len(nodes))
	for i, n := range nodes {
		out[i] = n.url
	}
	return out
}

// waitHealthy polls url's /healthz until it answers 200, the process
// exits, or twenty seconds pass.
func waitHealthy(ctx context.Context, url string, p *proc) error {
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.exited:
			return fmt.Errorf("%s exited before it became healthy (see %s)", p.cmd.Path, p.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return errors.New(url + " never became healthy")
}
