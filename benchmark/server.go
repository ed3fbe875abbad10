package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one bfserved subprocess.
type proc struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan error
}

// startServer launches bin with args on a free loopback port and waits
// until it logs its listen address. The child is killed if the
// benchmark process dies first.
func startServer(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	p := &proc{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		// Keep draining the log so the server never blocks on a full
		// pipe; remember the tail for error reports.
		sc := bufio.NewScanner(stderr)
		var tail []string
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				if f := strings.Fields(line[i+len("listening on "):]); len(f) > 0 {
					select {
					case addrCh <- f[0]:
					default:
					}
				}
			}
			tail = append(tail, line)
			if len(tail) > 20 {
				tail = tail[1:]
			}
		}
		err := cmd.Wait()
		if err != nil && len(tail) > 0 {
			err = fmt.Errorf("%w: %s", err, strings.Join(tail, " | "))
		}
		p.done <- err
	}()
	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
		return p, nil
	case err := <-p.done:
		p.done <- err
		return nil, fmt.Errorf("%s exited before listening: %v", bin, err)
	case <-time.After(60 * time.Second):
		p.kill()
		return nil, fmt.Errorf("%s did not start listening within 60s", bin)
	}
}

// rssMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) rssMB() float64 { return readHWM(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid)) }

// readHWM reads VmHWM from a /proc status file, in MB.
func readHWM(path string) float64 {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop asks the server to drain and waits for it to exit, killing it
// if it takes longer than a few seconds.
func (p *proc) stop() {
	if p == nil {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.kill()
	}
}

func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// stopAll stops every server, in parallel.
func stopAll(ps []*proc) {
	done := make(chan struct{}, len(ps))
	for _, p := range ps {
		go func(p *proc) { p.stop(); done <- struct{}{} }(p)
	}
	for range ps {
		<-done
	}
}

// client is the load generator's HTTP side. Its transport opens at
// most conns connections per host, so the benchmark never drives more
// parallelism than it was given.
type client struct{ hc *http.Client }

func newClient(conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one completed request.
type reply struct {
	status int
	cache  string // X-Cache header
	shard  string // X-Bf-Shard header: the shard a router proxied to
	body   []byte
}

// do sends a request; body is JSON-encoded unless it is nil.
func (c *client) do(method, url string, body any) (reply, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return reply{}, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), shard: resp.Header.Get("X-Bf-Shard"), body: b}, nil
}

// postOK posts body and decodes a 2xx answer into out.
func (c *client) postOK(url string, body, out any) error {
	r, err := c.do(http.MethodPost, url, body)
	if err != nil {
		return err
	}
	if r.status/100 != 2 {
		return fmt.Errorf("POST %s: status %d: %s", url, r.status, trim(r.body))
	}
	return json.Unmarshal(r.body, out)
}

func trim(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "…"
	}
	return string(b)
}

// promSample maps a series ("name{labels}") to its value.
type promSample map[string]float64

// scrape reads a Prometheus text exposition.
func (c *client) scrape(base string) (promSample, int, error) {
	r, err := c.do(http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	if r.status != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	return parseProm(r.body), len(r.body), nil
}

func parseProm(b []byte) promSample {
	out := make(promSample)
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta sums after−before over every series of family whose labels
// contain all of the given label pairs (e.g. `stage="kernel"`).
func delta(before, after promSample, family string, labels ...string) float64 {
	var d float64
	for k, v := range after {
		name, lab, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
				break
			}
		}
		if ok {
			d += v - before[k]
		}
	}
	return d
}

// meanDeltaMS is the mean observation, in ms, of a seconds histogram
// between two scrapes; 0 when nothing was observed.
func meanDeltaMS(before, after promSample, family string, labels ...string) float64 {
	n := delta(before, after, family+"_count", labels...)
	if n <= 0 {
		return 0
	}
	return delta(before, after, family+"_sum", labels...) / n * 1000
}
