//go:build linux

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"butterfly/client"
	"butterfly/serveapi"
)

// childEnv turns the test binary into the daemon: with it set, TestMain
// runs run(os.Args[1:]) instead of the tests and prints the bound
// address on stdout once the daemon listens.
const childEnv = "BFSERVED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "" {
		os.Exit(m.Run())
	}
	ready := make(chan string, 1)
	go func() { fmt.Println(<-ready) }()
	if err := run(os.Args[1:], ready); err != nil {
		fmt.Fprintln(os.Stderr, "bfserved:", err)
		os.Exit(1)
	}
}

// daemon is one bfserved process: the test binary re-executed with
// childEnv set.
type daemon struct {
	addr   string // host:port it listens on
	cmd    *exec.Cmd
	logs   bytes.Buffer
	exited chan struct{} // closed once the process is reaped; err is then set
	err    error
}

// startDaemonProc starts a daemon listening on addr and waits until it
// listens. The process is killed when the test ends, and by the kernel
// if the test process dies first.
func startDaemonProc(t *testing.T, addr string, args ...string) *daemon {
	t.Helper()
	d := &daemon{exited: make(chan struct{})}
	d.cmd = exec.Command(os.Args[0], append([]string{"-addr", addr, "-drain", "5s"}, args...)...)
	// A race-built child sleeps atexit_sleep_ms (1 s by default) before
	// it exits; turn that off, keeping the caller's other GORACE options.
	// The last GORACE entry in Env wins.
	gorace := strings.TrimSpace(os.Getenv("GORACE") + " atexit_sleep_ms=0")
	d.cmd.Env = append(os.Environ(), childEnv+"=1", "GORACE="+gorace)
	d.cmd.Stderr = &d.logs
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := d.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.kill)
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			listening <- sc.Text()
		}
		_, _ = io.Copy(io.Discard, out)
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-listening:
		return d
	case <-d.exited:
		t.Fatalf("bfserved %v exited before listening: %v\n%s", args, d.err, d.logs.String())
	case <-time.After(30 * time.Second):
		t.Fatalf("bfserved %v never listened", args)
	}
	panic("unreachable")
}

// kill sends SIGKILL (no drain, no checkpoint) and reaps the process.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
}

// stop sends SIGTERM and requires a clean drain and exit.
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.exited:
		if d.err != nil {
			t.Fatalf("daemon on %s exited with %v after SIGTERM\n%s", d.addr, d.err, d.logs.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon on %s did not drain after SIGTERM", d.addr)
	}
}

func (d *daemon) client() *client.Client { return client.New("http://" + d.addr) }

// TestRunDrainUnusedConn: a connection that was dialed but never
// carried a request must not hold the SIGTERM drain. net/http counts
// such a connection as active for its first 5 s, so under -drain 1s
// the shutdown would time out and the daemon exit 1; a clean exit
// means the drain finished inside -drain.
func TestRunDrainUnusedConn(t *testing.T) {
	d := startDaemonProc(t, "127.0.0.1:0", "-drain", "1s")
	idle, err := net.Dial("tcp", d.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	// The server accepts connections in order, so once a later
	// request is answered the idle one has been accepted too.
	resp, err := http.Get("http://" + d.addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	d.stop(t)
}

// TestRunCrashRecovery kills a durable daemon with SIGKILL, so neither
// the drain nor the closing checkpoint runs, and restarts it over the
// same -data-dir with the same -preload: every acknowledged write must
// survive from the write-ahead log alone. One graph is preloaded and
// one registered inline; both are mutated before the kill. The clean
// restart path is TestRunDurableRestart.
func TestRunCrashRecovery(t *testing.T) {
	args := []string{"-data-dir", t.TempDir(), "-fsync", "always", "-preload", "occupations@50"}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	d := startDaemonProc(t, "127.0.0.1:0", args...)
	c := d.client()
	if _, err := c.Register(ctx, serveapi.RegisterRequest{Name: "crash", M: 4, N: 4, Edges: [][2]int{
		{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0}, {2, 1}, {2, 2}, {3, 3},
	}}); err != nil {
		t.Fatalf("register: %v", err)
	}
	if _, err := c.Mutate(ctx, "crash", serveapi.MutateRequest{
		Inserts: [][2]int{{3, 0}, {3, 1}}, Deletes: [][2]int{{2, 2}},
	}); err != nil {
		t.Fatalf("mutate crash: %v", err)
	}
	if _, err := c.Mutate(ctx, "occupations", serveapi.MutateRequest{
		Deletes: [][2]int{{0, 0}, {1, 1}, {2, 2}},
	}); err != nil {
		t.Fatalf("mutate occupations: %v", err)
	}
	names := []string{"crash", "occupations"}
	want := map[string]serveapi.GraphInfo{}
	for _, name := range names {
		info, err := c.GraphInfo(ctx, name)
		if err != nil || info.Version < 2 {
			t.Fatalf("%s before the kill: %+v, %v; want a mutated version", name, info, err)
		}
		want[name] = info
	}

	d.kill()
	d2 := startDaemonProc(t, "127.0.0.1:0", args...)
	c2 := d2.client()
	for _, name := range names {
		got, err := c2.GraphInfo(ctx, name)
		if err != nil {
			t.Fatalf("%s lost across SIGKILL: %v", name, err)
		}
		w := want[name]
		if got.Version != w.Version || got.Butterflies != w.Butterflies || got.NumEdges != w.NumEdges {
			t.Errorf("%s across SIGKILL: (v%d, %d butterflies, %d edges), want (v%d, %d, %d)",
				name, got.Version, got.Butterflies, got.NumEdges, w.Version, w.Butterflies, w.NumEdges)
		}
		cnt, err := c2.Count(ctx, name, serveapi.CountRequest{Threads: -1})
		if err != nil || cnt.Butterflies != got.Butterflies {
			t.Errorf("%s: fresh count %+v, %v; recovered stamp %d", name, cnt, err, got.Butterflies)
		}
	}
	d2.stop(t)
}

// TestRunClusterKillShard runs two durable shards and a router, each a
// process. A solo graph (one home shard) and a copy partitioned across
// both shards must count the same before and after one identical
// mutation. With one shard killed by SIGKILL, the unchanged partitioned
// graph answers exactly from the router's merged pin, and a forced
// scatter (?debug=true) answers 200 flagged degraded instead of an
// exact-looking wrong count. After the shard restarts over its
// -data-dir on the same address (WAL replay), both counts are exact
// and equal to the values before the crash.
func TestRunClusterKillShard(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	dirs := []string{t.TempDir(), t.TempDir()}
	shard := func(i int, addr string) *daemon {
		return startDaemonProc(t, addr, "-role", "shard", "-data-dir", dirs[i], "-fsync", "always")
	}
	shards := []*daemon{shard(0, "127.0.0.1:0"), shard(1, "127.0.0.1:0")}
	router := startDaemonProc(t, "127.0.0.1:0", "-role", "router",
		"-shards", "http://"+shards[0].addr+",http://"+shards[1].addr)
	c := router.client()

	if _, err := c.Register(ctx, serveapi.RegisterRequest{Name: "solo", Dataset: "occupations", Scale: 40}); err != nil {
		t.Fatalf("register solo: %v", err)
	}
	if _, err := c.Register(ctx, serveapi.RegisterRequest{Name: "parts", Dataset: "occupations", Scale: 40, Partitions: 2}); err != nil {
		t.Fatalf("register parts: %v", err)
	}
	for _, s := range shards {
		if h, err := s.client().Health(ctx); err != nil || h.Graphs == 0 {
			t.Fatalf("shard %s holds no graph: %+v, %v", s.addr, h, err)
		}
	}
	counts := func(when string) (solo, parts int64) {
		t.Helper()
		s, err := c.Count(ctx, "solo", serveapi.CountRequest{})
		if err != nil {
			t.Fatalf("%s: solo count: %v", when, err)
		}
		p, err := c.Count(ctx, "parts", serveapi.CountRequest{})
		if err != nil {
			t.Fatalf("%s: parts count: %v", when, err)
		}
		if p.Degraded || s.Butterflies != p.Butterflies {
			t.Fatalf("%s: partitioned count %+v, solo %d", when, p, s.Butterflies)
		}
		return s.Butterflies, p.Butterflies
	}
	counts("registered")

	mutation := serveapi.MutateRequest{
		Inserts: [][2]int{{0, 0}, {0, 1}, {1, 0}, {1, 1}, {2, 2}, {3, 3}},
		Deletes: [][2]int{{0, 2}, {4, 4}},
	}
	ms, err := c.Mutate(ctx, "solo", mutation)
	if err != nil {
		t.Fatalf("mutate solo: %v", err)
	}
	mp, err := c.Mutate(ctx, "parts", mutation)
	if err != nil {
		t.Fatalf("mutate parts: %v", err)
	}
	if ms.Count != mp.Count {
		t.Fatalf("one mutation, two counts: solo %d, parts %d", ms.Count, mp.Count)
	}
	solo0, parts0 := counts("mutated")
	for _, name := range []string{"solo", "parts"} {
		info, err := c.GraphInfo(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		loadMix(t, "http://"+router.addr, info, []string{"count", "estimate"}, 11, 4, 32)
	}
	counts("after load")

	shards[1].kill()
	resp, err := http.Post("http://"+router.addr+"/v1/graphs/parts/count", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var pinned serveapi.CountResponse
	err = json.NewDecoder(resp.Body).Decode(&pinned)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "merged" ||
		pinned.Degraded || pinned.Butterflies != parts0 {
		t.Fatalf("count with a dead shard: status %d, X-Cache %q, %+v, %v; want the merged pin's %d",
			resp.StatusCode, resp.Header.Get("X-Cache"), pinned, err, parts0)
	}
	resp, err = http.Post("http://"+router.addr+"/v1/graphs/parts/count?debug=true", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var scatter serveapi.EstimateResponse
	err = json.NewDecoder(resp.Body).Decode(&scatter)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !scatter.Degraded || scatter.Strategy != "partitions" {
		t.Fatalf("scatter with a dead shard: status %d, %+v, %v; want 200, degraded, strategy partitions",
			resp.StatusCode, scatter, err)
	}

	shards[1] = shard(1, shards[1].addr)
	if solo, parts := counts("restarted"); solo != solo0 || parts != parts0 {
		t.Fatalf("after WAL replay: solo %d, parts %d; before the crash %d, %d", solo, parts, solo0, parts0)
	}
	router.stop(t)
	for _, s := range shards {
		s.stop(t)
	}
}
