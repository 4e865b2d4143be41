package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ssnkit/internal/oracle"
	"ssnkit/internal/serve"
)

// childEnv selects the hidden child mode: the benchmark re-executes its
// own binary with this variable set to a child kind. An environment
// variable rather than a flag lets a test binary serve as the child too.
const childEnv = "SSNBENCH_CHILD"

// oraclePath is the oracle child's only evaluation route.
const oraclePath = "/oracle"

// childMain runs one system under test until SIGTERM: it listens on a
// loopback port, reports "ADDR host:port" on stdout, serves, and on
// SIGTERM shuts down gracefully and exits.
func childMain(kind string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var (
		serveFn    func(net.Listener) error
		shutdownFn func(context.Context) error
	)
	switch kind {
	case childServe:
		s := serve.New(serve.Config{})
		serveFn, shutdownFn = s.Serve, s.Shutdown
	case childOracle:
		hs := &http.Server{Handler: oracleHandler(), ReadHeaderTimeout: 10 * time.Second}
		serveFn, shutdownFn = hs.Serve, hs.Shutdown
	default:
		ln.Close()
		return fmt.Errorf("unknown child kind %q", kind)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)
	errc := make(chan error, 1)
	go func() { errc <- serveFn(ln) }()
	if _, err := fmt.Printf("ADDR %s\n", ln.Addr()); err != nil {
		return err
	}
	select {
	case err := <-errc:
		return err
	case <-sigc:
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	shutdownErr := shutdownFn(ctx)
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return shutdownErr
}

// oracleHandler is the oracle child's HTTP face: GET /healthz, and
// POST /oracle running one seeded campaign chunk through oracle.Run with
// its default worker count.
func oracleHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.WriteString(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("POST "+oraclePath, func(w http.ResponseWriter, r *http.Request) {
		var q oracleQuery
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<10)).Decode(&q); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if q.Points < 1 || q.Points > 1024 {
			http.Error(w, "points must be within [1, 1024]", http.StatusBadRequest)
			return
		}
		start := time.Now()
		rep, err := oracle.Run(r.Context(), oracle.Config{Points: q.Points, Seed: q.Seed})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		out := summarizeReport(rep)
		out.RunNS = time.Since(start).Nanoseconds()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out) // the status line is gone
	})
	return mux
}

// child is a running system under test, owned by the parent.
type child struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done bool
}

// spawn starts a child of the given kind with GOMAXPROCS procs and waits
// until /healthz answers 200. The returned duration runs from process
// start to that first 200: the workload's set-up time. On error the child
// has been killed and reaped.
func spawn(kind string, procs int, client *http.Client) (*child, time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+kind, "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	// The kernel kills the child if the parent dies first: no orphans even
	// when the parent is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd}
	addr, err := readAddr(out, 60*time.Second)
	if err != nil {
		c.kill()
		return nil, 0, fmt.Errorf("%s child: %w", kind, err)
	}
	c.base = "http://" + addr
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(c.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, time.Since(start), nil
			}
		}
		if time.Now().After(deadline) {
			c.kill()
			return nil, 0, fmt.Errorf("%s child never became ready: %v", kind, err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// readAddr reads the child's "ADDR host:port" line.
func readAddr(r io.Reader, timeout time.Duration) (string, error) {
	type line struct {
		s   string
		err error
	}
	ch := make(chan line, 1)
	go func() {
		s, err := bufio.NewReader(r).ReadString('\n')
		ch <- line{s, err}
	}()
	select {
	case l := <-ch:
		if l.err != nil {
			return "", fmt.Errorf("reading address: %w", l.err)
		}
		addr, ok := strings.CutPrefix(strings.TrimSpace(l.s), "ADDR ")
		if !ok {
			return "", fmt.Errorf("unexpected first line %q", l.s)
		}
		return addr, nil
	case <-time.After(timeout):
		// The reader goroutine ends when kill closes the pipe.
		return "", errors.New("no address reported")
	}
}

// peakRSS reads the child's peak resident set in MiB (VmHWM). rusage
// cannot give it: Linux folds the pre-exec memory's high-water mark, here
// the parent's, into the child's ru_maxrss at exec.
func (c *child) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM and waits for a clean exit.
func (c *child) stop() error {
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		c.kill()
		return err
	}
	waitc := make(chan error, 1)
	go func() { waitc <- c.cmd.Wait() }()
	select {
	case err := <-waitc:
		c.done = true
		if err != nil {
			return fmt.Errorf("child exit: %w", err)
		}
		return nil
	case <-time.After(60 * time.Second):
		_ = c.cmd.Process.Kill()
		<-waitc
		c.done = true
		return errors.New("child did not drain within 60s")
	}
}

// kill ends the child at once and reaps it; it is a no-op after stop, so
// error paths can defer it.
func (c *child) kill() {
	if c.done {
		return
	}
	c.done = true
	_ = c.cmd.Process.Kill()
	_ = c.cmd.Wait()
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuSeconds reads the child's user+system CPU time from /proc.
func (c *child) cpuSeconds() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// scrape reads the Prometheus text exposition into series -> value, with
// the series keyed by its full name including labels.
func scrape(client *http.Client, base string) (map[string]float64, error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// sumPrefix totals the delta of every series whose key starts with prefix.
func sumPrefix(before, after map[string]float64, prefix string) float64 {
	t := 0.0
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			t += v - before[k]
		}
	}
	return t
}
