package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running ebad process.
type daemon struct {
	cmd  *exec.Cmd
	URL  string
	Name string // cluster node name; "" outside a cluster
	done chan struct{}
}

// live tracks every started daemon so stopAll can end them on any
// exit path; flagsSeen keeps each role's flags for the stamp.
var (
	liveMu    sync.Mutex
	live      = map[*daemon]bool{}
	flagsSeen = map[string][]string{}
)

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// readyLine starts the line ebad prints just before it listens.
const readyLine = "ebad: listening on "

// startDaemon launches ebad listening on addr with the given flags
// (and env added to the environment) and waits until /healthz answers.
// role names the settings in the stamp.
//
// The wait blocks on the daemon's output until it prints readyLine and
// only then polls /healthz, every healthPoll, so the start-up being
// timed does not share the CPUs with a busy poller. healthPoll is the
// resolution of the cold workloads' setup_s.
func startDaemon(cfg *Config, role, addr string, env []string, flags ...string) (*daemon, error) {
	args := append([]string{"-addr", addr}, flags...)
	logPath := filepath.Join(cfg.Work, "ebad.log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(cfg.Ebad, args...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = pw, pw
	err = cmd.Start()
	pw.Close() // the daemon holds the write end now
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("start ebad: %w", err)
	}
	// Copy the daemon's output into the log until it exits, and signal
	// readiness on the way.
	ready := make(chan struct{})
	go func(ready chan struct{}) {
		defer logf.Close()
		defer pr.Close()
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			fmt.Fprintln(logf, sc.Text())
			if ready != nil && strings.HasPrefix(sc.Text(), readyLine) {
				close(ready)
				ready = nil
			}
		}
	}(ready)
	d := &daemon{cmd: cmd, URL: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we stop is not news
		close(d.done)
	}()
	liveMu.Lock()
	live[d] = true
	if _, ok := flagsSeen[role]; !ok {
		flagsSeen[role] = append(env[:len(env):len(env)], redactFlags(args)...)
	}
	liveMu.Unlock()

	timeout := time.After(30 * time.Second)
	select {
	case <-ready:
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("ebad exited during start-up (see %s)", logPath)
	case <-timeout:
		d.stop()
		return nil, errors.New("ebad did not start listening within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	for {
		resp, err := hc.Get(d.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.done:
			d.stop()
			return nil, fmt.Errorf("ebad exited during start-up (see %s)", logPath)
		case <-timeout:
			d.stop()
			return nil, errors.New("ebad did not become healthy within 30s")
		case <-time.After(healthPoll):
		}
	}
}

// healthPoll is how often startDaemon asks /healthz once the daemon
// has said it is listening.
const healthPoll = time.Millisecond

// redactFlags drops the per-run values (ports, directories) from a
// flag list so the stamp shows the settings, not the scratch paths.
func redactFlags(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "-addr", "-cachedir", "-peers", "-self":
			out = append(out, args[i]+"=…")
			i++
		default:
			out = append(out, args[i])
		}
	}
	return out
}

// daemonFlagsSeen returns each role's daemon flags for the stamp.
func daemonFlagsSeen() map[string][]string {
	liveMu.Lock()
	defer liveMu.Unlock()
	out := make(map[string][]string, len(flagsSeen))
	for k, v := range flagsSeen {
		out[k] = v
	}
	return out
}

// peakRSSMiB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop ends the daemon (SIGTERM, then SIGKILL after a grace period)
// and waits until the process has exited.
func (d *daemon) stop() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// stopAll stops every daemon still running.
func stopAll() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// startFleet launches the nodeNames ebad cluster over the cache dirs
// (one per node) and waits until every node is healthy.
func startFleet(cfg *Config, dirs []string) ([]*daemon, error) {
	addrs := make([]string, len(nodeNames))
	peers := make([]string, len(nodeNames))
	for i := range nodeNames {
		a, err := freeAddr()
		if err != nil {
			return nil, err
		}
		addrs[i] = a
		peers[i] = nodeNames[i] + "=http://" + a
	}
	fleet := make([]*daemon, 0, len(nodeNames))
	for i, name := range nodeNames {
		// Three daemons share two CPUs: one scheduler thread each, as
		// single-core nodes, instead of six contending ones.
		d, err := startDaemon(cfg, "cluster-node", addrs[i], []string{"GOMAXPROCS=1"}, "-cachedir", dirs[i],
			"-cluster", "-self", name, "-peers", strings.Join(peers, ","))
		if err != nil {
			for _, f := range fleet {
				f.stop()
			}
			return nil, err
		}
		d.Name = name
		fleet = append(fleet, d)
	}
	return fleet, nil
}

// awaitMembership waits until every node of the fleet sees every member
// alive. A node probes its peers as it boots, before the later ones
// listen, and until its next probe it routes their keys to itself.
func awaitMembership(fleet []*daemon) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for _, d := range fleet {
		for {
			var body struct {
				Members []struct {
					Alive bool `json:"alive"`
				} `json:"members"`
			}
			resp, err := hc.Get(d.URL + "/cluster/members")
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
			}
			alive := 0
			for _, m := range body.Members {
				if m.Alive {
					alive++
				}
			}
			if err == nil && alive == len(fleet) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("cluster membership did not converge within 30s (%s sees %d alive)", d.Name, alive)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	return nil
}

// commit names the checkout's commit when it is a git work tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git work tree)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest is a SHA-256 over the checkout's Go sources and module
// files (path and content, in path order): it identifies the code
// measured even where no commit is at hand.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry is left out of the digest
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}
