package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
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

// fleet owns every cardirectd process a run starts, so that any exit path
// — success, harness error, signal — can stop them all and no orphan is
// ever left behind.
type fleet struct {
	bin    string // path of the cardirectd binary built for this checkout
	logDir string
	pin    pinning

	mu    sync.Mutex
	procs []*daemon
	// spinner is the idle-priority child of keepAwake, while it runs.
	spinner *exec.Cmd
}

// daemon is one running cardirectd.
type daemon struct {
	name    string
	cmd     *exec.Cmd
	base    string // http://127.0.0.1:port
	logPath string
	started time.Time
	waited  chan struct{}
	waitErr error
	// peakRSS is VmHWM in MiB, read just before the process is stopped.
	peakRSS float64
}

const listenPrefix = "cardirectd: listening on "

// start launches cardirectd with args on an ephemeral port and returns once
// it has printed its listen line. Its log goes to <logDir>/<name>.log.
func (f *fleet) start(name string, args ...string) (*daemon, error) {
	logPath := filepath.Join(f.logDir, name+".log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	cmd := exec.Command(f.bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, cmd: cmd, logPath: logPath, waited: make(chan struct{}), started: time.Now()}
	if err := f.pin.startPinned(cmd.Start); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	f.mu.Lock()
	f.procs = append(f.procs, d)
	f.mu.Unlock()

	lines := make(chan string, 1) // one listen line is all that is ever sent
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if line := sc.Text(); !sent && strings.HasPrefix(line, listenPrefix) {
				lines <- strings.TrimPrefix(line, listenPrefix)
				sent = true
			}
		}
		// Wait only after stdout is drained, as os/exec requires.
		d.waitErr = cmd.Wait()
		close(d.waited)
	}()
	select {
	case addr := <-lines:
		d.base = "http://" + addr
		return d, nil
	case <-d.waited:
		return nil, fmt.Errorf("%s exited before listening (%v); see %s", name, d.waitErr, logPath)
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("%s printed no listen line within 60s; see %s", name, logPath)
	}
}

// ready polls path until it answers 200 and returns the time since the
// process was started: the daemon's set-up time as a client sees it.
func (d *daemon) ready(client *http.Client, path string) (time.Duration, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.waited:
			return 0, fmt.Errorf("%s exited while starting (%v); see %s", d.name, d.waitErr, d.logPath)
		default:
		}
		status, _, _, err := fetch(client, "GET", d.base+path, nil, nil)
		if err == nil && status == 200 {
			return time.Since(d.started), nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, fmt.Errorf("%s: %s not ready within 60s; see %s", d.name, path, d.logPath)
}

// readRSS records the process's peak resident set (VmHWM) in MiB.
func (d *daemon) readRSS() {
	if v, err := peakRSSMiB(d.cmd.Process.Pid); err == nil && v > d.peakRSS {
		d.peakRSS = v
	}
}

// peakRSSMiB reads VmHWM of a process from /proc.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				kb, err := strconv.ParseFloat(fields[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line")
}

// liveHeapMiB forces a collection in the daemon (the heap profile endpoint
// does, with gc=1) and reads the bytes still allocated: the memory the
// served state needs, which — unlike the peak resident set — does not depend
// on when the collector happened to run during start-up.
func (d *daemon) liveHeapMiB(client *http.Client) (float64, error) {
	if status, _, _, err := fetch(client, "GET", d.base+"/debug/pprof/heap?gc=1", nil, nil); err != nil || status != 200 {
		return 0, fmt.Errorf("%s: forcing a collection: status %d, %v", d.name, status, err)
	}
	status, body, _, err := fetch(client, "GET", d.base+"/debug/vars", nil, nil)
	if err != nil || status != 200 {
		return 0, fmt.Errorf("%s: GET /debug/vars: status %d, %v", d.name, status, err)
	}
	var vars struct {
		Memstats struct{ HeapAlloc float64 } `json:"memstats"`
	}
	if err := json.Unmarshal(body, &vars); err != nil {
		return 0, fmt.Errorf("%s: /debug/vars: %w", d.name, err)
	}
	return vars.Memstats.HeapAlloc / (1 << 20), nil
}

// cpuSeconds reads the time the threads of a process have spent on a CPU,
// from the scheduler's own nanosecond accounting (/proc/<pid>/task/*/
// schedstat). Unlike the tick-sampled utime and stime it is exact, and in a
// guest it leaves out the time the host took the CPU away.
func cpuSeconds(pid int) (float64, error) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil {
		return 0, err
	}
	var ns float64
	for _, t := range tasks {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%s/schedstat", pid, t.Name()))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		fields := strings.Fields(string(data))
		if len(fields) < 1 {
			return 0, errors.New("empty schedstat")
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, err
		}
		ns += v
	}
	return ns / 1e9, nil
}

// stop asks the daemon to drain (SIGTERM) and requires a zero exit code,
// which cardirectd gives only after a clean shutdown.
func (d *daemon) stop() error {
	select {
	case <-d.waited:
		return fmt.Errorf("%s had already exited (%v); see %s", d.name, d.waitErr, d.logPath)
	default:
	}
	d.readRSS()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.waited:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("%s did not exit within 30s of SIGTERM; see %s", d.name, d.logPath)
	}
	if d.waitErr != nil {
		return fmt.Errorf("%s exited uncleanly after SIGTERM: %v; see %s", d.name, d.waitErr, d.logPath)
	}
	return nil
}

// kill is SIGKILL: the crash the durable workloads recover from, and the
// last resort on error paths. It returns once the process is gone.
func (d *daemon) kill() {
	d.readRSS()
	_ = d.cmd.Process.Kill() // an already exited process is fine
	<-d.waited
}

// killAll stops every process still running; safe to call more than once.
func (f *fleet) killAll() {
	f.mu.Lock()
	procs := append([]*daemon(nil), f.procs...)
	f.mu.Unlock()
	f.stopSpinner()
	for _, d := range procs {
		select {
		case <-d.waited:
		default:
			d.kill()
		}
	}
}
