package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// checks counts the operations a pass attempted and the ones that failed:
// child exits, expect lines, golden and cross-checks, HTTP requests.
type checks struct {
	Attempted, Failed int
	Notes             []string // one line per failure
}

// ok records one operation and whether it held.
func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.Attempted++
	if !cond {
		c.Failed++
		c.note(fmt.Sprintf(format, args...))
	}
	return cond
}

// note keeps the first few failure lines; Failed has the full count.
func (c *checks) note(line string) {
	if len(c.Notes) < 10 {
		c.Notes = append(c.Notes, line)
	}
}

func (c *checks) add(o checks) {
	c.Attempted += o.Attempted
	c.Failed += o.Failed
	for _, line := range o.Notes {
		c.note(line)
	}
}

// child is one finished process with what the kernel accounted to it.
type child struct {
	Stdout string
	Wall   time.Duration
	CPU    time.Duration
	RSSMB  float64
}

// runChild runs bin to completion. Stderr (progress notices) is kept only
// for the error message.
func runChild(bin string, args ...string) (child, error) {
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return child{}, err
	}
	// Sample the child's peak RSS until it exits; the peak only grows, so
	// the last sample is at most one interval short.
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		hwm := peakRSSMB(cmd.Process.Pid)
		for {
			select {
			case <-done:
				peak <- hwm
				return
			case <-tick.C:
				hwm = max(hwm, peakRSSMB(cmd.Process.Pid))
			}
		}
	}()
	err := cmd.Wait()
	c := child{Stdout: stdout.String(), Wall: time.Since(start)}
	close(done)
	c.RSSMB = <-peak
	c.CPU = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if err != nil {
		err = fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, stderr.String())
	}
	return c, err
}

// peakRSSMB reads the peak resident set (VmHWM) of a live process, 0 once
// it is gone. The ru_maxrss that wait4 hands a parent cannot serve: Linux
// starts it at the parent's own peak when the child execs, and after a
// traced pass the harness is larger than most of its children.
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kib * 1024 / 1e6
		}
	}
	return 0
}

// pass is one run of a workload through the shipped binaries.
type pass struct {
	Wall   time.Duration
	CPU    time.Duration
	RSSMB  float64
	Rounds int64 // simulated rounds, an exact count
	// Table is the deterministic stdout of the run (local workloads).
	Table string
	// Results holds one canonical line (resultLine, gridLine) per run or
	// grid point the pass reported: what the traced pass must reproduce.
	Results []string
	Checks  checks
	// daemon-sessions only.
	Daemon *daemonStats
}

// files lays out the generated inputs and outputs of one workload under
// the work directory.
type files struct{ dir string }

func (f files) spec(s scenario) string { return filepath.Join(f.dir, s.Name+".yaml") }
func (f files) ckpt() string           { return filepath.Join(f.dir, "round.ckpt") }
func (f files) events() string         { return filepath.Join(f.dir, "events.jsonl") }

// writeSpecs renders every scenario of w into the work directory.
func (f files) writeSpecs(w workload) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	for _, s := range w.Specs {
		if err := os.WriteFile(f.spec(s), []byte(s.yaml()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runLocal drives a local workload through gossipsim once, checking every
// child's exit, its expect line and — on mobile-churn — that the resumed
// leg prints the uninterrupted run's table.
func runLocal(gossipsim string, w workload, f files) pass {
	var p pass
	leg := func(args ...string) (child, bool) {
		c, err := runChild(gossipsim, append([]string{"run"}, args...)...)
		p.Wall += c.Wall
		p.CPU += c.CPU
		p.RSSMB = math.Max(p.RSSMB, c.RSSMB)
		ok := p.Checks.ok(err == nil, "%v", err)
		p.Checks.ok(strings.Contains(c.Stdout, "\nexpect: ok ("), "%s: no \"expect: ok\" line", args[len(args)-1])
		return c, ok
	}
	for _, s := range w.Specs {
		var args []string
		if w.EngineWorkers > 0 {
			args = append(args, "-engineworkers", strconv.Itoa(w.EngineWorkers))
		}
		if w.CheckpointAt > 0 {
			args = append(args, "-events", f.events(), "-checkpoint", f.ckpt(), "-checkpointat", strconv.Itoa(w.CheckpointAt))
		}
		c, ok := leg(append(args, f.spec(s))...)
		p.Table += c.Stdout
		if !ok {
			continue
		}
		runs, rounds, err := parseTable(c.Stdout, s)
		p.Checks.ok(err == nil, "%s: %v", s.Name, err)
		p.Results = append(p.Results, runs...)
		p.Rounds += rounds

		if w.CheckpointAt > 0 {
			resumed, ok := leg("-resume", f.ckpt(), f.spec(s))
			p.Checks.ok(resumed.Stdout == c.Stdout, "%s: the resumed leg's table differs from the uninterrupted run's", s.Name)
			if ok {
				// The second leg simulates only the rounds after the checkpoint.
				p.Rounds += rounds - int64(w.CheckpointAt)
			}
			log, err := decodeEventsFile(f.events())
			p.Checks.ok(err == nil && log.Ended && int64(log.Rounds) == rounds,
				"%s: events file holds %d rounds (session_end: %v, %v), the table %d", s.Name, log.Rounds, log.Ended, err, rounds)
		}
	}
	return p
}

func decodeEventsFile(path string) (eventLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return eventLog{}, err
	}
	defer f.Close()
	return decodeEvents(f)
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// resultLine is the canonical one-line form of a finished run's result,
// built from the CLI table by parseTable and from the session API by the
// traced pass; the two must agree.
func resultLine(rounds int, connections, proposals, controlBits, tokensMoved int64) string {
	return fmt.Sprintf("rounds=%d connections=%d proposals=%d control_bits=%d tokens_moved=%d",
		rounds, connections, proposals, controlBits, tokensMoved)
}

// gridLine is resultLine's counterpart for one grid point: the aggregate
// columns exactly as the sweep table prints them.
func gridLine(n, k, trials, solved int, meanRounds float64, minRounds, maxRounds int, meanConns float64) string {
	return fmt.Sprintf("%d %d %d %d %.1f [%d,%d] %.0f", n, k, trials, solved, meanRounds, minRounds, maxRounds, meanConns)
}

// parseTable reads a gossipsim run table into canonical result lines — one
// for a single run, one per point for a grid — and the total of simulated
// rounds.
func parseTable(out string, s scenario) ([]string, int64, error) {
	lines := strings.Split(out, "\n")
	if s.Grid == nil {
		var v [5]int64
		for i, label := range []string{"rounds", "connections", "proposals", "control bits", "tokens moved"} {
			found := false
			for _, line := range lines {
				if rest, ok := strings.CutPrefix(line, label+"  "); ok {
					n, err := strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
					if err != nil {
						return nil, 0, fmt.Errorf("table row %q: %w", line, err)
					}
					v[i], found = n, true
				}
			}
			if !found {
				return nil, 0, fmt.Errorf("table has no %q row", label)
			}
		}
		return []string{resultLine(int(v[0]), v[1], v[2], v[3], v[4])}, v[0], nil
	}

	// Grid rows: algorithm topology n k trials solved mean [min,max] conns.
	// The table prints mean rounds to one decimal. Every grid here has 4
	// trials (error below 0.05×4) or equal, capped rounds in every cell, so
	// rounding mean×trials recovers the exact total.
	var rows []string
	var total int64
	for _, line := range lines {
		fs := strings.Fields(line)
		if len(fs) != 9 || fs[0] != s.Algorithm.String() {
			continue
		}
		trials, err1 := strconv.Atoi(fs[4])
		mean, err2 := strconv.ParseFloat(fs[6], 64)
		if err1 != nil || err2 != nil {
			return nil, 0, fmt.Errorf("unreadable grid row %q", line)
		}
		rows = append(rows, strings.Join(fs[2:], " "))
		total += int64(math.Round(mean * float64(trials)))
	}
	if want := len(s.Grid.N) * len(s.Grid.K); len(rows) != want {
		return nil, 0, fmt.Errorf("grid table has %d rows, want %d", len(rows), want)
	}
	return rows, total, nil
}
