// Command gossipbench is the repository's benchmark: one command that
// builds gossipsim and gossipd, generates five named workloads from a seed,
// runs each through the shipped binaries with tracing off, checks every
// output, and prints the end-to-end metrics; a second, traced pass re-drives
// the same inputs through the public API and prints the per-layer metrics.
// README.md has the workloads, the metrics and how they interact.
//
//	bash bench/run.sh                                  # every workload, both passes (or: go run -C bench .)
//	bash bench/run.sh --workload wide-k --trace 0      # one run, as the driver makes it
//	bash bench/run.sh --compare A/results.json B/results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// defaultSeed is the seed the committed golden tables were taken at.
const defaultSeed = 1

// setupRepeats is how often a run sets up; setup_s is the median.
const setupRepeats = 3

type options struct {
	root     string // checkout root ("": the working directory, or its parent inside bench)
	out      string // results, traces and generated inputs go here
	workload string // "" = all
	trace    string // "0", "1" or "" = both
	seed     uint64
	seconds  int
	smoke    bool
	update   bool // rewrite the golden tables
}

func main() {
	var o options
	var scale string
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all five)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "mixed into every generated spec seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measuring budget per workload: a workload is repeated while another repeat fits, at least once")
	flag.StringVar(&o.trace, "trace", "", "0 = end-to-end pass only, 1 = traced pass only (default: both)")
	flag.StringVar(&scale, "scale", "full", "full, or smoke (sizes divided by about 20, for the test)")
	flag.StringVar(&o.out, "out", "bench/out", "directory for results.json, traces and generated inputs")
	flag.BoolVar(&o.update, "update-golden", false, "rewrite bench/golden from this run (default seed, full scale)")
	flag.BoolVar(&compare, "compare", false, "compare two results.json files given as arguments and exit")
	flag.Parse()
	if compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two results.json files"))
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 || (scale != "full" && scale != "smoke") || !slices.Contains([]string{"", "0", "1"}, o.trace) {
		flag.Usage()
		os.Exit(2)
	}
	o.smoke = scale == "smoke"
	res, err := run(o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gossipbench:", err)
	os.Exit(1)
}

// value is one reported metric. Runs holds each repeat's raw value beside
// the median in Value.
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Runs  []float64 `json:"runs,omitempty"`
}

// workloadResult is everything one workload reported.
type workloadResult struct {
	Workload  string           `json:"workload"`
	Rounds    int64            `json:"rounds"` // simulated per pass, exact
	Repeats   int              `json:"repeats"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Notes     []string         `json:"failures,omitempty"`
	EndToEnd  map[string]value `json:"end_to_end,omitempty"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
}

// results is the results.json document.
type results struct {
	Env       environment      `json:"env"`
	Workloads []workloadResult `json:"workloads"`
}

func (r results) correct() bool {
	for _, w := range r.Workloads {
		if w.Failed > 0 {
			return false
		}
	}
	return true
}

// environment fingerprints a run.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
	Seconds    int    `json:"seconds"`
}

func fingerprint(o options) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), CPUModel: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Scale: "full", Seconds: o.seconds,
	}
	if o.smoke {
		env.Scale = "smoke"
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = o.root
	if out, err := git.Output(); err == nil { // the driver's checkout is not a repository
		env.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// binaries are the shipped programs the end-to-end pass runs.
type binaries struct {
	gossipsim, gossipd string
	buildTime          time.Duration
}

// build compiles gossipsim and gossipd from the checkout into .bench_build.
func build(root string) (binaries, error) {
	dir := filepath.Join(root, ".bench_build", "bin")
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/gossipsim", "./cmd/gossipd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return binaries{}, fmt.Errorf("go build: %w\n%s", err, out)
	}
	return binaries{
		gossipsim: filepath.Join(dir, "gossipsim"), gossipd: filepath.Join(dir, "gossipd"),
		buildTime: time.Since(start),
	}, nil
}

// run executes the selected workloads and passes, prints every metric, and
// writes results.json and the traces under o.out.
func run(o options, out io.Writer) (results, error) {
	if o.root == "" {
		// The driver runs from the checkout root; `go run -C bench .` and
		// `go test` run from bench.
		o.root = "."
		if _, err := os.Stat(filepath.Join("bench", "go.mod")); err != nil {
			o.root = ".."
		}
	}
	var err error
	if o.root, err = filepath.Abs(o.root); err != nil {
		return results{}, err
	}
	if !filepath.IsAbs(o.out) {
		o.out = filepath.Join(o.root, o.out)
	}
	res := results{Env: fingerprint(o)}
	var selected []workload
	for _, w := range workloads(o.smoke) {
		if o.workload == "" || o.workload == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		return res, fmt.Errorf("unknown workload %q", o.workload)
	}
	bins, err := build(o.root)
	if err != nil {
		return res, err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return res, err
	}
	fmt.Fprintf(out, "# commit %s, %s, %s, %d CPUs, GOMAXPROCS %d, seed %d, scale %s, %ds per workload\n",
		res.Env.Commit, res.Env.GoVersion, res.Env.CPUModel, res.Env.NumCPU, res.Env.GOMAXPROCS,
		res.Env.Seed, res.Env.Scale, res.Env.Seconds)
	for _, w := range selected {
		wr, err := runWorkload(o, bins, w)
		if err != nil {
			return res, fmt.Errorf("%s: %w", w.Name, err)
		}
		res.Workloads = append(res.Workloads, wr)
		printWorkload(out, wr)
	}
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return res, err
	}
	if err := os.WriteFile(filepath.Join(o.out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return res, err
	}
	// One workload and one pass is how the driver runs the benchmark: it
	// reads the last line of standard output.
	if o.workload != "" && o.trace != "" {
		fmt.Fprintln(out, driverLine(res.Workloads[0], o.trace))
	}
	return res, nil
}

// prepared is a workload after its untimed set-up.
type prepared struct {
	w         workload
	refs      []reference
	localCost time.Duration
	daemon    *daemonProc
}

// prepare does everything that is not timed: it fixes the spec seeds and
// writes the scenario files, then warms up. A local workload runs its
// specs once at smoke scale, which pages gossipsim in and proves the
// generated files parse before the long run; the daemon workload runs the
// local references, starts gossipd and drives a few sessions through it.
func prepare(o options, bins binaries, w workload, f files) (prepared, checks, error) {
	var ck checks
	w, err := generate(w, o.seed)
	if err != nil {
		return prepared{}, ck, err
	}
	p := prepared{w: w}
	if err := f.writeSpecs(w); err != nil {
		return p, ck, err
	}
	if w.Daemon == nil {
		all := workloads(true)
		small := all[slices.IndexFunc(all, func(s workload) bool { return s.Name == w.Name })]
		if small, err = generate(small, o.seed); err != nil {
			return p, ck, err
		}
		wf := files{dir: filepath.Join(f.dir, "warmup")}
		if err := wf.writeSpecs(small); err != nil {
			return p, ck, err
		}
		return p, runLocal(bins.gossipsim, small, wf).Checks, nil
	}
	if p.refs, p.localCost, err = references(w, o.seed); err != nil {
		return p, ck, err
	}
	if p.daemon, err = startDaemon(bins.gossipd, filepath.Join(f.dir, "gossipd"), *w.Daemon); err != nil {
		return p, ck, err
	}
	ck, _, _ = driveSessions(p.daemon.addr, w, p.refs, 0, w.Daemon.Warmup, nil)
	return p, ck, nil
}

// pass runs the prepared workload once through the shipped binaries.
func (p *prepared) pass(bins binaries, f files, tr *tracer) (pass, error) {
	if p.daemon != nil {
		return loadPass(p.daemon, p.w, p.refs, tr)
	}
	return runLocal(bins.gossipsim, p.w, f), nil
}

// close stops the daemon, if the workload has one, and returns its
// process accounting.
func (p *prepared) close() (cpu time.Duration, rssMB float64) {
	if p.daemon == nil {
		return 0, 0
	}
	cpu, rssMB = p.daemon.stop()
	p.daemon = nil
	return cpu, rssMB
}

// runWorkload sets the workload up, repeats the untraced pass while
// another repeat fits the budget, then makes the traced pass.
func runWorkload(o options, bins binaries, w workload) (workloadResult, error) {
	wr := workloadResult{Workload: w.Name}
	var all checks
	f := files{dir: filepath.Join(o.out, "work", w.Name)}
	if err := os.RemoveAll(f.dir); err != nil {
		return wr, err
	}

	var prep prepared
	defer func() { prep.close() }()
	var setups []float64
	for range setupRepeats {
		prep.close()
		start := time.Now()
		p, ck, err := prepare(o, bins, w, f)
		prep = p
		if err != nil {
			return wr, err
		}
		setups = append(setups, time.Since(start).Seconds())
		all.add(ck)
	}

	// The untraced passes. The traced pass needs one as its baseline even
	// when only it was asked for.
	budget := time.Duration(o.seconds) * time.Second
	var passes []pass
	var longest time.Duration
	for start := time.Now(); len(passes) == 0 || (o.trace != "1" && time.Since(start)+longest <= budget); {
		began := time.Now()
		p, err := prep.pass(bins, f, nil)
		if err != nil {
			return wr, err
		}
		longest = max(longest, time.Since(began))
		all.add(p.Checks)
		if len(passes) > 0 {
			all.ok(p.Table == passes[0].Table && p.Rounds == passes[0].Rounds,
				"repeat %d printed a different table than the first", len(passes)+1)
		}
		passes = append(passes, p)
	}
	base := passes[0]
	wr.Rounds, wr.Repeats = base.Rounds, len(passes)
	prep.close()
	if w.Daemon == nil && o.seed == defaultSeed && !o.smoke {
		checkGolden(o, w, base.Table, &all)
	}

	if o.trace != "1" {
		e2e := map[string][]float64{"setup_s": setups}
		for _, p := range passes {
			e2e["wall_s"] = append(e2e["wall_s"], p.Wall.Seconds())
			e2e["rounds_per_s"] = append(e2e["rounds_per_s"], ratio(float64(p.Rounds), p.Wall.Seconds()))
		}
		wr.EndToEnd = make(map[string]value)
		for _, m := range endToEnd {
			wr.EndToEnd[m.Name] = value{Value: median(e2e[m.Name]), Unit: m.Unit, Runs: e2e[m.Name]}
		}
	}

	if o.trace != "0" {
		var layers map[string]float64
		var tr *tracer
		if w.Daemon != nil {
			// A fresh gossipd, so its CPU covers this pass and its warm-up only.
			p, ck, err := prepare(o, bins, w, f)
			prep = p
			if err != nil {
				return wr, err
			}
			all.add(ck)
			tr = newTracer()
			tp, err := prep.pass(bins, f, tr)
			if err != nil {
				return wr, err
			}
			all.add(tp.Checks)
			tp.CPU, tp.RSSMB = prep.close()
			layers = traceDaemon(prep.w, tp, base, tr, prep.localCost)
		} else {
			var ck checks
			var err error
			if layers, tr, ck, err = traceLocal(prep.w, f, base); err != nil {
				return wr, err
			}
			all.add(ck)
		}
		layers["proc.build_s"] = bins.buildTime.Seconds()
		if err := tr.writeFile(filepath.Join(o.out, "trace-"+w.Name+".jsonl")); err != nil {
			return wr, err
		}
		wr.PerLayer = make(map[string]value)
		for _, m := range perLayer {
			if v, ok := layers[m.Name]; ok {
				wr.PerLayer[m.Name] = value{Value: v, Unit: m.Unit}
				delete(layers, m.Name)
			}
		}
		for name := range layers {
			return wr, fmt.Errorf("the traced pass set %q, which metrics.go does not name", name)
		}
	}
	wr.Attempted, wr.Failed, wr.Notes = all.Attempted, all.Failed, all.Notes
	return wr, nil
}

// checkGolden byte-compares the run's tables with the committed ones.
func checkGolden(o options, w workload, table string, ck *checks) {
	path := filepath.Join(o.root, "bench", "golden", w.Name+".table.txt")
	if o.update {
		ck.ok(os.WriteFile(path, []byte(table), 0o644) == nil, "cannot write %s", path)
		return
	}
	want, err := os.ReadFile(path)
	ck.ok(err == nil && string(want) == table, "%s: table differs from %s (%v)", w.Name, path, err)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// printWorkload lists every metric the workload reported with its unit.
func printWorkload(out io.Writer, wr workloadResult) {
	fmt.Fprintf(out, "\n%s: %d rounds per pass, %d repeat(s), %d operations, %d failed\n",
		wr.Workload, wr.Rounds, wr.Repeats, wr.Attempted, wr.Failed)
	for _, note := range wr.Notes {
		fmt.Fprintf(out, "  FAILED %s\n", note)
	}
	for _, table := range []struct {
		defs   []metricDef
		values map[string]value
	}{{endToEnd, wr.EndToEnd}, {perLayer, wr.PerLayer}} {
		for _, m := range table.defs {
			if v, ok := table.values[m.Name]; ok {
				fmt.Fprintf(out, "  %-36s %16.4f %s\n", m.Name, v.Value, v.Unit)
			}
		}
	}
}

// driverLine is the one-line JSON result the driver reads: every
// end-to-end metric with trace 0, every per-layer metric with trace 1. A
// layer the workload does not enter reads 0.
func driverLine(wr workloadResult, trace string) string {
	defs, values := endToEnd, wr.EndToEnd
	if trace == "1" {
		defs, values = perLayer, wr.PerLayer
	}
	metrics := make(map[string]value)
	for _, m := range defs {
		metrics[m.Name] = value{Value: values[m.Name].Value, Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Failed == 0, wr.Attempted, wr.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(line)
}
