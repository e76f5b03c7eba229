// Command e2ebench is the repository's end-to-end benchmark. It drives
// the ebad daemon — built from the same checkout and run as its own
// process — over loopback HTTP from this one load-generating process,
// checks every answer, and prints the end-to-end metrics of one
// workload. With -trace 1 it instead takes a few untraced observations
// over HTTP, then calls each layer's public functions in-process, in
// the order the daemon calls them, records one span per call, and
// prints the per-layer metrics derived from the spans.
//
// Run it from the root of a checkout through e2ebench/run.sh, which
// builds the daemon and this program first:
//
//	bash e2ebench/run.sh --workload cold-omission --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the stamp: machine, build, seed, daemon flags and sample counts (and,
// traced, the per-instance cost table). A wrong answer or a digest
// mismatch makes correct false and the exit status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome: what the run prints as its last line
// plus the stamp's sample counts and free-form details.
type Result struct {
	Attempted int
	Failed    int
	Errors    []string // first few failure descriptions, for the stamp
	Metrics   map[string]Metric
	Samples   map[string]int
	Details   map[string]any
}

func newResult() *Result {
	return &Result{Metrics: map[string]Metric{}, Samples: map[string]int{}, Details: map[string]any{}}
}

// set records a metric with its sample count.
func (r *Result) set(name, unit string, value float64, samples int) {
	r.Metrics[name] = Metric{Value: value, Unit: unit}
	r.Samples[name] = samples
}

// fail counts one failed operation and keeps its description.
func (r *Result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Config is one invocation's settings.
type Config struct {
	Workload string
	Seed     int64
	Seconds  int
	Root     string // checkout root
	Ebad     string // daemon binary
	Work     string // scratch directory for daemon cache dirs and logs
}

// workloads maps a workload name to its untraced run.
var workloads = map[string]func(*Config, *Result) error{
	"cold-omission": func(c *Config, r *Result) error { return runCold(c, r, omissionKey) },
	"cold-crash":    func(c *Config, r *Result) error { return runCold(c, r, crashKey) },
	"serve-mix":     runServeMix,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg Config
	var trace int
	flag.StringVar(&cfg.Workload, "workload", "", "cold-omission | cold-crash | serve-mix")
	flag.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.Seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.StringVar(&cfg.Root, "root", ".", "checkout root")
	flag.StringVar(&cfg.Ebad, "ebad", "", "ebad binary built from the checkout")
	flag.StringVar(&cfg.Work, "work", "", "scratch directory (default <root>/.bench_build/work)")
	flag.Parse()
	wl, ok := workloads[cfg.Workload]
	if !ok || cfg.Seconds < 1 || cfg.Ebad == "" || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -ebad, -workload in {cold-omission, cold-crash, serve-mix}, -seconds >= 1 and -trace 0|1")
		return 2
	}
	if cfg.Work == "" {
		cfg.Work = filepath.Join(cfg.Root, ".bench_build", "work")
	}
	cfg.Work = filepath.Join(cfg.Work, fmt.Sprintf("%s-%d-%d", cfg.Workload, trace, os.Getpid()))
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	defer os.RemoveAll(cfg.Work)

	// Every daemon this process starts is stopped before it exits, on
	// a signal too.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.RemoveAll(cfg.Work)
		os.Exit(3)
	}()
	defer stopAll()

	res := newResult()
	steal0, total0 := cpuTicks()
	var err error
	if trace == 1 {
		err = runTraced(&cfg, res)
	} else {
		err = wl(&cfg, res)
	}
	stopAll()
	if err != nil {
		// An infrastructure failure (a daemon that will not start, a
		// build that is missing) is not a measurement: no result line.
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	if res.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: no operation attempted")
		return 1
	}
	steal1, total1 := cpuTicks()
	if total1 > total0 {
		res.Details["host_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	printStamp(&cfg, trace, res)
	out := map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   res.Metrics,
	}
	line, _ := json.Marshal(out)
	fmt.Println(string(line))
	if res.Failed > 0 {
		for _, e := range res.Errors {
			fmt.Fprintln(os.Stderr, "e2ebench: FAIL:", e)
		}
		return 1
	}
	return 0
}

// printStamp prints the line that keeps these numbers from being
// mistaken for another machine's: environment, build, inputs, daemon
// flags, and each metric's sample count.
func printStamp(cfg *Config, trace int, res *Result) {
	stamp := map[string]any{
		"workload":   cfg.Workload,
		"seed":       cfg.Seed,
		"seconds":    cfg.Seconds,
		"trace":      trace,
		"cpus":       runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(cfg.Root),
		"source":     sourceDigest(cfg.Root),
		"daemon":     daemonFlagsSeen(),
		"samples":    res.Samples,
		"error_rate": float64(res.Failed) / math.Max(1, float64(res.Attempted)),
	}
	for k, v := range res.Details {
		stamp[k] = v
	}
	if len(res.Errors) > 0 {
		stamp["errors"] = res.Errors
	}
	line, err := json.Marshal(map[string]any{"stamp": stamp})
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: stamp:", err)
		return
	}
	fmt.Println(string(line))
}

// cpuTicks reads the all-CPU line of /proc/stat: the ticks the
// hypervisor stole from this machine, and all ticks. The stamp reports
// the stolen share over the run, because on a shared virtual machine
// steal slows every metric at once and for minutes at a time.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest guest_nice]:
	// guest time is already counted in user and nice.
	for i := 1; i < len(fields) && i <= 8; i++ {
		v, _ := strconv.ParseUint(fields[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// quantile is the nearest-rank p-quantile (0 < p <= 1) of xs: the
// smallest sample with at least ceil(p·N) samples at or below it. It
// sorts xs in place.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

// ms converts a duration to fractional milliseconds, every digit kept.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
