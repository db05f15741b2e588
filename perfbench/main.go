// Command perfbench is the FRAPP collection-server benchmark. It runs
// the production frapp-server as a child process on loopback, drives
// its default collection from this one process over at most two
// connections, checks the answers, and prints every metric by name.
//
// Usage (normally through perfbench/run.sh, which builds both binaries):
//
//	perfbench -server BIN -workdir DIR --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads:
//
//	ingest-census   open-loop binary submit-batch on a durable -state
//	                server: capacity ladder, fixed-rate latency phase,
//	                kill -9 durability check, read-back of the recovered
//	                collection
//	analyst-health  closed-loop /v1/query batches and full-depth
//	                /v1/mine over a pre-filled 100k-record HEALTH
//	                collection
//	mixed-mask      open-loop single-record /v1/submit beside one
//	                closed-loop analyst on an in-memory MASK collection
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics, measured over --seconds; with --trace 1 a fixed
// share of the workload's inputs is replayed in process through each
// layer's public functions and the line carries the per-layer metrics
// instead. A fuller record (box
// descriptor, server flags, sample counts, spans) is written to
// DIR/../results/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is the parsed command line.
type config struct {
	server   string
	workdir  string
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report accumulates one run's output: the result line plus the
// detail written to the results file.
type report struct {
	result
	problems []string
	samples  map[string]int
	detail   map[string]any
}

func newReport() *report {
	return &report{
		result:  result{Correct: true, Metrics: map[string]metric{}},
		samples: map[string]int{},
		detail:  map[string]any{},
	}
}

// set records a metric with the sample count it was computed from
// (0 when it is a single measurement).
func (r *report) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
	if samples > 0 {
		r.samples[name] = samples
	}
}

// fail marks the run incorrect; the reason is printed and recorded.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
}

var workloads = map[string]func(*config, *report) error{
	"ingest-census":  runIngestCensus,
	"analyst-health": runAnalystHealth,
	"mixed-mask":     runMixedMask,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.server, "server", "", "frapp-server binary")
	flag.StringVar(&cfg.workdir, "workdir", "", "working directory inside the checkout")
	flag.StringVar(&cfg.workload, "workload", "", "ingest-census, analyst-health, or mixed-mask")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = in-process traced replay reporting per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.server == "" || cfg.workdir == "" || cfg.seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -server, -workdir, a known --workload, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}
	os.Exit(execute(&cfg, run))
}

func execute(cfg *config, run func(*config, *report) error) int {
	if err := os.RemoveAll(cfg.workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer stopAllChildren()
	stopOnSignal()

	rep := newReport()
	steal0, total0 := cpuTimes()
	var err error
	if cfg.trace {
		err = runTraced(cfg, rep)
	} else {
		err = run(cfg, rep)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if steal1, total1 := cpuTimes(); total1 > total0 {
		rep.detail["cpu_steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}
	writeDetail(cfg, rep)
	printHuman(rep)
	line, err := json.Marshal(rep.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// printHuman prints one line per metric with its unit and sample count.
func printHuman(rep *report) {
	for _, name := range sortedKeys(rep.Metrics) {
		m := rep.Metrics[name]
		n := ""
		if c := rep.samples[name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("%-44s %14.4f %s%s\n", name, m.Value, m.Unit, n)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
}

// writeDetail stores the full record of the run next to the working
// directory: metrics, sample counts, the box descriptor, server flags,
// and whatever the workload added (spans on traced runs).
func writeDetail(cfg *config, rep *report) {
	dir := filepath.Join(filepath.Dir(cfg.workdir), "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
		return
	}
	rep.detail["workload"] = cfg.workload
	rep.detail["seed"] = cfg.seed
	rep.detail["seconds"] = cfg.seconds
	rep.detail["trace"] = cfg.trace
	rep.detail["box"] = boxDescriptor()
	rep.detail["result"] = rep.result
	rep.detail["samples"] = rep.samples
	rep.detail["problems"] = rep.problems
	rep.detail["finished"] = time.Now().UTC().Format(time.RFC3339)
	name := fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	data, err := json.MarshalIndent(rep.detail, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(dir, name), data, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: results:", err)
		return
	}
	fmt.Printf("detail: %s\n", filepath.Join(dir, name))
}
