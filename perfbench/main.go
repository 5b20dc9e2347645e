// Command perfbench is the repository benchmark. It boots the
// scrutinizerd binary built from the same checkout on a fresh temporary
// data directory, generates every input itself from -seed, sends the
// daemon only the generated CSV relations and document JSON, and drives
// one workload over the /v1 API with closed-loop clients:
//
//   - document: one client runs Algorithm 1 over whole 400-claim
//     documents (retraining batch 20), every op on a freshly created
//     corpus and verifier;
//   - serve: two clients re-verify 40-claim documents in mode=batch
//     against twelve warm verifiers, with two half-answered interactive
//     sessions parked in the journal.
//
// Usage (from the repository root; perfbench/run.sh builds both binaries
// and passes -daemon):
//
//	perfbench -daemon bin/scrutinizerd --workload serve --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 the same untraced run is followed by an in-process traced
// replay of exactly the ops the timed window completed, and the line
// carries the per-layer metrics instead. DESIGN.md records the metric
// definitions and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	workdir  string
}

// setups is how many times a run sets the daemon up (and restarts it);
// setup_s and recovery_s are the medians.
const setups = 5

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: document or serve")
	flag.Int64Var(&o.seed, "seed", 1, "seed every generated input derives from")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = also replay the window in-process with tracing and print per-layer metrics")
	flag.StringVar(&o.daemon, "daemon", "", "path to the scrutinizerd binary under test")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/runs", "scratch directory for data dirs (removed afterwards)")
	flag.Parse()
	o.trace = trace == 1
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func validate(o options) error {
	if _, ok := workloads[o.workload]; !ok {
		return fmt.Errorf("unknown workload %q (document or serve)", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.daemon == "" {
		return fmt.Errorf("-daemon is required (perfbench/run.sh builds it)")
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return fmt.Errorf("daemon binary: %w", err)
	}
	return nil
}

// run executes one benchmark run: inputs, set-ups and restarts, warm-up,
// the timed window and, when tracing, the in-process replay.
func run(o options) (*result, error) {
	e := environment()
	raw, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: environment %s\n", raw)

	in, err := workloads[o.workload](o.seed)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, o.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{opts: o, in: in, dir: dir, parallel: e.Parallel, clients: min(in.clients, e.Clients)}
	m, err := b.measure()
	if err != nil {
		return nil, err
	}
	res := &result{Correct: m.correct(), Attempted: m.attempted, Failed: m.failed}
	if !o.trace {
		res.Metrics = m.endToEnd()
		m.summarize(os.Stderr)
		return res, nil
	}
	tr, err := b.replay(m)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	res.Attempted += tr.attempted
	res.Failed += tr.failed
	res.Correct = res.Correct && tr.correct()
	res.Metrics = perLayer(m, tr)
	m.summarize(os.Stderr)
	tr.summarize(os.Stderr)
	return res, nil
}

// environ is the measurement environment, printed with every run.
type environ struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Fsync      string `json:"fsync"`
	Parallel   int    `json:"daemon_parallel"`
	Clients    int    `json:"max_clients"`
}

func environment() environ {
	n := runtime.NumCPU()
	return environ{
		GoVersion:  runtime.Version(),
		NumCPU:     n,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Fsync:      "every journal append (store.File, -data-dir)",
		Parallel:   min(2, n),
		Clients:    min(2, n),
	}
}

// cpuModel reads the processor model (best effort; Linux only).
func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// scratchDir returns a fresh directory under the run's scratch space.
func (b *bench) scratchDir(name string) (string, error) {
	d := filepath.Join(b.dir, fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
	return d, os.MkdirAll(d, 0o755)
}
