// Command perfbench is the repository's benchmark. It generates one of four
// seeded workloads, drives it into silkmothd's HTTP handler in process
// (server.Server.ServeHTTP) or into the engine's discovery API, checks the
// answers against a brute-force oracle, and prints one JSON result as the
// last line of standard output: the end-to-end metrics, or with -trace 1
// the per-layer metrics of a traced run. Build and run it from the root of
// the repository with
//
//	bash perfbench/run.sh --workload schema-read --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

// run is the state one invocation shares across its phases.
type run struct {
	spec    *spec
	seed    int64
	seconds time.Duration
	traced  bool
	work    string // scratch directory for data directories, removed at exit
	outDir  string // .bench_build: traces are written here
	rep     *report
	// attempted/failed count operations and answer checks; problems
	// describe each failure for the report.
	mu                sync.Mutex
	attempted, failed int64
	problems          []string
}

// fail counts one failed operation or check; it is safe for concurrent
// use.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func main() {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same corpus and queries")
		seconds  = flag.Int("seconds", 10, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs a traced run and reports the per-layer metrics")
		root     = flag.String("root", ".", "checkout root; scratch data goes under its .bench_build directory")
	)
	flag.Parse()
	correct, err := mainErr(*workload, *seed, *seconds, *trace, *root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// mainErr runs one workload and prints its result. It reports whether
// every answer checked out; an error means no result was printed.
func mainErr(workload string, seed int64, seconds, trace int, root string) (bool, error) {
	r, metrics, err := execute(workload, seed, seconds, trace, root)
	if err != nil {
		return false, err
	}
	r.rep.print(os.Stdout)
	for _, p := range r.problems {
		fmt.Println("FAILED:", p)
	}
	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   metrics,
	}
	line, err := json.Marshal(res)
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return res.Correct, nil
}

// execute runs one workload, returning the run and the metrics of the
// table its mode reports.
func execute(workload string, seed int64, seconds, trace int, root string) (*run, map[string]resultMetric, error) {
	if seconds < 1 {
		return nil, nil, fmt.Errorf("-seconds must be at least 1")
	}
	if trace != 0 && trace != 1 {
		return nil, nil, fmt.Errorf("-trace must be 0 or 1")
	}
	sp, err := newSpec(workload, seed)
	if err != nil {
		return nil, nil, err
	}
	outDir := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)

	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	r := &run{
		spec:    sp,
		seed:    seed,
		seconds: time.Duration(seconds) * time.Second,
		traced:  trace == 1,
		work:    work,
		outDir:  outDir,
		rep:     newReport(defs),
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d %s sets=%d queries=%d\n",
		sp.name, seed, seconds, trace, runtime.GOMAXPROCS(0), runtime.Version(), len(sp.raws), len(sp.pool))
	if sp.discover {
		err = runDiscover(r)
	} else {
		err = runHTTP(r)
	}
	if err != nil {
		return nil, nil, err
	}
	if r.attempted < 1 {
		return nil, nil, fmt.Errorf("no operation completed in %v", r.seconds)
	}
	r.rep.set("error_rate", ratio(float64(r.failed), float64(r.attempted)), int(r.attempted))
	metrics, err := r.rep.finish()
	return r, metrics, err
}

// print writes every measured metric, with unit and sample count, and the
// reason for each one that does not apply.
func (r *report) print(w *os.File) {
	units := map[string]string{}
	for _, d := range endToEnd {
		units[d.Name] = d.Unit
	}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if why, ok := r.na[n]; ok {
			fmt.Fprintf(w, "  %-32s n/a: %s\n", n, why)
			continue
		}
		fmt.Fprintf(w, "  %-32s %14.6g %-6s n=%d\n", n, r.values[n], units[n], r.samples[n])
	}
}
