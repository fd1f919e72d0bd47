package harness

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"silkmoth/internal/core"
)

// Row is one measured cell of a figure: a variant at one parameter point.
type Row struct {
	Figure  string
	App     string
	Variant string
	Delta   float64
	Alpha   float64
	Sets    int
	TimeSec float64
	// Funnel counters, cumulative over all search passes of the run.
	Candidates int64
	AfterCheck int64
	AfterNN    int64
	Verified   int64
	Results    int
}

// RunConfig executes one workload under one engine configuration and
// returns its measured row. Discovery runs time index building plus the
// discovery pass (as the paper does); search runs reuse the prebuilt index
// and time only the passes.
func RunConfig(w Workload, opts core.Options, variant, figure string) Row {
	opts.Metric = w.Base.Metric
	opts.Sim = w.Base.Sim
	opts.Q = w.Base.Q
	if opts.Concurrency == 0 {
		opts.Concurrency = runtime.GOMAXPROCS(0)
	}

	row := Row{
		Figure:  figure,
		App:     w.App.String(),
		Variant: variant,
		Delta:   opts.Delta,
		Alpha:   opts.Alpha,
		Sets:    len(w.Coll.Sets),
	}

	var eng *core.Engine
	var err error
	start := time.Now()
	if w.Search {
		eng, err = core.NewEngineFromIndex(w.Index, opts)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		start = time.Now() // exclude index build for search mode
		results := 0
		for i := range w.Refs.Sets {
			ms, serr := eng.SearchContext(context.Background(), &w.Refs.Sets[i])
			if serr != nil {
				panic(fmt.Sprintf("harness: %v", serr))
			}
			results += len(ms)
		}
		row.Results = results
	} else {
		eng, err = core.NewEngine(w.Coll, opts)
		if err != nil {
			panic(fmt.Sprintf("harness: %v", err))
		}
		ps, derr := eng.DiscoverContext(context.Background(), w.Refs)
		if derr != nil {
			panic(fmt.Sprintf("harness: %v", derr))
		}
		row.Results = len(ps)
	}
	row.TimeSec = time.Since(start).Seconds()

	st := eng.Stats()
	row.Candidates = st[core.CounterCandidates]
	row.AfterCheck = st[core.CounterAfterCheck]
	row.AfterNN = st[core.CounterAfterNN]
	row.Verified = st[core.CounterVerified]
	return row
}

// WriteHeader prints the aligned column header for result rows.
func WriteHeader(out io.Writer) {
	fmt.Fprintf(out, "%-8s %-22s %-16s %6s %6s %9s %10s %11s %11s %9s %8s %10s\n",
		"figure", "app", "variant", "delta", "alpha", "sets",
		"cands", "afterCheck", "afterNN", "verified", "results", "time(s)")
}

// Write prints one row aligned under WriteHeader.
func (r Row) Write(out io.Writer) {
	fmt.Fprintf(out, "%-8s %-22s %-16s %6.2f %6.2f %9d %10d %11d %11d %9d %8d %10.3f\n",
		r.Figure, r.App, r.Variant, r.Delta, r.Alpha, r.Sets,
		r.Candidates, r.AfterCheck, r.AfterNN, r.Verified, r.Results, r.TimeSec)
}
