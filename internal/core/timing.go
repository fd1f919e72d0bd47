package core

import (
	"sync/atomic"
	"time"

	"silkmoth/internal/obs"
)

// Stage identifies one stage of the search-pass pipeline for timing and
// histogram purposes. The order mirrors execution: signature generation,
// candidate collection + check filter, nearest-neighbor refinement, exact
// verification (the full-scan fallback charges verification).
type Stage int

const (
	StageSignature Stage = iota
	StageCollect
	StageRefine
	StageVerify
	// NumStages sizes per-stage arrays.
	NumStages
)

// String returns the stage's metric label.
func (s Stage) String() string {
	switch s {
	case StageSignature:
		return "signature"
	case StageCollect:
		return "collect"
	case StageRefine:
		return "refine"
	case StageVerify:
		return "verify"
	default:
		return "unknown"
	}
}

// DefaultStageSample is the default per-worker sampling interval for stage
// timing: one in every DefaultStageSample search passes is wall-timed.
// Sampling keeps the four time.Now pairs off most hot-loop passes while
// still feeding the stage histograms continuously; explained queries are
// always timed regardless.
const DefaultStageSample = 16

// sampleTick reports whether this pass should be stage-timed, advancing
// the worker's private pass counter. Workers are single-goroutine, so the
// counter needs no atomics; pooled workers keep their phase across
// queries, which only shifts which passes get sampled, not the rate.
func (w *worker) sampleTick(every int) bool {
	if every <= 0 {
		return false
	}
	if every == 1 {
		return true
	}
	w.passSeq++
	return w.passSeq%int64(every) == 0
}

// finishTiming folds a timed pass's per-stage wall time into the worker's
// stats shard, the query's capture, and the engine's stage histograms.
// refine/verify accumulated under atomics (parallel verification shares
// the plan across goroutines); by the time this runs those goroutines have
// been joined.
func (p *plan) finishTiming() {
	p.charge(p.w, CounterTimedPasses, 1)
	for s := range p.nanos {
		ns := atomic.LoadInt64(&p.nanos[s])
		p.charge(p.w, stageCounter(Stage(s)), ns)
		p.e.stage[s].Observe(time.Duration(ns))
	}
}

// StageLatencies returns snapshots of the engine's per-stage latency
// histograms, indexed by Stage. Each observation is one timed search
// pass's wall time in that stage.
func (e *Engine) StageLatencies() [NumStages]obs.HistogramSnapshot {
	var out [NumStages]obs.HistogramSnapshot
	for i := range e.stage {
		out[i] = e.stage[i].Snapshot()
	}
	return out
}
