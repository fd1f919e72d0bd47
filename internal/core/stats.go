package core

import (
	"sync/atomic"

	"silkmoth/internal/signature"
)

// Counter names one count of the pipeline funnel: signature generation
// (size and chosen scheme), candidate selection, the check filter, the
// nearest-neighbor filter, exact verification, and the sampled per-stage
// wall time. It indexes Counters.
type Counter int

const (
	// CounterPasses counts search passes.
	CounterPasses Counter = iota
	// CounterFullScans counts passes that fell back to comparing every
	// set because no valid signature existed (edit similarity, §7.3).
	CounterFullScans
	// CounterSigTokens counts per-element signature tokens generated
	// across signatured passes — the index probe volume.
	CounterSigTokens
	// CounterCandidates counts sets matched by signature tokens before any
	// refinement (the signature scheme's selectivity, Figure 5's driver).
	// CounterAfterCheck/CounterCheckPruned split them by the check filter
	// (Candidates = AfterCheck + CheckPruned on check-filtered passes), and
	// CounterAfterNN/CounterNNPruned split the survivors by the
	// nearest-neighbor filter (AfterNN = AfterCheck when it is off).
	CounterCandidates
	CounterAfterCheck
	CounterCheckPruned
	CounterAfterNN
	CounterNNPruned
	// CounterVerified counts maximum-matching computations.
	CounterVerified
	// The four scheme counters count signatured passes by the concrete
	// scheme that generated the probe signature: under Scheme Auto they
	// expose the per-query cost-based choice, under a fixed scheme exactly
	// one grows. They follow signature.Kind's order (see schemeCounter).
	CounterSchemeWeighted
	CounterSchemeCombUnweighted
	CounterSchemeSkyline
	CounterSchemeDichotomy
	// CounterTimedPasses counts the passes whose stages were wall-timed
	// (sampled per Options.StageSample, plus every pass of a query with a
	// capture); the four stage counters after it, in Stage order, hold
	// those passes' summed per-stage nanoseconds (see stageCounter).
	CounterTimedPasses
	CounterSignatureNanos
	CounterCollectNanos
	CounterRefineNanos
	CounterVerifyNanos
	// CounterElapsedNanos is wall time a caller measured around a query
	// (batch paths, per item); the pipeline never charges it.
	CounterElapsedNanos
	// NumCounters sizes Counters.
	NumCounters
)

// counterNames is the one name table, in Counter order. Funnel counters
// use their /v1/explain and slow-query log keys, scheme counters the
// public scheme names (Explain.Schemes keys, the /metrics scheme label).
var counterNames = [NumCounters]string{
	"passes", "full_scans", "sig_tokens", "candidates",
	"after_check", "check_pruned", "after_nn", "nn_pruned", "verified",
	"weighted", "combunweighted", "skyline", "dichotomy",
	"timed_passes", "signature_ns", "collect_ns", "refine_ns", "verify_ns",
	"elapsed_ns",
}

// String returns the counter's wire name.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return "unknown"
	}
	return counterNames[c]
}

// schemeCounter returns the counter of concrete scheme k. The selector
// always resolves Auto to a concrete scheme before a pass probes.
func schemeCounter(k signature.Kind) Counter { return CounterSchemeWeighted + Counter(k) }

// stageCounter returns the nanoseconds counter of stage s.
func stageCounter(s Stage) Counter { return CounterSignatureNanos + Counter(s) }

// Counters is one set of funnel counts, indexed by Counter. It serves as
// the engine's cumulative counters, as each worker's private shard of
// them, and as a query's own capture (Query.Stats), which the concurrent
// passes of one query may share. Adds are atomic; read a capture only
// after its query returns, and the engine's counters through
// Engine.Stats.
type Counters [NumCounters]int64

// Add charges n to counter c. It is nil-safe so the pipeline charges an
// optional query capture unconditionally; a query without one pays one
// predicted branch.
func (cs *Counters) Add(c Counter, n int64) {
	if cs != nil {
		atomic.AddInt64(&cs[c], n)
	}
}

// Load returns an atomic point-in-time copy of the counters.
func (cs *Counters) Load() Counters {
	var out Counters
	for c := range cs {
		out[c] = atomic.LoadInt64(&cs[c])
	}
	return out
}

// merge folds a retiring worker's shard into cs. Workers accumulate
// privately and merge once, so hot verification loops never contend on
// the engine's shared counters.
func (cs *Counters) merge(from *Counters) {
	for c := range from {
		atomic.AddInt64(&cs[c], atomic.LoadInt64(&from[c]))
	}
}

// reset zeroes a retired worker's shard so the worker can be pooled and
// reused without double-counting. Only safe with no concurrent writers.
func (cs *Counters) reset() {
	*cs = Counters{}
}

// Stats returns a snapshot of the engine's cumulative counters.
func (e *Engine) Stats() Counters {
	return e.st.Load()
}
