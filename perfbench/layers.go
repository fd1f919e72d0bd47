package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"silkmoth"
	"silkmoth/internal/dataset"
	"silkmoth/internal/matching"
	"silkmoth/internal/sim"
)

// heapLiveMiB is the heap in use after two collections: the first moves
// what sync.Pools hold into their victim caches and the second frees it,
// so the figure counts the data the program keeps, not scratch its pools
// happened to hold.
func heapLiveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// reportEndToEnd records the untraced phase's end-to-end figures, gated
// and ungated.
func (b *httpBench) reportEndToEnd(ps phaseStats) {
	rep := b.r.rep
	rep.set("ops_per_s", float64(ps.ops)/ps.wall.Seconds(), int(ps.ops))
	reportRuntime(rep, ps)
	n := len(ps.readLat)
	rep.set("read_p50_ms", quantile(ps.readLat, 0.5), n)
	rep.set("read_p99_ms", quantile(ps.readLat, 0.99), n)
	rep.set("server.cache_hit_ratio", ratio(float64(ps.hits), float64(ps.hits+ps.misses)), int(ps.hits+ps.misses))
	if b.sp.writeFrac > 0 {
		n := len(ps.writeLat)
		rep.set("write_p50_ms", quantile(ps.writeLat, 0.5), n)
		rep.set("write_p99_ms", quantile(ps.writeLat, 0.99), n)
	} else {
		rep.notApplicable("write_p50_ms", "read-only workload")
		rep.notApplicable("write_p99_ms", "read-only workload")
		rep.notApplicable("disk_bytes_per_user_byte", "no data directory")
	}
}

// reportLayers records the per-layer metrics: runtime counters from the
// untraced phase, the rest from the traced one.
func (b *httpBench) reportLayers(plain, traced phaseStats) {
	r := b.r
	rep := r.rep
	rep.set("trace.overhead_ratio", ratio(float64(traced.ops)/traced.wall.Seconds(), float64(plain.ops)/plain.wall.Seconds()), int(traced.ops))
	rep.set("harness.request_build_us", quantile(append(plain.build, traced.build...), 0.5), len(plain.build)+len(traced.build))
	rep.set("server.rejected", float64(plain.rejected+traced.rejected), int(plain.ops+traced.ops))

	spans := merge(traced.tracers)
	var hit []float64
	for _, s := range spans {
		if s.Name == "server.hit" {
			hit = append(hit, us(s.dur()))
		}
	}
	if len(hit) > 0 {
		rep.set("server.hit_us_p50", median(hit), len(hit))
	} else {
		rep.notApplicable("server.hit_us_p50", "every request misses the result cache")
	}
	self, api := reportAPI(rep, spans)
	rep.set("server.self_us_p50", median(self), len(self))
	reportStages(rep, plain.before, plain.after, &traced.ex)
	reportStorage(rep, b.sp, traced)
	rep.notApplicable("discover.busy_ratio", "no discovery on this workload")
	replayKernels(r, b.orc, b.sp, traced.pairs)

	if b.sp.writeFrac > 0 {
		rep.set("snapshot.ms", medianDur(b.snaps), len(b.snaps))
		rep.set("compaction.stall_ms", medianDur(b.stalls), len(b.stalls))
		rep.set("compaction.count", float64(len(b.stalls)), len(b.stalls))
		if err := b.replayWrites(); err != nil {
			r.fail("replaying writes: %v", err)
		}
	} else {
		for _, n := range writeMetrics {
			rep.notApplicable(n, "read-only workload")
		}
	}
	if path, err := writeTrace(b.r.outDir+"/traces", b.sp.name, r.seed, spans); err != nil {
		r.fail("writing trace: %v", err)
	} else {
		fmt.Printf("trace: %d spans in %s\n", len(spans), path)
	}
	printShares(stageDelta(plain.before, plain.after), median(self), api)
}

// reportAPI records the API replays' figures from their spans: the call,
// its tokenization, and the residual once tokenization and the four
// stages are taken away. It returns the handler self times — each handler
// replay less the API replay under it — and the median API call, in µs.
func reportAPI(rep *report, spans []span) (selfUS []float64, apiUS float64) {
	var self, api, tok, resid []float64
	for _, g := range byReq(spans) {
		a, ok := g["api.Search"]
		if !ok {
			continue
		}
		if s, ok := g["server.ServeHTTP"]; ok {
			self = append(self, us(s.dur()-a.dur()))
		}
		api = append(api, us(a.dur()))
		tok = append(tok, us(g["api.tokenize"].dur()))
		rest := a.dur()
		for _, name := range []string{"api.tokenize", "stage.signature", "stage.collect", "stage.refine", "stage.verify"} {
			rest -= g[name].dur()
		}
		resid = append(resid, us(rest))
	}
	rep.set("api.search_us_p50", median(api), len(api))
	rep.set("api.tokenize_us_p50", median(tok), len(tok))
	rep.set("api.residual_us_p50", median(resid), len(resid))
	return self, median(api)
}

func medianDur(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

// reportRuntime records the untraced phase's CPU time, allocations and GC
// cycles per operation.
func reportRuntime(rep *report, ps phaseStats) {
	ops := float64(ps.ops)
	rep.set("cpu_us_per_op", ratio(us(ps.cpu), ops), int(ps.ops))
	rep.set("allocs_per_op", ratio(float64(ps.mallocs), ops), int(ps.ops))
	rep.set("alloc_bytes_per_op", ratio(float64(ps.allocBytes), ops), int(ps.ops))
	rep.set("gc.cycles_per_1k_ops", ratio(1000*float64(ps.gcs), ops), int(ps.ops))
}

// reportStages records the per-pass stage figures from the engine's own
// counters over an untraced phase: Stats times one pass in sixteen, and
// counts every pass. The useful ratio needs match counts, which only the
// explain captures of traced queries carry.
func reportStages(rep *report, before, after silkmoth.Stats, ex *explainSum) {
	passes := float64(after.SearchPasses - before.SearchPasses)
	timed := float64(after.TimedPasses - before.TimedPasses)
	np, nt := int(passes), int(timed)
	st := stageDelta(before, after)
	rep.set("signature.us_per_query", ratio(us(st.Signature), timed), nt)
	rep.set("signature.tokens_per_query", ratio(float64(after.SigTokens-before.SigTokens), passes), np)
	rep.set("collect.us_per_query", ratio(us(st.Collect), timed), nt)
	cands := float64(after.Candidates - before.Candidates)
	rep.set("collect.candidates_per_query", ratio(cands, passes), np)
	rep.set("refine.us_per_query", ratio(us(st.Refine), timed), nt)
	rep.set("refine.survivor_ratio", ratio(float64(after.AfterNN-before.AfterNN), cands), int(cands))
	rep.set("verify.us_per_query", ratio(us(st.Verify), timed), nt)
	rep.set("verify.pairs_per_query", ratio(float64(after.Verified-before.Verified), passes), np)
	rep.set("core.full_scans", float64(after.FullScans-before.FullScans), np)
	rep.set("verify.useful_ratio", ratio(float64(ex.matches), float64(ex.verified)), int(ex.verified))
}

func stageDelta(before, after silkmoth.Stats) silkmoth.StageTimes {
	return silkmoth.StageTimes{
		Signature: after.Stages.Signature - before.Stages.Signature,
		Collect:   after.Stages.Collect - before.Stages.Collect,
		Refine:    after.Stages.Refine - before.Stages.Refine,
		Verify:    after.Stages.Verify - before.Stages.Verify,
	}
}

// reportStorage records the compressed index's decode-cache figures over
// the traced phase.
func reportStorage(rep *report, sp *spec, ps phaseStats) {
	if !sp.cfg.CompressedPostings {
		for _, n := range []string{"index.posting_cache_hit_ratio", "index.posting_resident_mb", "index.posting_decode_errors"} {
			rep.notApplicable(n, "postings are not compressed")
		}
		return
	}
	hits := ps.after.PostingCacheHits - ps.before.PostingCacheHits
	misses := ps.after.PostingCacheMisses - ps.before.PostingCacheMisses
	rep.set("index.posting_cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), int(hits+misses))
	rep.set("index.posting_resident_mb", float64(ps.after.PostingResidentBytes)/(1<<20), 1)
	rep.set("index.posting_decode_errors", float64(ps.after.PostingDecodeErrors-ps.before.PostingDecodeErrors), int(hits+misses))
}

// replayKernels times the element-similarity and matching kernels on the
// pairs the traced run matched: the full φ matrix of each pair, then the
// maximum-weight matching over it, whose score must equal the engine's.
func replayKernels(r *run, orc *oracle, sp *spec, pairs []replayPair) {
	rep := r.rep
	alpha := sp.cfg.Alpha
	var cells, calls int
	var phiTime, solveTime, edsTime time.Duration
	eds := sp.cfg.Similarity == silkmoth.Eds
	for _, p := range pairs {
		q := &orc.tokenize([]dataset.RawSet{p.query}).Sets[0]
		s := &orc.coll.Sets[p.set]
		w := make([][]float64, len(q.Elements))
		for i := range w {
			w[i] = make([]float64, len(s.Elements))
		}
		t0 := time.Now()
		for i := range q.Elements {
			for j := range s.Elements {
				if eds {
					w[i][j] = sim.EdsAlpha(q.Elements[i].Raw, s.Elements[j].Raw, alpha)
				} else {
					w[i][j] = sim.Alpha(sim.JaccardSorted(q.Elements[i].Tokens, s.Elements[j].Tokens), alpha)
				}
			}
		}
		phiTime += time.Since(t0)
		cells += len(q.Elements) * len(s.Elements)
		t0 = time.Now()
		score := matching.MaxWeightScore(w)
		solveTime += time.Since(t0)
		r.attempted++
		if math.Abs(score-p.score) > 1e-6 {
			r.fail("matching score %.9g for a pair the engine scored %.9g", score, p.score)
		}
		if eds {
			t0 = time.Now()
			for i := range q.Elements {
				for j := range s.Elements {
					sim.Eds(q.Elements[i].Raw, s.Elements[j].Raw)
				}
			}
			edsTime += time.Since(t0)
			calls += len(q.Elements) * len(s.Elements)
		}
	}
	rep.set("sim.phi_ns_per_cell", ratio(float64(phiTime), float64(cells)), cells)
	rep.set("matching.solve_us_per_pair", ratio(us(solveTime), float64(len(pairs))), len(pairs))
	if eds {
		rep.set("sim.eds_ns_per_call", ratio(float64(edsTime), float64(calls)), calls)
	} else {
		rep.notApplicable("sim.eds_ns_per_call", "element similarity is Jaccard")
	}
}

// printShares prints each engine stage's share of stage time, and the
// handler's share of a cache miss's time.
func printShares(st silkmoth.StageTimes, selfUS, apiUS float64) {
	total := st.Signature + st.Collect + st.Refine + st.Verify
	if total <= 0 {
		return
	}
	share := func(d time.Duration) float64 { return float64(d) / float64(total) }
	fmt.Printf("shares: signature=%.3f collect=%.3f refine=%.3f verify=%.3f",
		share(st.Signature), share(st.Collect), share(st.Refine), share(st.Verify))
	if selfUS > 0 && apiUS > 0 {
		fmt.Printf(" envelope=%.3f", selfUS/(selfUS+apiUS))
	}
	fmt.Println()
}
