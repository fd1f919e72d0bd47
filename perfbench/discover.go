package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
)

// discoverStats is what one phase of back-to-back discovery passes
// measured.
type discoverStats struct {
	wall, cpu                time.Duration
	passes                   int
	lat                      []float64 // ms per pass
	busy                     time.Duration
	ex                       explainSum
	tracer                   *tracer
	mallocs, allocBytes, gcs uint64
	before, after            silkmoth.Stats
}

// runDiscover drives titles-discover: one caller runs whole self-join
// passes back to back, each checked against the first pass's answer,
// whose pairs are checked against the brute-force oracle for a seeded
// sample of references.
func runDiscover(r *run) error {
	sp := r.spec
	eng, _, _, err := measureSetup(r)
	if err != nil {
		return err
	}
	defer eng.Close()
	var orc *oracle
	if r.traced {
		if orc, err = newOracle(sp.raws, sp.cfg); err != nil {
			return err
		}
	}

	first, err := eng.DiscoverContext(context.Background()) // warm-up, and the answer every pass must repeat
	if err != nil {
		return err
	}
	r.attempted++
	want := pairsHash(first)
	d := &discoverer{r: r, eng: eng, orc: orc, want: want, wantN: len(first)}
	var plain discoverStats
	if r.traced {
		plain = d.phase(r.seconds/2, false)
		traced := d.phase(r.seconds/2, true)
		d.reportLayers(plain, traced, first)
	} else {
		plain = d.phase(r.seconds, false)
		r.rep.set("heap_live_mb", heapLiveMiB(), 1)
	}
	ops := plain.passes * len(sp.raws)
	r.rep.set("ops_per_s", float64(ops)/plain.wall.Seconds(), ops)
	reportRuntime(r.rep, phaseStats{ops: int64(ops), cpu: plain.cpu, mallocs: plain.mallocs, allocBytes: plain.allocBytes, gcs: plain.gcs})
	r.rep.set("read_p50_ms", quantile(plain.lat, 0.5), len(plain.lat))
	r.rep.set("read_p99_ms", quantile(plain.lat, 0.99), len(plain.lat))
	for _, n := range []string{"write_p50_ms", "write_p99_ms"} {
		r.rep.notApplicable(n, "read-only workload")
	}
	r.rep.notApplicable("disk_bytes_per_user_byte", "no data directory")
	r.rep.notApplicable("server.cache_hit_ratio", "no HTTP traffic")

	if orc == nil {
		if orc, err = newOracle(sp.raws, sp.cfg); err != nil {
			return err
		}
	}
	checkDiscover(r, orc, first)
	return nil
}

type discoverer struct {
	r     *run
	eng   *silkmoth.Engine
	orc   *oracle
	want  uint64
	wantN int
	qs    dataset.QueryScratch
}

func (d *discoverer) phase(dur time.Duration, traced bool) discoverStats {
	var ds discoverStats
	// Every phase starts right after a collection, so a run's allocation
	// figures do not depend on where the collector's cycle happened to be.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ds.before = d.eng.Stats()
	start, cpu0 := time.Now(), cpuTime()
	if traced {
		ds.tracer = &tracer{base: start}
	}
	rng := rand.New(rand.NewSource(d.r.seed ^ 0xd15c))
	conc := d.r.spec.cfg.Concurrency
	for time.Since(start) < dur {
		var ex silkmoth.Explain
		var opts []silkmoth.QueryOption
		if traced {
			opts = append(opts, silkmoth.WithExplain(&ex))
		}
		t0 := time.Now()
		pairs, err := d.eng.DiscoverContext(context.Background(), opts...)
		t1 := time.Now()
		d.r.attempted++
		ds.passes++
		ds.lat = append(ds.lat, ms(t1.Sub(t0)))
		if err != nil {
			d.r.fail("discover: %v", err)
			continue
		}
		if len(pairs) != d.wantN || pairsHash(pairs) != d.want {
			d.r.fail("discover pass found %d pairs, the first found %d", len(pairs), d.wantN)
		}
		if !traced {
			continue
		}
		req := int64(ds.passes)
		root := ds.tracer.add("discover.pass", t0, t1, -1, req)
		ds.tracer.addStages(ex.Stages, t0, root, req)
		ds.ex.add(&ex, len(pairs))
		ds.busy += time.Duration(float64(t1.Sub(t0)) * float64(conc))
		// The search-shaped form of a few reference passes, for the
		// public API's own cost.
		for i := 0; i < 8; i++ {
			d.traceRef(&ds, rng.Intn(len(d.r.spec.raws)), req<<8|int64(i))
		}
	}
	ds.wall, ds.cpu = time.Since(start), cpuTime()-cpu0
	ds.after = d.eng.Stats()
	runtime.ReadMemStats(&ms1)
	ds.mallocs = ms1.Mallocs - ms0.Mallocs
	ds.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ds.gcs = uint64(ms1.NumGC - ms0.NumGC)
	return ds
}

// traceRef times reference i's pass in its search-shaped form, through
// the public API with an explain capture, and its tokenization alone,
// timed like the handler workloads' (see traceRead).
func (d *discoverer) traceRef(ds *discoverStats, i int, req int64) {
	raw := []dataset.RawSet{d.r.spec.raws[i]}
	a0 := time.Now()
	res, err := d.eng.Explain(silkmoth.Set{Elements: raw[0].Elements})
	a1 := time.Now()
	if err != nil {
		d.r.fail("explain: %v", err)
		return
	}
	dict, mode, q := d.orc.coll.Dict, d.orc.coll.Mode, d.orc.coll.Q
	d.qs.Build(dict, raw, mode, q)
	k0 := time.Now()
	d.qs.Build(dict, raw, mode, q)
	k1 := time.Now()
	api := ds.tracer.add("api.Search", a0, a1, -1, req)
	ds.tracer.add("api.tokenize", k0, k1, api, req)
	ds.tracer.addStages(res.Explain.Stages, a0, api, req)
}

func (d *discoverer) reportLayers(plain, traced discoverStats, first []silkmoth.Pair) {
	r := d.r
	rep := r.rep
	ops := plain.passes * len(r.spec.raws)
	tOps := traced.passes * len(r.spec.raws)
	rep.set("trace.overhead_ratio", ratio(float64(tOps)/traced.wall.Seconds(), float64(ops)/plain.wall.Seconds()), traced.passes)

	reportStages(rep, plain.before, plain.after, &traced.ex)
	// The explain captures of the traced discoveries time every reference
	// pass, so their stage sums cover the whole of each discovery.
	st := traced.ex.stages
	rep.set("discover.busy_ratio", ratio(float64(st.Signature+st.Collect+st.Refine+st.Verify), float64(traced.busy)), traced.passes)

	spans := merge([]*tracer{traced.tracer})
	reportAPI(rep, spans)
	for _, n := range []string{"server.self_us_p50", "server.hit_us_p50", "server.rejected", "harness.request_build_us"} {
		rep.notApplicable(n, "no HTTP traffic")
	}
	for _, n := range writeMetrics {
		rep.notApplicable(n, "read-only workload")
	}
	reportStorage(rep, r.spec, phaseStats{})

	var pairs []replayPair
	for _, p := range first {
		if len(pairs) == replayPairs {
			break
		}
		pairs = append(pairs, replayPair{query: r.spec.raws[p.R], set: p.S, score: p.MatchingScore})
	}
	replayKernels(r, d.orc, r.spec, pairs)
	if path, err := writeTrace(r.outDir+"/traces", r.spec.name, r.seed, spans); err != nil {
		r.fail("writing trace: %v", err)
	} else {
		fmt.Printf("trace: %d spans in %s\n", len(spans), path)
	}
	printShares(stageDelta(plain.before, plain.after), 0, 0)
}

// checkDiscover compares the pairs found for a seeded sample of
// references with the brute-force oracle: under SET-SIMILARITY the
// self-join reports reference R against every related S > R.
func checkDiscover(r *run, orc *oracle, pairs []silkmoth.Pair) {
	const refs = 24
	rng := rand.New(rand.NewSource(r.seed ^ 0x0dac1e))
	for _, ri := range rng.Perm(len(orc.coll.Sets))[:refs] {
		var want []core.Match
		for _, m := range orc.eng.BruteForceSearch(&orc.coll.Sets[ri]) {
			if m.Set > ri {
				want = append(want, m)
			}
		}
		slices.SortFunc(want, func(a, b core.Match) int { return a.Set - b.Set })
		var got []silkmoth.Pair
		for _, p := range pairs {
			if p.R == ri {
				got = append(got, p)
			}
		}
		r.attempted++
		ok := len(got) == len(want)
		for i := 0; ok && i < len(got); i++ {
			ok = got[i].S == want[i].Set && math.Abs(got[i].Relatedness-want[i].Relatedness) <= 1e-9
		}
		if !ok {
			r.fail("reference %d: discovery found %d pairs, the oracle %d", ri, len(got), len(want))
		}
	}
}

// pairsHash fingerprints a discovery answer.
func pairsHash(ps []silkmoth.Pair) uint64 {
	h := fnv.New64a()
	var buf []byte
	for _, p := range ps {
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(p.R))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(p.S))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Relatedness))
		h.Write(buf)
	}
	return h.Sum64()
}
