package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/server"
)

// Sampling rates. Oracle samples are answers kept for the brute-force
// check after the run; traced samples are requests whose layers the
// traced run times one by one.
const (
	oracleSampleP = 0.02
	oracleSamples = 40 // kept per client and phase
	replayPairs   = 400
	warmup        = 500 * time.Millisecond
)

// httpBench drives one HTTP workload through silkmothd's handler.
type httpBench struct {
	r   *run
	sp  *spec
	eng *silkmoth.Engine
	srv *server.Server
	cfg silkmoth.Config
	orc *oracle // over the corpus; built before a traced run, after an untraced one

	search, topk [][]byte // pre-encoded request bodies per pool item
	perm         []int    // popularity rank → pool item
	// variants[i] are pool item i's element orders and their encoded
	// bodies, on workloads whose every request must miss the cache.
	variants   [][]variant
	passes     atomic.Int64 // passes over the pool the clients have begun
	writePool  []writeBody  // pre-encoded mutations, sent in turn
	traceEvery int

	// Mutations are applied one at a time, under writeMu, so the
	// benchmark knows which id each acknowledged write produced. The
	// server serializes mutations itself, so this only moves where a
	// second concurrent writer waits.
	writeMu sync.Mutex
	nextID  int
	live    map[int]dataset.RawSet
	liveIDs []int
	writes  []writeRec
	snaps   []time.Duration
	stalls  []time.Duration
	writeN  int
}

type writeRec struct {
	op    string // "add", "update" or "delete"
	id    int    // the target (update, delete) or the new id (add)
	newID int    // update: the replacement's id
	raw   dataset.RawSet
}

// respWriter is a reusable http.ResponseWriter; resetting it is part of
// building the request, outside the timed region.
type respWriter struct {
	h    http.Header
	code int
	buf  []byte
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (w *respWriter) reset() {
	clear(w.h)
	w.code = 0
	w.buf = w.buf[:0]
}

// phaseStats is what one phase of the closed loop measured.
type phaseStats struct {
	wall, cpu                time.Duration
	ops                      int64
	readLat, writeLat, build []float64 // ms, ms, µs
	hits, misses, rejected   int64
	samples                  []readSample
	// Traced phases only.
	tracers []*tracer
	ex      explainSum
	pairs   []replayPair
	// Runtime and engine counters over the phase.
	mallocs, allocBytes, gcs uint64
	before, after            silkmoth.Stats
}

type readSample struct {
	item int
	topk bool
	body []byte
}

// explainSum accumulates the explain captures of traced queries: their
// stage times, verifications and matches.
type explainSum struct {
	stages            silkmoth.StageTimes
	verified, matches int64
}

func (s *explainSum) add(ex *silkmoth.Explain, matches int) {
	s.addSum(&explainSum{stages: ex.Stages, verified: ex.Verified, matches: int64(matches)})
}

func (s *explainSum) addSum(o *explainSum) {
	s.stages.Signature += o.stages.Signature
	s.stages.Collect += o.stages.Collect
	s.stages.Refine += o.stages.Refine
	s.stages.Verify += o.stages.Verify
	s.verified += o.verified
	s.matches += o.matches
}

// replayPair is a query and a collection set the engine matched it with.
type replayPair struct {
	query dataset.RawSet
	set   int
	score float64
}

func runHTTP(r *run) error {
	sp := r.spec
	b := &httpBench{r: r, sp: sp, cfg: sp.cfg, traceEvery: 10}
	if !sp.zipf {
		b.traceEvery = 2 // few, slow requests: trace more of them
	}
	var err error
	if b.eng, b.cfg, b.srv, err = measureSetup(r); err != nil {
		return err
	}
	defer b.eng.Close()

	b.nextID = len(sp.raws)
	b.live = make(map[int]dataset.RawSet, len(sp.raws))
	b.liveIDs = make([]int, len(sp.raws))
	for i, raw := range sp.raws {
		b.live[i] = raw
		b.liveIDs[i] = i
	}
	b.search = make([][]byte, len(sp.pool))
	b.topk = make([][]byte, len(sp.pool))
	for i, q := range sp.pool {
		b.search[i] = mustJSON(map[string]any{"set": server.SetJSON{Elements: q.Elements}})
		b.topk[i] = mustJSON(map[string]any{"set": server.SetJSON{Elements: q.Elements}, "k": topK})
	}
	b.perm = rand.New(rand.NewSource(r.seed ^ 0x9e37)).Perm(len(sp.pool))
	if !sp.zipf {
		b.variants = shuffleVariants(rand.New(rand.NewSource(r.seed^0x5b0d)), sp.pool)
	}
	if sp.writeFrac > 0 {
		b.writePool = newWritePool(rand.New(rand.NewSource(r.seed^0x3217)), sp.raws)
	}

	if r.traced {
		if b.orc, err = newOracle(sp.raws, sp.cfg); err != nil {
			return err
		}
	}
	// One pass over the pool first: the engine's dictionary interns the
	// tokens of every query it sees, so without it the heap would depend
	// on how many distinct queries a run reached.
	w := &respWriter{h: http.Header{}}
	r.attempted += int64(len(b.search))
	for i := range b.search {
		if _, err := b.ask(b.srv, w, i); err != nil {
			r.fail("warming query %d: %v", i, err)
		}
	}
	var samples []readSample
	warm := b.phase(0, warmup, false)
	samples = append(samples, warm.samples...)
	var untraced phaseStats
	if r.traced {
		plain := b.phase(1, r.seconds/2, false)
		traced := b.phase(2, r.seconds/2, true)
		samples = append(samples, plain.samples...)
		samples = append(samples, traced.samples...)
		b.reportLayers(plain, traced)
		untraced = plain
	} else {
		untraced = b.phase(1, r.seconds, false)
		samples = append(samples, untraced.samples...)
	}
	b.reportEndToEnd(untraced)
	if !r.traced {
		if sp.writeFrac > 0 {
			// Reclaim the tombstones first, so that the heap does not depend
			// on where in its compaction cycle the run stopped: up to a
			// quarter of the indexed sets are dead ones awaiting compaction,
			// which moved the heap by 9% (quartile spread) between seeds.
			b.eng.Compact()
		}
		// The pre-encoded requests the phases no longer need are the
		// benchmark's, not the server's.
		b.variants, b.writePool = nil, nil
		r.rep.set("heap_live_mb", heapLiveMiB(), 1)
	}

	if sp.writeFrac > 0 {
		return b.finishReadWrite(samples)
	}
	if b.orc == nil {
		if b.orc, err = newOracle(sp.raws, sp.cfg); err != nil {
			return err
		}
	}
	t0 := time.Now()
	n := b.checkSamples(samples, b.orc, b.sp.checks)
	fmt.Printf("oracle: %d answers of %d queries checked in %.1f s\n", len(samples), n, time.Since(t0).Seconds())
	return nil
}

// measureSetup builds the engine and server at least five times, and
// more while the builds have taken under a second, each from scratch (a
// fresh data directory on durable workloads). It returns the last build
// and reports the median CPU time of a build as setup_s (its wall time as
// setup_wall_s, and the memory it allocated as setup_alloc_mb).
func measureSetup(r *run) (*silkmoth.Engine, silkmoth.Config, *server.Server, error) {
	const minReps, maxReps, budget = 5, 25, time.Second
	sets := toSets(r.spec.raws)
	var times, cpus, allocs []float64
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for i := 0; ; i++ {
		last := i+1 >= maxReps || (i+1 >= minReps && time.Since(start) >= budget)
		cfg := r.spec.cfg
		if r.spec.durable {
			cfg.DataDir = fmt.Sprintf("%s/data%d", r.work, i)
		}
		// Each build starts, like a freshly started daemon, with the heap
		// returned to the operating system.
		debug.FreeOSMemory()
		runtime.ReadMemStats(&ms0)
		t0, c0 := time.Now(), cpuTime()
		eng, err := silkmoth.NewEngine(sets, cfg)
		if err != nil {
			return nil, cfg, nil, err
		}
		srv := server.New(eng, cfg, server.Options{})
		times = append(times, time.Since(t0).Seconds())
		cpus = append(cpus, (cpuTime() - c0).Seconds())
		runtime.ReadMemStats(&ms1)
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		if last {
			fmt.Printf("setup: cpu %.4f s, wall %.4f s, allocated %.2f MiB\n", cpus, times, allocs)
			r.rep.set("setup_s", median(cpus), len(cpus))
			r.rep.set("setup_wall_s", median(times), len(times))
			r.rep.set("setup_alloc_mb", median(allocs), len(allocs))
			return eng, cfg, srv, nil
		}
		if err := eng.Close(); err != nil {
			return nil, cfg, nil, err
		}
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the benchmark's own request shapes always encode
	}
	return b
}

// phase runs the closed loop for d with one client goroutine per
// processor. Phase numbers seed the clients' query streams.
func (b *httpBench) phase(num int, d time.Duration, traced bool) phaseStats {
	nc := runtime.GOMAXPROCS(0)
	clients := make([]*client, nc)
	for i := range clients {
		rng := rand.New(rand.NewSource(b.r.seed*1000 + int64(num*100+i)))
		c := &client{b: b, id: i, rng: rng, w: respWriter{h: http.Header{}}}
		if b.sp.zipf {
			c.zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(len(b.sp.pool)-1))
		}
		if traced {
			c.tr = &tracer{}
		}
		clients[i] = c
	}
	var ps phaseStats
	// Every phase starts right after a collection, so a run's allocation
	// figures do not depend on where the collector's cycle happened to be.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ps.before = b.eng.Stats()
	start, cpu0 := time.Now(), cpuTime()
	for _, c := range clients {
		if c.tr != nil {
			c.tr.base = start
		}
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for seq := int64(0); time.Now().Before(deadline); seq++ {
				c.step(traced && seq%int64(b.traceEvery) == 0, int64(c.id)<<40|seq)
			}
		}(c)
	}
	wg.Wait()
	ps.wall, ps.cpu = time.Since(start), cpuTime()-cpu0
	ps.after = b.eng.Stats()
	b.r.mu.Lock()
	defer b.r.mu.Unlock()
	runtime.ReadMemStats(&ms1)
	ps.mallocs = ms1.Mallocs - ms0.Mallocs
	ps.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	ps.gcs = uint64(ms1.NumGC - ms0.NumGC)
	for _, c := range clients {
		s := &c.st
		ps.ops += s.ops
		b.r.attempted += s.ops
		ps.readLat = append(ps.readLat, s.readLat...)
		ps.writeLat = append(ps.writeLat, s.writeLat...)
		ps.build = append(ps.build, s.build...)
		ps.hits += s.hits
		ps.misses += s.misses
		ps.rejected += s.rejected
		ps.samples = append(ps.samples, s.samples...)
		ps.ex.addSum(&s.ex)
		ps.pairs = append(ps.pairs, s.pairs...)
		if c.tr != nil {
			ps.tracers = append(ps.tracers, c.tr)
		}
	}
	return ps
}

// zipfS and zipfV shape query popularity: with the 6144-query pool they
// give the 1024-entry result cache a hit ratio well away from one half,
// so the read median stays inside one of the hit and miss distributions.
const (
	zipfS = 1.01
	zipfV = 400
)

type client struct {
	b    *httpBench
	id   int
	rng  *rand.Rand
	zipf *rand.Zipf
	// order holds the rest of the current pass over the pool when
	// queries are not drawn by popularity, and variant its element order.
	order   []int
	variant int
	rq      reusableRequest
	w       respWriter
	tr      *tracer
	qs      dataset.QueryScratch
	st      clientStats
}

type clientStats struct {
	ops                    int64
	readLat, writeLat      []float64
	build                  []float64
	hits, misses, rejected int64
	samples                []readSample
	ex                     explainSum
	pairs                  []replayPair
}

func newRequest(method, path string, body []byte) *http.Request {
	req, err := http.NewRequestWithContext(context.Background(), method, "http://perfbench"+path, bytes.NewReader(body))
	if err != nil {
		panic(err) // the benchmark's own paths always parse
	}
	return req
}

// reusableRequest is a client's one request, re-aimed at each request the
// client sends, so that building a request allocates nothing and the
// allocation figures are the server's. The handler reads the body before
// it returns and keeps no reference to the request.
type reusableRequest struct {
	req  *http.Request
	body bodyReader
}

type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

func (q *reusableRequest) aim(method, path string, body []byte) *http.Request {
	if q.req == nil {
		q.req = newRequest(method, path, nil)
	}
	q.req.Method = method
	q.req.URL.Path = path
	q.body.Reset(body)
	q.req.Body = &q.body
	q.req.ContentLength = int64(len(body))
	return q.req
}

// variantsPerItem is how many element orders each query of a cache-miss
// workload is sent in. The clients number their passes over the pool from
// one count and send pass p in order p mod variantsPerItem, so a request
// recurs only after variantsPerItem-1 other passes: over 1,600 requests on
// containment-verify, more than the result cache's 1024 entries hold.
const variantsPerItem = 12

type variant struct {
	elements []string
	body     []byte
}

// shuffleVariants encodes variantsPerItem seeded element orders of each
// pool query as a search request.
func shuffleVariants(rng *rand.Rand, pool []dataset.RawSet) [][]variant {
	out := make([][]variant, len(pool))
	for i, q := range pool {
		out[i] = make([]variant, variantsPerItem)
		for v := range out[i] {
			els := slices.Clone(q.Elements)
			rng.Shuffle(len(els), func(i, j int) { els[i], els[j] = els[j], els[i] })
			out[i][v] = variant{elements: els, body: mustJSON(map[string]any{"set": server.SetJSON{Elements: els}})}
		}
	}
	return out
}

// serve sends one request and returns its latency and status; failures
// are counted against the run.
func (c *client) serve(req *http.Request, build time.Duration, what string) (time.Duration, time.Time, bool) {
	c.st.build = append(c.st.build, us(build))
	t0 := time.Now()
	c.b.srv.ServeHTTP(&c.w, req)
	lat := time.Since(t0)
	c.st.ops++
	code := c.w.code
	if code == 0 {
		code = http.StatusOK
	}
	if code/100 != 2 {
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable || code == http.StatusGatewayTimeout {
			c.st.rejected++
		}
		c.b.r.fail("%s: HTTP %d: %s", what, code, bytes.TrimSpace(c.w.buf))
		return lat, t0, false
	}
	return lat, t0, true
}

// pick draws the next query from the pool.
func (c *client) pick() int {
	if c.zipf != nil {
		return c.b.perm[c.zipf.Uint64()]
	}
	if len(c.order) == 0 {
		c.order = c.rng.Perm(len(c.b.sp.pool))
		c.variant = int((c.b.passes.Add(1) - 1) % variantsPerItem)
	}
	item := c.order[0]
	c.order = c.order[1:]
	return item
}

// query is one read the client sends.
type query struct {
	item     int
	topk     bool
	path     string
	elements []string
	body     []byte
}

// draw picks the next read: a pool query (by popularity, or the next of
// the client's pass over the pool in an element order that misses the
// cache), as a search or, for topkFrac of them, a top-k request.
func (c *client) draw() query {
	b := c.b
	q := query{item: c.pick(), topk: c.rng.Float64() < b.sp.topkFrac, path: "/v1/search"}
	q.elements = b.sp.pool[q.item].Elements
	switch {
	case !b.sp.zipf:
		v := b.variants[q.item][c.variant]
		q.elements, q.body = v.elements, v.body
	case q.topk:
		q.body = b.topk[q.item]
	default:
		q.body = b.search[q.item]
	}
	if q.topk {
		q.path = "/v1/topk"
	}
	return q
}

// step sends one request. A traced step then replays a cache miss layer
// by layer (traceRead) and times a cache hit as a span.
func (c *client) step(traced bool, rid int64) {
	b := c.b
	if b.sp.writeFrac > 0 && c.rng.Float64() < b.sp.writeFrac {
		c.write()
		return
	}
	tb := time.Now()
	q := c.draw()
	req := c.rq.aim(http.MethodPost, q.path, q.body)
	c.w.reset()
	lat, t0, ok := c.serve(req, time.Since(tb), q.path)
	c.st.readLat = append(c.st.readLat, ms(lat))
	if !ok {
		return
	}
	hit := c.w.h.Get("X-Silkmoth-Cache") == "hit"
	if hit {
		c.st.hits++
	} else {
		c.st.misses++
	}
	if len(c.st.samples) < oracleSamples && c.rng.Float64() < oracleSampleP {
		c.st.samples = append(c.st.samples, readSample{item: q.item, topk: q.topk, body: append([]byte(nil), c.w.buf...)})
	}
	switch {
	case !traced:
	case hit:
		c.tr.add("server.hit", t0, t0.Add(lat), -1, rid)
	default:
		c.traceRead(rid, q)
	}
}

// traceRead replays a cache miss layer by layer: the same query through
// the public API with an explain capture, then through the handler again
// with its elements reordered (the same set under a new cache key, so a
// miss again), then its tokenization against the oracle's dictionary.
// The handler's own time is the handler replay minus the API replay. Both
// follow the request they replay, so both find its data in the processor
// caches; a replay compared with the original request would credit that
// warmth, which makes the query two to three times faster on the schema
// corpus, to the handler.
func (c *client) traceRead(rid int64, q query) {
	b := c.b
	set := silkmoth.Set{Elements: q.elements}
	var ex silkmoth.Explain
	var ms []silkmoth.Match
	var err error
	a0 := time.Now()
	if q.topk {
		ms, err = b.eng.SearchTopKContext(context.Background(), set, topK, silkmoth.WithExplain(&ex))
	} else {
		ms, err = b.eng.SearchContext(context.Background(), set, silkmoth.WithExplain(&ex))
	}
	a1 := time.Now()
	if err != nil {
		b.r.fail("api search: %v", err)
		return
	}

	// Rotating the elements gives a cache key no earlier request used,
	// short of a rotation the pool itself holds.
	rot := append(append([]string(nil), q.elements[1:]...), q.elements[0])
	body := map[string]any{"set": server.SetJSON{Elements: rot}}
	if q.topk {
		body["k"] = topK
	}
	req := newRequest(http.MethodPost, q.path, mustJSON(body))
	c.w.reset()
	h0 := time.Now()
	b.srv.ServeHTTP(&c.w, req)
	h1 := time.Now()
	raw := []dataset.RawSet{{Elements: q.elements}}
	dict, mode, qlen := b.orc.coll.Dict, b.orc.coll.Mode, b.orc.coll.Q
	c.qs.Build(dict, raw, mode, qlen) // as warm as the engine's dictionary
	k0 := time.Now()
	c.qs.Build(dict, raw, mode, qlen)
	k1 := time.Now()

	// The spans record each call's real interval; the engine reports
	// stage durations only, so the stage spans are laid end to end from
	// the start of the API call.
	parent := -1
	if len(q.elements) > 1 && c.w.code/100 == 2 && c.w.h.Get("X-Silkmoth-Cache") == "miss" {
		parent = c.tr.add("server.ServeHTTP", h0, h1, -1, rid)
	}
	api := c.tr.add("api.Search", a0, a1, parent, rid)
	c.tr.add("api.tokenize", k0, k1, api, rid)
	c.tr.addStages(ex.Stages, a0, api, rid)
	c.st.ex.add(&ex, len(ms))
	for _, m := range ms {
		if len(c.st.pairs) >= replayPairs/2 {
			break
		}
		if m.Index < len(b.sp.raws) {
			c.st.pairs = append(c.st.pairs, replayPair{query: raw[0], set: m.Index, score: m.MatchingScore})
		}
	}
}

// checkSamples compares sampled answers with the oracle's, for at most
// limit distinct queries drawn by the run's seed among all the sampled
// ones: brute force verifies a query against every set, so the limit
// bounds its cost. The oracle answers are computed on every processor at
// once. It returns the number of distinct queries checked.
func (b *httpBench) checkSamples(samples []readSample, orc *oracle, limit int) int {
	type key struct {
		item int
		topk bool
	}
	var keys []key
	seen := map[key]bool{}
	for _, s := range samples {
		if k := (key{s.item, s.topk}); !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	rand.New(rand.NewSource(b.r.seed^0x0c4c)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(limit, len(keys))]
	answers := make([][]core.Match, len(keys))
	var wg sync.WaitGroup
	next := make(chan int, len(keys)) // every index is queued before the workers start
	for i := range keys {
		next <- i
	}
	close(next)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				n := 0
				if keys[i].topk {
					n = topK
				}
				answers[i] = orc.search(b.sp.pool[keys[i].item], n)
			}
		}()
	}
	wg.Wait()
	want := make(map[key][]core.Match, len(keys))
	for i, k := range keys {
		want[k] = answers[i]
	}
	for _, s := range samples {
		w, ok := want[key{s.item, s.topk}]
		if !ok {
			continue
		}
		got, err := decodeAnswer(s.body)
		b.r.attempted++
		if err == nil {
			err = sameAnswer(got, w, func(i int) int { return i })
		}
		if err != nil {
			b.r.fail("query %d (topk %v): %v", s.item, s.topk, err)
		}
	}
	return len(keys)
}
