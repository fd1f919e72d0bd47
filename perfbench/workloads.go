package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"

	"silkmoth"
	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
)

// spec is one workload: its corpus, engine configuration and traffic.
type spec struct {
	name string
	cfg  silkmoth.Config
	// raws is the corpus the engine is built over.
	raws []dataset.RawSet
	// discover selects back-to-back discovery passes (titles-discover:
	// Engine.DiscoverContext) instead of the HTTP closed loop.
	discover bool

	// HTTP traffic. pool holds the query sets; zipf draws them with
	// skewed popularity (else each client sends the whole pool in a
	// seeded order, again and again, with the element order shuffled per
	// request so that every request misses the result cache).
	pool     []dataset.RawSet
	zipf     bool
	topkFrac float64
	// checks bounds the distinct sampled queries checked by brute force.
	checks int
	// writeFrac of the requests are mutations; durable engines log them
	// to a data directory, and every snapEvery writes POST /v1/snapshot.
	writeFrac float64
	durable   bool
	snapEvery int
}

// Corpus, query pool and reference sizes.
const (
	schemaTables        = 6000
	schemaPool          = 6144 // six times the server's 1024-entry result cache
	columnCount         = 6000
	columnCorpusSeed    = 1
	columnMinRefs       = 60 // reference columns have at least this many values
	columnMaxRefs       = 150
	columnRefsPerDomain = 2
	titleCount          = 2000
	topK                = 5
)

// specs builds each workload from its seed.
var specs = map[string]func(seed int64) *spec{
	// Small engine work per query: the HTTP envelope, result cache,
	// tokenization, signature and collect stages carry the cost.
	"schema-read": func(seed int64) *spec { return schemaSpec(seed, schemaTables) },
	// The schema-read traffic beside durable writes, snapshots,
	// compaction and a posting cache smaller than its working set. The
	// corpus is a third of schema-read's so that compaction, which waits
	// for a quarter of the indexed sets to be dead, runs several times a
	// run.
	"schema-readwrite": func(seed int64) *spec {
		s := schemaSpec(seed, schemaTables/3)
		s.cfg.CompressedPostings = true
		s.cfg.PostingCacheBytes = postingCacheBytes
		s.writeFrac = 0.2
		s.durable = true
		s.snapEvery = 400
		return s
	},
	// The paper's inclusion-dependency search: maximum-matching
	// verification of large columns dominates. The corpus and its
	// reference columns are the same for every seed, which drifts the
	// copies and orders the requests: one query can cost ten times
	// another, and with a corpus, or only the references, drawn per seed
	// the mean cost of a run moved by 15% (quartile spread over seeds).
	"containment-verify": func(seed int64) *spec {
		raws := datagen.WebTableColumns(datagen.ColumnConfig{NumColumns: columnCount, Seed: columnCorpusSeed})
		return &spec{
			cfg:    serverConfig(silkmoth.SetContainment, silkmoth.Jaccard, 0.5, 0),
			raws:   raws,
			pool:   columnQueries(rand.New(rand.NewSource(seed^0x5eed)), raws),
			checks: 2,
		}
	},
	// The paper's string matching: a self-join over q-gram tokens under
	// edit similarity, with no HTTP or WAL work.
	"titles-discover": func(seed int64) *spec {
		return &spec{
			cfg:      serverConfig(silkmoth.SetSimilarity, silkmoth.Eds, 0.75, 0.8),
			raws:     datagen.DBLP(datagen.DBLPConfig{NumTitles: titleCount, Seed: seed}),
			discover: true,
		}
	},
}

func schemaSpec(seed int64, tables int) *spec {
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: tables, Seed: seed})
	return &spec{
		cfg:      serverConfig(silkmoth.SetSimilarity, silkmoth.Jaccard, 0.7, 0),
		raws:     raws,
		pool:     schemaQueries(rand.New(rand.NewSource(seed^0x5eed)), raws, schemaPool),
		zipf:     true,
		topkFrac: 0.1,
		checks:   100,
	}
}

// postingCacheBytes holds under half the decoded posting lists of the
// schema-readwrite corpus, so that workload keeps decoding lists its
// cache evicted.
const postingCacheBytes = 192 << 10

func workloadNames() []string {
	return []string{"schema-read", "schema-readwrite", "containment-verify", "titles-discover"}
}

func newSpec(name string, seed int64) (*spec, error) {
	mk, ok := specs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	s := mk(seed)
	s.name = name
	return s, nil
}

// serverConfig is silkmothd's default engine configuration: the dichotomy
// scheme, filters and reduction on, and GOMAXPROCS verification workers.
func serverConfig(m silkmoth.Metric, sim silkmoth.Similarity, delta, alpha float64) silkmoth.Config {
	return silkmoth.Config{
		Metric:      m,
		Similarity:  sim,
		Delta:       delta,
		Alpha:       alpha,
		Scheme:      silkmoth.SchemeDichotomy,
		Concurrency: runtime.GOMAXPROCS(0),
	}
}

// schemaQueries draws n query schemas: half are corpus schemas, half are
// copies of other corpus schemas with a tenth of their value tokens
// replaced by tokens the corpus does not hold.
func schemaQueries(rng *rand.Rand, raws []dataset.RawSet, n int) []dataset.RawSet {
	perm := rng.Perm(len(raws))
	out := make([]dataset.RawSet, n)
	for i := range out {
		base := raws[perm[i%len(perm)]]
		if i%2 == 0 {
			out[i] = dataset.RawSet{Name: fmt.Sprintf("q%d", i), Elements: base.Elements}
			continue
		}
		out[i] = dataset.RawSet{Name: fmt.Sprintf("q%d", i), Elements: driftWords(rng, base.Elements, 0.1)}
	}
	return out
}

// columnQueries picks reference columns among the corpus columns with
// columnMinRefs to columnMaxRefs values: the same number from each value
// domain (the generator prefixes every word with its column's domain),
// evenly spaced in size order. It returns each followed by a copy drifted
// by rng.
func columnQueries(rng *rand.Rand, raws []dataset.RawSet) []dataset.RawSet {
	byDomain := map[string][]dataset.RawSet{}
	for _, r := range raws {
		if n := len(r.Elements); n >= columnMinRefs && n <= columnMaxRefs {
			d, _, _ := strings.Cut(r.Elements[0], "_")
			byDomain[d] = append(byDomain[d], r)
		}
	}
	domains := make([]string, 0, len(byDomain))
	for d := range byDomain {
		domains = append(domains, d)
	}
	slices.Sort(domains)
	var out []dataset.RawSet
	for _, d := range domains {
		large := byDomain[d]
		slices.SortStableFunc(large, func(a, b dataset.RawSet) int { return len(a.Elements) - len(b.Elements) })
		n := min(columnRefsPerDomain, len(large))
		for i := 0; i < n; i++ {
			r := large[i*len(large)/n]
			out = append(out,
				dataset.RawSet{Name: r.Name, Elements: r.Elements},
				dataset.RawSet{Name: r.Name + "drift", Elements: driftWords(rng, r.Elements, 0.1)})
		}
	}
	return out
}

// driftWords returns a copy of elements with each word replaced, with
// probability p, by a variant no corpus set contains.
func driftWords(rng *rand.Rand, elements []string, p float64) []string {
	out := make([]string, len(elements))
	for i, e := range elements {
		words := strings.Fields(e)
		for j := range words {
			if rng.Float64() < p {
				words[j] += "q"
			}
		}
		out[i] = strings.Join(words, " ")
	}
	return out
}

func toSets(raws []dataset.RawSet) []silkmoth.Set {
	out := make([]silkmoth.Set, len(raws))
	for i, r := range raws {
		out[i] = silkmoth.Set{Name: r.Name, Elements: r.Elements}
	}
	return out
}
