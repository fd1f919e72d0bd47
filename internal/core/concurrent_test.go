package core

import (
	"context"
	"testing"

	"silkmoth/internal/datagen"
	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// schemaCorpus builds a WebTable-like corpus big enough that search passes
// carry many candidates (exercising the sharded verification loop).
func schemaCorpus(t *testing.T, n int) *dataset.Collection {
	t.Helper()
	raws := datagen.WebTableSchemas(datagen.SchemaConfig{NumTables: n, Seed: 7})
	return dataset.BuildWord(tokens.NewDictionary(), raws)
}

// TestParallelDiscoverByteIdentical pins the acceptance criterion: parallel
// Discover must return exactly the serial path's pairs — same pairs, same
// scores bit for bit — on a harness-style workload.
func TestParallelDiscoverByteIdentical(t *testing.T) {
	coll := schemaCorpus(t, 400)
	serial := DefaultOptions(SetSimilarity, Jaccard, 0.6, 0)
	parallel := serial
	parallel.Concurrency = 8

	engS, err := NewEngine(coll, serial)
	if err != nil {
		t.Fatal(err)
	}
	engP, err := NewEngine(coll, parallel)
	if err != nil {
		t.Fatal(err)
	}
	ps := discover(engS, coll)
	pp := discover(engP, coll)
	sortPairs(ps)
	sortPairs(pp)
	if len(ps) == 0 {
		t.Fatal("workload produced no pairs; corpus too sparse for the test")
	}
	if len(ps) != len(pp) {
		t.Fatalf("pair counts differ: serial %d, parallel %d", len(ps), len(pp))
	}
	for i := range ps {
		if ps[i] != pp[i] { // exact struct equality: indices AND float scores
			t.Fatalf("pair %d differs: serial %+v, parallel %+v", i, ps[i], pp[i])
		}
	}
	if engS.Stats()[CounterVerified] != engP.Stats()[CounterVerified] {
		t.Errorf("verified counts differ: serial %d, parallel %d",
			engS.Stats()[CounterVerified], engP.Stats()[CounterVerified])
	}
}

// TestParallelSearchByteIdentical checks the sharded candidate-verification
// loop inside one search pass: with Concurrency > 1 and many candidates,
// SearchContext must return the serial loop's matches in the same order.
func TestParallelSearchByteIdentical(t *testing.T) {
	coll := schemaCorpus(t, 400)
	serial := DefaultOptions(SetSimilarity, Jaccard, 0.5, 0)
	parallel := serial
	parallel.Concurrency = 8

	engS, err := NewEngine(coll, serial)
	if err != nil {
		t.Fatal(err)
	}
	engP, err := NewEngine(coll, parallel)
	if err != nil {
		t.Fatal(err)
	}
	sawParallel := false
	for ri := range coll.Sets {
		r := &coll.Sets[ri]
		ms := search(engS, r)
		mp := search(engP, r)
		if len(ms) != len(mp) {
			t.Fatalf("ref %d: match counts differ: serial %d, parallel %d", ri, len(ms), len(mp))
		}
		for i := range ms {
			if ms[i] != mp[i] {
				t.Fatalf("ref %d match %d differs: serial %+v, parallel %+v", ri, i, ms[i], mp[i])
			}
		}
	}
	// The corpus must actually have driven the sharded path at least once:
	// passes with >= parallelCandMin surviving candidates.
	st := engP.Stats()
	if st[CounterAfterCheck] >= int64(parallelCandMin) {
		sawParallel = true
	}
	if !sawParallel {
		t.Skipf("corpus never produced %d+ candidates in a pass; parallel path unexercised", parallelCandMin)
	}
}

func TestSearchContextCancelled(t *testing.T) {
	coll := schemaCorpus(t, 50)
	eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 0.6, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.SearchContext(ctx, &coll.Sets[0]); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDiscoverContextCancelled(t *testing.T) {
	coll := schemaCorpus(t, 50)
	eng, err := NewEngine(coll, DefaultOptions(SetSimilarity, Jaccard, 0.6, 0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.DiscoverContext(ctx, coll); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
