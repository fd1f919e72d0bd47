package main

import (
	"fmt"
	"math"
	"slices"

	"silkmoth"
	"silkmoth/internal/core"
	"silkmoth/internal/dataset"
	"silkmoth/internal/tokens"
)

// oracle answers searches by brute force (core.Engine.BruteForceSearch:
// every set verified, no signature or filter) over its own tokenization
// of a collection. Its dictionary also times query tokenization in the
// traced run, since it is built the way the engine builds its own.
type oracle struct {
	coll *dataset.Collection
	eng  *core.Engine
}

func newOracle(raws []dataset.RawSet, cfg silkmoth.Config) (*oracle, error) {
	opts := core.DefaultOptions(core.SetSimilarity, core.Jaccard, cfg.Delta, cfg.Alpha)
	if cfg.Metric == silkmoth.SetContainment {
		opts.Metric = core.SetContainment
	}
	dict := tokens.NewDictionary()
	var coll *dataset.Collection
	switch cfg.Similarity {
	case silkmoth.Jaccard:
		coll = dataset.BuildWord(dict, raws)
	case silkmoth.Eds:
		opts.Sim = core.Eds
		opts.Q = core.DefaultQ(cfg.Delta, cfg.Alpha)
		coll = dataset.BuildQGram(dict, raws, opts.Q)
	default:
		return nil, fmt.Errorf("oracle: unsupported similarity %v", cfg.Similarity)
	}
	eng, err := core.NewEngine(coll, opts)
	if err != nil {
		return nil, err
	}
	return &oracle{coll: coll, eng: eng}, nil
}

// tokenize tokenizes query sets against the oracle's dictionary, the way
// the engine tokenizes a query against its own.
func (o *oracle) tokenize(raws []dataset.RawSet) *dataset.Collection {
	return dataset.BuildQuery(o.coll.Dict, raws, o.coll.Mode, o.coll.Q)
}

// search returns the brute-force answer for q in the engine's order
// (descending relatedness, ties by ascending index), truncated to k when
// k > 0.
func (o *oracle) search(q dataset.RawSet, k int) []core.Match {
	qc := o.tokenize([]dataset.RawSet{q})
	ms := o.eng.BruteForceSearch(&qc.Sets[0])
	sortCore(ms)
	if k > 0 && len(ms) > k {
		ms = ms[:k]
	}
	return ms
}

func sortCore(ms []core.Match) {
	slices.SortFunc(ms, func(a, b core.Match) int {
		if a.Relatedness != b.Relatedness {
			if a.Relatedness > b.Relatedness {
				return -1
			}
			return 1
		}
		return a.Set - b.Set
	})
}

// answer is one search answer as the server returns it.
type answer struct {
	Index       int     `json:"index"`
	Relatedness float64 `json:"relatedness"`
}

// sameAnswer compares got with the oracle's want, where idOf maps an
// oracle index to the engine's set id.
func sameAnswer(got []answer, want []core.Match, idOf func(int) int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, oracle has %d", len(got), len(want))
	}
	for i := range got {
		w := want[i]
		if got[i].Index != idOf(w.Set) || math.Abs(got[i].Relatedness-w.Relatedness) > 1e-9 {
			return fmt.Errorf("match %d is set %d at %.12g, oracle has set %d at %.12g",
				i, got[i].Index, got[i].Relatedness, idOf(w.Set), w.Relatedness)
		}
	}
	return nil
}
