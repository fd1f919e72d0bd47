package silkmoth

import (
	"context"
	"testing"
)

// TestStageLatenciesPublic drives both engine shapes with every pass timed
// and checks the public observability surface: stage histograms populated,
// Stats carrying the stage time sums, per-shard latencies on the sharded
// engine only.
func TestStageLatenciesPublic(t *testing.T) {
	sets := allocCorpus(120)
	for _, shards := range []int{1, 3} {
		eng, err := NewEngine(sets, Config{
			Similarity:  Jaccard,
			Delta:       0.5,
			Alpha:       0.3,
			Shards:      shards,
			StageSample: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		const queries = 4
		for i := 0; i < queries; i++ {
			if _, err := eng.Search(sets[7]); err != nil {
				t.Fatal(err)
			}
		}
		wantPasses := int64(queries * shards)
		sl := eng.StageLatencies()
		for _, h := range []LatencyHistogram{sl.Signature, sl.Collect, sl.Refine, sl.Verify} {
			if h.Count != wantPasses {
				t.Errorf("shards=%d: stage histogram count = %d, want %d", shards, h.Count, wantPasses)
			}
			if len(h.Bounds) == 0 || len(h.Counts) != len(h.Bounds)+1 {
				t.Errorf("shards=%d: malformed histogram: %d bounds, %d counts", shards, len(h.Bounds), len(h.Counts))
			}
		}
		st := eng.Stats()
		if st.TimedPasses != wantPasses {
			t.Errorf("shards=%d: TimedPasses = %d, want %d", shards, st.TimedPasses, wantPasses)
		}
		if st.Stages.Signature <= 0 || st.Stages.Collect <= 0 || st.Stages.Verify <= 0 {
			t.Errorf("shards=%d: stage times not accumulated: %+v", shards, st.Stages)
		}
		shl := eng.ShardLatencies()
		if shards == 1 {
			if shl != nil {
				t.Errorf("unsharded engine reports shard latencies: %v", shl)
			}
			continue
		}
		if len(shl) != shards {
			t.Fatalf("got %d shard latency histograms, want %d", len(shl), shards)
		}
		for s, h := range shl {
			if h.Count != queries {
				t.Errorf("shard %d scatter count = %d, want %d", s, h.Count, queries)
			}
		}
	}
}

// TestExplainStages checks an explained query reports its per-stage wall
// time split alongside the funnel.
func TestExplainStages(t *testing.T) {
	sets := allocCorpus(120)
	eng, err := NewEngine(sets, Config{
		Similarity:  Jaccard,
		Delta:       0.5,
		Alpha:       0.3,
		StageSample: -1, // explain must time even with sampling disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Explain(sets[7])
	if err != nil {
		t.Fatal(err)
	}
	ex := res.Explain
	if ex == nil {
		t.Fatal("no explain capture")
	}
	stagesSum := ex.Stages.Signature + ex.Stages.Collect + ex.Stages.Refine + ex.Stages.Verify
	if stagesSum <= 0 {
		t.Fatalf("explain stage times empty: %+v", ex.Stages)
	}
	if stagesSum > ex.Elapsed {
		t.Errorf("stage times %v exceed total elapsed %v", stagesSum, ex.Elapsed)
	}
}

// TestExplainMatchesStatsDelta pins the query capture and the engine's
// cumulative counters together: for each query shape on each engine shape,
// one explained call's funnel and stage times must equal the Stats delta
// across that call.
func TestExplainMatchesStatsDelta(t *testing.T) {
	sets := shardedCorpus(40)
	calls := []struct {
		name string
		run  func(*Engine, QueryOption) error
	}{
		{"search", func(e *Engine, o QueryOption) error {
			_, err := e.SearchContext(context.Background(), sets[7], o)
			return err
		}},
		{"topk", func(e *Engine, o QueryOption) error {
			_, err := e.SearchTopKContext(context.Background(), sets[7], 3, o)
			return err
		}},
		{"discover", func(e *Engine, o QueryOption) error {
			_, err := e.DiscoverContext(context.Background(), o)
			return err
		}},
	}
	statsFunnel := func(st Stats) [13]int64 {
		return [...]int64{st.SearchPasses, st.FullScans, st.SigTokens, st.Candidates,
			st.AfterCheck, st.CheckPruned, st.AfterNN, st.NNPruned, st.Verified,
			st.SchemeWeighted, st.SchemeSkyline, st.SchemeDichotomy, st.SchemeCombUnweighted}
	}
	for _, shards := range []int{1, 2} {
		eng, err := NewEngine(sets, Config{
			Similarity:  Jaccard,
			Delta:       0.5,
			Alpha:       0.3,
			Shards:      shards,
			Concurrency: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			before := eng.Stats()
			var ex Explain
			if err := c.run(eng, WithExplain(&ex)); err != nil {
				t.Fatalf("shards=%d %s: %v", shards, c.name, err)
			}
			after := eng.Stats()
			got := [...]int64{ex.Passes, ex.FullScans, ex.SigTokens, ex.Candidates,
				ex.AfterCheck, ex.CheckPruned, ex.AfterNN, ex.NNPruned, ex.Verified,
				ex.Schemes[SchemeWeighted.String()], ex.Schemes[SchemeSkyline.String()],
				ex.Schemes[SchemeDichotomy.String()], ex.Schemes[SchemeCombUnweighted.String()]}
			var want [13]int64
			b, a := statsFunnel(before), statsFunnel(after)
			for i := range want {
				want[i] = a[i] - b[i]
			}
			if got != want {
				t.Errorf("shards=%d %s: explain funnel %v, stats delta %v", shards, c.name, got, want)
			}
			stages := StageTimes{
				Signature: after.Stages.Signature - before.Stages.Signature,
				Collect:   after.Stages.Collect - before.Stages.Collect,
				Refine:    after.Stages.Refine - before.Stages.Refine,
				Verify:    after.Stages.Verify - before.Stages.Verify,
			}
			if ex.Stages != stages {
				t.Errorf("shards=%d %s: explain stages %+v, stats delta %+v", shards, c.name, ex.Stages, stages)
			}
			if ex.Candidates == 0 || ex.Verified == 0 {
				t.Errorf("shards=%d %s: degenerate funnel %v", shards, c.name, got)
			}
		}
	}
}
