package goalrec_test

// End-to-end pipeline test over the public API only: extract libraries from
// text, merge with a hand-built one, deduplicate, infer goals, recommend
// with every strategy (cached and uncached), compare against every baseline,
// and round-trip the whole thing through both persistence formats.

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"goalrec"
)

func TestPublicPipelineEndToEnd(t *testing.T) {
	// 1. A curated library plus one extracted from stories.
	curated := goalrec.NewBuilder()
	for goal, actions := range map[string][]string{
		"get fit":    {"join gym", "start jog", "stretch daily"},
		"save money": {"set budget", "cancel subscription", "cook home"},
	} {
		if err := curated.AddImplementation(goal, actions...); err != nil {
			t.Fatal(err)
		}
	}
	extracted, kept := goalrec.BuildFromStories([]goalrec.Story{
		{Goal: "get fit", Text: "I joined a gym. I stretched daily."},
		{Goal: "get fit", Text: "I joined a gym. I stretched daily."}, // duplicate story
		{Goal: "run a marathon", Text: "I joined a running club. I trained on weekends."},
	}, goalrec.ExtractOptions{Synonyms: map[string]string{"jogging": "jog"}})
	if kept != 3 {
		t.Fatalf("kept = %d", kept)
	}

	// 2. Merge and deduplicate.
	merged := goalrec.MergeLibraries(curated.Build(), extracted)
	lib, stats := merged.Deduplicate(1)
	if stats.ExactDuplicates != 1 {
		t.Fatalf("dedupe stats = %+v", stats)
	}

	// 3. Goal inference on a mixed activity.
	activity := []string{"join gym", "set budget"}
	goals := lib.TopGoals(activity, -1)
	if len(goals) < 2 {
		t.Fatalf("TopGoals = %v", goals)
	}

	// 4. Every strategy produces consistent cached/uncached output.
	for _, s := range goalrec.Strategies() {
		plain := lib.MustRecommender(s)
		cached := lib.MustRecommender(s, goalrec.WithCache(16))
		a := plain.Recommend(activity, 5)
		b := cached.Recommend(activity, 5)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: cached output diverged", s)
		}
		if len(a) == 0 {
			t.Errorf("%s produced nothing", s)
		}
		// Explanations exist for the top recommendation.
		if exp := lib.Explain(activity, a[0].Action); len(exp) == 0 {
			t.Errorf("%s: top recommendation %q has no explanation", s, a[0].Action)
		}
	}

	// 5. Baselines operate over the same vocabulary.
	corpus := lib.NewCorpus([][]string{
		{"join gym", "start jog"},
		{"set budget", "cook home"},
		{"join gym", "stretch daily", "cook home"},
	})
	baselines := []goalrec.Recommender{
		corpus.KNNRecommender(0),
		corpus.PopularityRecommender(),
		corpus.AssocRulesRecommender(1),
		corpus.ItemKNNRecommender(0),
		corpus.BPRRecommender(goalrec.BPRConfig{Factors: 4, Epochs: 3, Seed: 1}),
	}
	mf, err := corpus.MFRecommender(goalrec.MFConfig{Factors: 4, Iterations: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	baselines = append(baselines, mf)
	for _, rec := range baselines {
		for _, r := range rec.Recommend(activity, 5) {
			if r.Action == "join gym" || r.Action == "set budget" {
				t.Errorf("%s recommended a performed action", rec.Name())
			}
		}
	}

	// 6. Round-trip through both persistence formats preserves behaviour.
	ref := lib.MustRecommender(goalrec.Breadth).Recommend(activity, 5)
	var jsonBuf bytes.Buffer
	if err := lib.SaveJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := goalrec.LoadLibraryJSON(&jsonBuf)
	if err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(t.TempDir(), "lib.gsnp")
	if err := lib.SaveSnapshotFile(snapPath, false); err != nil {
		t.Fatal(err)
	}
	snap, err := goalrec.OpenSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	for _, reloaded := range []*goalrec.Library{fromJSON, snap.Library()} {
		got := reloaded.MustRecommender(goalrec.Breadth).Recommend(activity, 5)
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("persistence round trip changed recommendations")
		}
	}
}
