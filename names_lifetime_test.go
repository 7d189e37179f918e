package goalrec

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// nameResults is every kind of name the name-level API hands out.
type nameResults struct {
	Recs     []Recommendation
	UserRecs []Recommendation
	Explain  []Explanation
	TopGoals []GoalMatch
	Unknown  []string
	History  []string
	Actions  []string
}

// gatherNames asks lib (and users, when the library has a store) for names
// of every kind.
func gatherNames(t *testing.T, lib *Library, users *UserStore) nameResults {
	t.Helper()
	activity := []string{"act-1", "act-3", "act-5", "no-such-action"}
	var r nameResults
	r.Recs = lib.MustRecommender(Breadth).Recommend(activity, 8)
	if len(r.Recs) == 0 {
		t.Fatal("no recommendations to hold on to")
	}
	r.Explain = lib.Explain(activity, r.Recs[0].Action)
	r.TopGoals = lib.TopGoals(activity, 5)
	r.Unknown = lib.UnknownActions(activity)
	r.Actions = lib.Actions()
	if len(r.Explain) == 0 || len(r.TopGoals) == 0 || len(r.Unknown) != 1 {
		t.Fatalf("thin results: %d explanations, %d goals, unknown %q", len(r.Explain), len(r.TopGoals), r.Unknown)
	}
	if users != nil {
		if _, err := users.Append("u", activity); err != nil {
			t.Fatal(err)
		}
		var err error
		if r.History, err = users.History("u"); err != nil {
			t.Fatal(err)
		}
		res, err := users.Recommend(context.Background(), "u", Breadth, 8)
		if err != nil {
			t.Fatal(err)
		}
		r.UserRecs = res.Recommendations
		if len(r.UserRecs) == 0 || len(res.UnknownActions) != 1 {
			t.Fatalf("thin user results: %+v", res)
		}
		r.Unknown = append(r.Unknown, res.UnknownActions...)
	}
	return r
}

// deepCopy returns r with every string copied to fresh memory.
func (r nameResults) deepCopy() nameResults {
	c := nameResults{
		Recs:     append([]Recommendation(nil), r.Recs...),
		UserRecs: append([]Recommendation(nil), r.UserRecs...),
		Explain:  append([]Explanation(nil), r.Explain...),
		TopGoals: append([]GoalMatch(nil), r.TopGoals...),
		Unknown:  append([]string(nil), r.Unknown...),
		History:  append([]string(nil), r.History...),
		Actions:  append([]string(nil), r.Actions...),
	}
	for i := range c.Recs {
		c.Recs[i].Action = strings.Clone(c.Recs[i].Action)
	}
	for i := range c.UserRecs {
		c.UserRecs[i].Action = strings.Clone(c.UserRecs[i].Action)
	}
	for i := range c.Explain {
		c.Explain[i].Goal = strings.Clone(c.Explain[i].Goal)
	}
	for i := range c.TopGoals {
		c.TopGoals[i].Goal = strings.Clone(c.TopGoals[i].Goal)
	}
	for _, list := range [][]string{c.Unknown, c.History, c.Actions} {
		for i := range list {
			list[i] = strings.Clone(list[i])
		}
	}
	return c
}

// TestNamesOutliveClose: the vocabulary of a mapped library lives in the
// mapping, but a name the API has handed out is the caller's. Results kept
// across Snapshot.Close and Store.Close — which unmap — must still read, and
// read the same; a name aliasing the mapping would fault here.
func TestNamesOutliveClose(t *testing.T) {
	lib := snapshotAPILibrary(t)

	t.Run("Snapshot.Close", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "lib.gsnp")
		if err := lib.SaveSnapshotFile(path, false); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if b := snap.Library().Backing(); b.Vocab.Backing != "mapped" || b.Vocab.BaseNames != b.VocabNames {
			t.Fatalf("the snapshot's names are not served from the mapping: %+v", b.Vocab)
		}
		got := gatherNames(t, snap.Library(), nil)
		want := got.deepCopy()
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("names changed with the unmap:\n got %+v\nwant %+v", got, want)
		}
	})

	t.Run("Store.Close", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s.Engine().Swap(lib) // persists lib as a full snapshot
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		// One ingest, so results mix base names with grown ones.
		if err := s.Engine().AddImplementation("goal-new", "act-1", "act-new"); err != nil {
			t.Fatal(err)
		}
		served := s.Engine().Snapshot()
		if b := served.Backing(); b.Vocab.Backing != "mapped" || b.Vocab.GrownNames != 2 {
			t.Fatalf("the recovered names are not served from the mapping: %+v", b.Vocab)
		}
		got := gatherNames(t, served, s.Users())
		want := got.deepCopy()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("names changed with the unmap:\n got %+v\nwant %+v", got, want)
		}
	})
}

// TestVocabChecksumAcrossBackings: the checksum is a function of the names
// and the id spaces, not of where the dictionary lives — parsed on the heap,
// served from a mapping, or grown by ingests and snapshotted again.
func TestVocabChecksumAcrossBackings(t *testing.T) {
	heap := snapshotAPILibrary(t)
	dir := t.TempDir()
	open := func(lib *Library, name string) *Library {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := lib.SaveSnapshotFile(path, false); err != nil {
			t.Fatal(err)
		}
		snap, err := OpenSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { snap.Close() })
		return snap.Library()
	}
	mapped := open(heap, "base.gsnp")
	if got, want := mapped.VocabChecksum(), heap.VocabChecksum(); got != want {
		t.Fatalf("mapped checksum %#x != heap %#x", got, want)
	}

	grow := func(lib *Library) *Library {
		t.Helper()
		e := NewEngineFromLibrary(lib)
		if err := e.AddImplementation("goal-grown", "act-1", "act-grown", ""+"act-grown-2"); err != nil {
			t.Fatal(err)
		}
		return e.Snapshot()
	}
	heapGrown, mappedGrown := grow(snapshotAPILibrary(t)), grow(mapped)
	want := heapGrown.VocabChecksum()
	if want == heap.VocabChecksum() {
		t.Fatal("growing the vocabulary did not change the checksum")
	}
	if got := mappedGrown.VocabChecksum(); got != want {
		t.Fatalf("grown-on-mapped checksum %#x != grown-on-heap %#x", got, want)
	}
	if got := open(mappedGrown, "grown.gsnp").VocabChecksum(); got != want {
		t.Fatalf("grown-then-resnapshotted checksum %#x != %#x", got, want)
	}
	// The older epoch still hashes its own, smaller id spaces.
	if got := mapped.VocabChecksum(); got != heap.VocabChecksum() {
		t.Fatalf("the base epoch's checksum moved to %#x", got)
	}
}

// TestVocabChecksumShards: a shard keeps its parent's id spaces, so one cut
// on the heap and one mapped from its shard file, cut or reopened, report
// the parent's checksum.
func TestVocabChecksumShards(t *testing.T) {
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 5)
	lib, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	want, n := lib.VocabChecksum(), lib.NumImplementations()
	part, err := lib.Partition(1, n/2)
	if err != nil {
		t.Fatal(err)
	}
	if got := part.VocabChecksum(); got != want {
		t.Fatalf("Partition checksum %#x, parent %#x", got, want)
	}
	for _, wantDecision := range []string{SidecarRebuilt, SidecarHit} {
		shard, d, err := lib.PartitionMapped(n/2, -1)
		if err != nil || !strings.HasPrefix(d, wantDecision) {
			t.Fatalf("PartitionMapped: decision %q, err %v; want %s", d, err, wantDecision)
		}
		if got := shard.VocabChecksum(); got != want {
			t.Fatalf("PartitionMapped (%s) checksum %#x, parent %#x", d, got, want)
		}
	}
}

// TestVocabChecksumSeparates: libraries with the same name bytes laid out
// differently — split at another boundary, interned in another order, or one
// name moved from the actions to the goals — hash apart, and an empty
// library hashes. Each 32-bit half covers every byte, so the two differ in
// both halves, even where their offsets agree ("order").
func TestVocabChecksumSeparates(t *testing.T) {
	// build adds one implementation per row: the goal, then its actions.
	build := func(rows ...[]string) *Library {
		t.Helper()
		b := NewBuilder()
		for _, r := range rows {
			if err := b.AddImplementation(r[0], r[1:]...); err != nil {
				t.Fatal(err)
			}
		}
		return b.Build()
	}
	for _, tc := range []struct {
		name string
		a, b *Library
	}{
		{"boundary", build([]string{"g", "ab", "c"}), build([]string{"g", "a", "bc"})},
		{"order", build([]string{"g", "x", "y"}), build([]string{"g", "y", "x"})},
		{"action to goal",
			build([]string{"c", "a", "b"}),
			build([]string{"b", "a"}, []string{"c", "a"})},
		{"empty", build(), build([]string{"g", "a"})},
	} {
		if a, b := tc.a.VocabChecksum(), tc.b.VocabChecksum(); a>>32 == b>>32 || uint32(a) == uint32(b) {
			t.Errorf("%s: checksums %#016x and %#016x share a half", tc.name, a, b)
		}
	}
}

// TestVocabChecksumAllocs: a mapped library nothing has grown on is hashed
// in place, not one name copy at a time.
func TestVocabChecksumAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	src := filepath.Join(t.TempDir(), "lib.jsonl")
	writeSidecarSource(t, src, 9)
	lib, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	if st := lib.vocab.Actions.Stats(); !st.Mapped || st.GrownNames != 0 {
		t.Fatalf("actions %+v, want a mapped base and nothing grown", st)
	}
	if allocs := testing.AllocsPerRun(20, func() { lib.computeVocabChecksum() }); allocs > 1 {
		t.Fatalf("%v allocations per checksum, want at most 1", allocs)
	}
}
