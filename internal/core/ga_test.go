package core

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// gaKindsLibrary holds the three kinds of goal the GA-idx tells apart, its
// implementations interleaved: goal 0 has one implementation, goal 1 three
// action-disjoint ones, goal 2 three that share actions 3 and 5; goal 3 has
// none and goal 4 one.
func gaKindsLibrary(t testing.TB) *Library {
	t.Helper()
	var b Builder
	for _, impl := range []Implementation{
		{2, []ActionID{0, 3}},
		{1, []ActionID{3, 4}},
		{0, []ActionID{0, 1, 2}},
		{2, []ActionID{3, 5, 8}},
		{1, []ActionID{5}},
		{4, []ActionID{1}},
		{2, []ActionID{5, 9}},
		{1, []ActionID{6, 7}},
	} {
		if _, err := b.Add(impl.Goal, impl.Actions); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// naiveGARow is goal g's GA row counted from its implementations.
func naiveGARow(l *Library, g GoalID) ([]ActionID, []int32) {
	count := map[ActionID]int32{}
	for p := 0; p < l.NumImplementations(); p++ {
		if l.Goal(ImplID(p)) == g {
			for _, a := range l.Actions(ImplID(p)) {
				count[a]++
			}
		}
	}
	var acts []ActionID
	for a := range count {
		acts = append(acts, a)
	}
	slices.Sort(acts)
	var cnts []int32
	for _, a := range acts {
		cnts = append(cnts, count[a])
	}
	return acts, cnts
}

// checkGARows holds every goal of l to the rule: the stored row is the
// goal's naive row when a multiplicity in it is above 1, and empty
// otherwise; ActionsOfGoal and GoalActionCount give the naive row whichever
// it is, and Stats counts its (goal, action) pairs.
func checkGARows(t *testing.T, l *Library) {
	t.Helper()
	pairs := 0
	for g := GoalID(0); int(g) < l.NumGoals(); g++ {
		wa, wc := naiveGARow(l, g)
		pairs += len(wa)
		sa, sc := l.StoredGoalRow(g)
		if sharesAction(wc) {
			if !slices.Equal(sa, wa) || !slices.Equal(sc, wc) {
				t.Fatalf("goal %d stores %v/%v, its implementations give %v/%v", g, sa, sc, wa, wc)
			}
		} else if len(sa) != 0 {
			t.Fatalf("goal %d of action-disjoint implementations stores %v/%v", g, sa, sc)
		}
		if ga, gc := l.ActionsOfGoal(g); !slices.Equal(ga, wa) || !slices.Equal(gc, wc) {
			t.Fatalf("goal %d: ActionsOfGoal %v/%v, its implementations give %v/%v", g, ga, gc, wa, wc)
		}
		if n := l.GoalActionCount(g); n != len(wa) {
			t.Fatalf("goal %d: GoalActionCount %d, want %d", g, n, len(wa))
		}
	}
	s := l.Stats()
	if want := float64(pairs) / float64(s.Actions); s.Actions > 0 && s.AvgGoalsPerAction != want {
		t.Fatalf("AvgGoalsPerAction %v, want %v", s.AvgGoalsPerAction, want)
	}
}

// storedGoals returns the goals whose stored GA row is not empty.
func storedGoals(l *Library) []GoalID {
	var out []GoalID
	for g := GoalID(0); int(g) < l.NumGoals(); g++ {
		if acts, _ := l.StoredGoalRow(g); len(acts) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// TestGARowStoredOnlyWhenShared: a built library stores the GA row of the
// goal whose implementations share an action and no other, and a snapshot
// of it stores, verifies and serves the same.
func TestGARowStoredOnlyWhenShared(t *testing.T) {
	lib := gaKindsLibrary(t)
	checkGARows(t, lib)
	if got := storedGoals(lib); !slices.Equal(got, []GoalID{2}) {
		t.Fatalf("stored GA rows of goals %v, want [2]", got)
	}
	if ib := lib.IndexBytes(); ib.GA != 4*(6+2*5) {
		t.Fatalf("GA-idx of %d bytes, want 6 offsets and goal 2's 5 entries", ib.GA)
	}
	snap := snapshotRoundTrip(t, lib, nil, SnapshotOptions{})
	checkGARows(t, snap.Library())
	if got := storedGoals(snap.Library()); !slices.Equal(got, []GoalID{2}) {
		t.Fatalf("the image stores the GA rows of goals %v, want [2]", got)
	}
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		checkGARows(t, randomLibrary(r, 1+r.Intn(200), 2+r.Intn(40), 1+r.Intn(120)))
	}
}

// TestGARowsThroughIngest: the overlay keeps a touched goal's merged GA row
// only when its implementations come to share an action, through an ingest
// that makes a disjoint goal overlap, one that keeps one disjoint, one that
// adds a goal and a compaction; each snapshot writes an image that verifies
// and stores the same rows.
func TestGARowsThroughIngest(t *testing.T) {
	d := NewDynamicLibrary()
	d.Swap(gaKindsLibrary(t))
	d.SetCompactionThreshold(100)
	for _, step := range []struct {
		name   string
		impl   Implementation
		stored []GoalID
	}{
		{"disjoint goal 1 comes to share action 4", Implementation{1, []ActionID{4, 10}}, []GoalID{1, 2}},
		{"single goal 0 stays disjoint", Implementation{0, []ActionID{11}}, []GoalID{1, 2}},
		{"new goal 5", Implementation{5, []ActionID{0, 12}}, []GoalID{1, 2}},
		{"compaction", Implementation{4, []ActionID{1}}, []GoalID{1, 2, 4}},
	} {
		if step.name == "compaction" {
			d.SetCompactionThreshold(1)
		}
		if _, err := d.Add(step.impl.Goal, step.impl.Actions); err != nil {
			t.Fatal(err)
		}
		lib := d.Snapshot()
		if flat := lib.TailImplementations() == 0; flat != (step.name == "compaction") {
			t.Fatalf("%s: %d implementations in the tail", step.name, lib.TailImplementations())
		}
		checkGARows(t, lib)
		if got := storedGoals(lib); !slices.Equal(got, step.stored) {
			t.Fatalf("%s: stored GA rows of goals %v, want %v", step.name, got, step.stored)
		}
		snap := snapshotRoundTrip(t, lib, nil, SnapshotOptions{})
		if got := storedGoals(snap.Library()); !slices.Equal(got, step.stored) {
			t.Fatalf("%s: the image stores the GA rows of goals %v, want %v", step.name, got, step.stored)
		}
	}
}

// denseV1Image writes l as a version-1 writer did: the GA row of every goal
// stored, rows of multiplicity 1 included, under version 1.
func denseV1Image(t testing.TB, l *Library, vocab *Vocabulary, opts SnapshotOptions) []byte {
	t.Helper()
	p, err := planSnapshot(l, vocab, opts)
	if err != nil {
		t.Fatal(err)
	}
	nGoal := l.NumGoals()
	gaOff := make([]int32, nGoal+1)
	for g := 0; g < nGoal; g++ {
		gaOff[g+1] = gaOff[g] + int32(l.GoalActionCount(GoalID(g)))
	}
	for i := range p.secs {
		s := &p.secs[i]
		switch s.id {
		case secGaOff:
			s.emit = func(sw *snapWriter) { sw.writeI32s(gaOff) }
		case secGaAct, secGaCnt:
			s.count = uint64(gaOff[nGoal])
			id := s.id
			s.emit = func(sw *snapWriter) {
				for g := 0; g < nGoal; g++ {
					acts, cnts := l.ActionsOfGoal(GoalID(g))
					if id == secGaAct {
						writeI32Slice(sw, acts)
					} else {
						sw.writeI32s(cnts)
					}
				}
			}
		}
	}
	var buf bytes.Buffer
	if err := p.write(&buf); err != nil {
		t.Fatal(err)
	}
	// Version 1, under a header and a footer checksum sealed again.
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[4:], 1)
	crc := crc32.ChecksumIEEE(b[:60])
	crc = crc32.Update(crc, crc32.IEEETable, b[snapHeaderSize:snapHeaderSize+snapSectSize*len(p.secs)])
	binary.LittleEndian.PutUint32(b[60:], crc)
	end := len(b) - snapFooterSize
	binary.LittleEndian.PutUint32(b[end+4:], crc32.ChecksumIEEE(b[:end]))
	return b
}

// checkDenseRewrite holds a dense image's library and its rewrite to the
// formats' rule: the dense library stores every goal's row, the rewrite is
// version 2 and stores exactly the dense rows with a count above 1, and both
// serve the same rows.
func checkDenseRewrite(t *testing.T, dense *Library, vocab *Vocabulary) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, dense, vocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if v := binary.LittleEndian.Uint32(buf.Bytes()[4:]); v != 2 {
		t.Fatalf("a rewrite is version %d, want 2", v)
	}
	snap, err := OpenSnapshotBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySnapshot(snap); err != nil {
		t.Fatalf("VerifySnapshot of the rewrite: %v", err)
	}
	sparse := snap.Library()
	dropped := 0
	for g := GoalID(0); int(g) < dense.NumGoals(); g++ {
		da, dc := dense.StoredGoalRow(g)
		if len(dense.ImplsOfGoal(g)) > 0 && len(da) == 0 {
			t.Fatalf("goal %d: the dense image stores no GA row", g)
		}
		sa, sc := sparse.StoredGoalRow(g)
		switch {
		case sharesAction(dc) && (!slices.Equal(sa, da) || !slices.Equal(sc, dc)):
			t.Fatalf("goal %d: the rewrite stores %v/%v, the dense image %v/%v", g, sa, sc, da, dc)
		case !sharesAction(dc) && len(sa) != 0:
			t.Fatalf("goal %d: the rewrite stores the all-ones row %v", g, sa)
		case !sharesAction(dc):
			dropped += len(da)
		}
	}
	if dropped == 0 {
		t.Fatal("the dense image stores no all-ones row to drop")
	}
	assertLibrariesEqual(t, dense, sparse)
	checkGARows(t, sparse)
}

// TestDenseSnapshotsOpen: version-1 images — the committed fixtures and a
// dense image of a fresh library — open, verify and serve every row they
// store; an ingest on top of one keeps the rule for the goals it touches;
// a rewrite is version 2 and stores exactly their rows with a count above 1.
func TestDenseSnapshotsOpen(t *testing.T) {
	for _, path := range []string{sidecarFixture, retiredLayoutFixture} {
		t.Run(filepath.Base(path), func(t *testing.T) {
			snap, err := OpenSnapshotVerified(nil, path, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()
			if d, err := DescribeSnapshotFile(nil, path); err != nil || d.Version != 1 {
				t.Fatalf("the fixture describes as %+v, %v; want version 1", d, err)
			}
			if err := VerifySnapshot(snap); err != nil {
				t.Fatal(err)
			}
			checkDenseRewrite(t, snap.Library(), snap.Vocabulary())
		})
	}

	lib := randomLibrary(rand.New(rand.NewSource(9)), 400, 60, 150)
	path := filepath.Join(t.TempDir(), "dense.gsnp")
	if err := os.WriteFile(path, denseV1Image(t, lib, nil, SnapshotOptions{}), 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := OpenSnapshotVerified(nil, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	if err := VerifySnapshot(snap); err != nil {
		t.Fatal(err)
	}
	assertLibrariesEqual(t, lib, snap.Library())
	checkDenseRewrite(t, snap.Library(), nil)

	// Goal g stores an all-ones row in the dense base; an ingest that keeps
	// its implementations disjoint drops the row from the overlay, one that
	// makes them share an action keeps the merged row.
	var disjoint, other GoalID = -1, -1
	for g := GoalID(0); int(g) < lib.NumGoals(); g++ {
		if _, cnts := snap.Library().StoredGoalRow(g); len(cnts) > 0 && !sharesAction(cnts) {
			if disjoint < 0 {
				disjoint = g
			} else if other < 0 {
				other = g
			}
		}
	}
	if other < 0 {
		t.Fatal("the dense image has fewer than two all-ones rows")
	}
	d := NewDynamicLibrary()
	d.Swap(snap.Library())
	shared, _ := snap.Library().ActionsOfGoal(other)
	for _, impl := range []Implementation{
		{disjoint, []ActionID{ActionID(lib.NumActions())}},
		{other, []ActionID{shared[0]}},
	} {
		if _, err := d.Add(impl.Goal, impl.Actions); err != nil {
			t.Fatal(err)
		}
	}
	ext := d.Snapshot()
	if ext.TailImplementations() != 2 {
		t.Fatalf("the ingest compacted (%d in the tail)", ext.TailImplementations())
	}
	if acts, _ := ext.StoredGoalRow(disjoint); len(acts) != 0 {
		t.Fatalf("goal %d stays disjoint yet its merged row %v is kept", disjoint, acts)
	}
	if acts, _ := ext.StoredGoalRow(other); len(acts) == 0 {
		t.Fatalf("goal %d came to share action %d yet keeps no row", other, shared[0])
	}
	for _, g := range []GoalID{disjoint, other} {
		wa, wc := naiveGARow(ext, g)
		if ga, gc := ext.ActionsOfGoal(g); !slices.Equal(ga, wa) || !slices.Equal(gc, wc) {
			t.Fatalf("goal %d: ActionsOfGoal %v/%v, its implementations give %v/%v", g, ga, gc, wa, wc)
		}
	}
	ext2 := snapshotRoundTrip(t, ext, nil, SnapshotOptions{}).Library()
	assertLibrariesEqual(t, ext, ext2)
	checkGARows(t, ext2)
}

// TestCopyDenseSnapshot: a version-1 store seed copies and links as it is:
// the copy stays version 1, restamped, and opens with the same rows.
func TestCopyDenseSnapshot(t *testing.T) {
	dir := t.TempDir()
	lib, vocab, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(5, 1500, 200)))
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("source-a")
	src := filepath.Join(dir, "src.gsnp")
	if err := os.WriteFile(src, denseV1Image(t, lib, vocab, SnapshotOptions{SourceKey: key}), 0o644); err != nil {
		t.Fatal(err)
	}
	linked := filepath.Join(dir, "linked.gsnp")
	if ok, err := LinkSnapshotFileFS(nil, linked, src, key, lib); !ok || err != nil {
		t.Fatalf("LinkSnapshotFileFS: %v, %v", ok, err)
	}
	copied := filepath.Join(dir, "copied.gsnp")
	if err := CopySnapshotFileFS(nil, copied, src, key, lib.WithEpoch(3)); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{linked, copied} {
		d, err := DescribeSnapshotFile(nil, path)
		if err != nil || d.Version != 1 {
			t.Fatalf("%s describes as %+v, %v; want version 1", path, d, err)
		}
		snap, err := OpenSnapshotVerified(nil, path, KeyIs(key))
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySnapshot(snap); err != nil {
			t.Fatal(err)
		}
		assertLibrariesEqual(t, lib, snap.Library())
		snap.Close()
	}
}
