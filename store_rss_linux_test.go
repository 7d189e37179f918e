package goalrec

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/xrand"
)

// mappedRss sums the resident set, in bytes, of this process's mappings of
// the file at path (/proc/self/smaps: one header line per mapping, then its
// fields, Rss among them, in kB).
func mappedRss(t *testing.T, path string) int64 {
	t.Helper()
	f, err := os.Open("/proc/self/smaps")
	if err != nil {
		t.Skipf("no smaps: %v", err)
	}
	defer f.Close()
	var total int64
	ours := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) == 0:
		case strings.Contains(fields[0], "-") && len(fields) >= 5:
			// A mapping's header: range, perms, offset, device, inode[, path].
			ours = len(fields) == 6 && fields[5] == path
		case ours && fields[0] == "Rss:":
			kb, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			total += kb << 10
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return total
}

// TestStoreSeedLeavesSidecarPagesAlone: seeding a store with a sidecar-served
// library copies the sidecar through read, so the pages of the mapping the
// library is served from stay out of the process — a count of resident pages,
// not a timing, so it repeats exactly. Re-serialising the library instead
// reads every index row through the mapping and makes nearly the whole file
// resident.
func TestStoreSeedLeavesSidecarPagesAlone(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	rng := rand.New(rand.NewSource(35))
	var sb strings.Builder
	for i := 0; i < 60000; i++ {
		fmt.Fprintf(&sb, `{"goal":"g%d","actions":[`, rng.Intn(6000))
		for j, n := 0, 3+rng.Intn(6); j < n; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"a%d"`, rng.Intn(8000))
		}
		sb.WriteString("]}\n")
	}
	if err := os.WriteFile(src, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	side := src + SidecarSuffix
	fi, err := os.Stat(side)
	if err != nil {
		t.Fatal(err)
	}

	before := mappedRss(t, side)
	s, err := OpenStore(filepath.Join(dir, "store"), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Engine().Swap(lib)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	after := mappedRss(t, side)
	t.Logf("sidecar %d bytes; resident %d -> %d bytes", fi.Size(), before, after)
	if grown := after - before; grown > fi.Size()/10 {
		t.Fatalf("seeding the store made %d bytes (%.0f %%) of the %d-byte sidecar resident; want ≤ 10 %%",
			grown, 100*float64(grown)/float64(fi.Size()), fi.Size())
	}
}

// TestVocabChecksumLeavesNamePagesAlone: a sidecar-served library at the
// bench vocabulary shape (10 000 actions, 125 000 goals) answers
// VocabChecksum — what a cluster node sends and checks at registration —
// and resolves a few action names without making its vocabulary resident:
// the checksum is read from the image's sealed section, and a lookup pages in
// only the slots and names it probes. Hashing the names instead makes every
// byte of the four vocabulary sections resident.
func TestVocabChecksumLeavesNamePagesAlone(t *testing.T) {
	const nAct, nGoal = 10_000, 125_000
	dir := t.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	rng := rand.New(rand.NewSource(48))
	var sb strings.Builder
	for g := 0; g < nGoal; g++ {
		fmt.Fprintf(&sb, `{"goal":"goal-%d","actions":["action-%d","action-%d"]}`+"\n", g, g%nAct, rng.Intn(nAct))
	}
	if err := os.WriteFile(src, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	side := src + SidecarSuffix
	d, err := core.DescribeSnapshotFile(nil, side)
	if err != nil {
		t.Fatal(err)
	}
	var vocabBytes int64
	for _, s := range d.Sections {
		switch s.Name {
		case "vocab-action-offsets", "vocab-action-names", "vocab-goal-offsets", "vocab-goal-names":
			vocabBytes += int64(s.Bytes)
		}
	}

	before := mappedRss(t, side)
	sum := lib.VocabChecksum()
	ids, unknown := lib.ResolveActivity([]string{"action-1", "action-4242", "action-9999"})
	after := mappedRss(t, side)
	t.Logf("vocabulary sections %d bytes; sidecar resident %d -> %d bytes", vocabBytes, before, after)
	if len(ids) != 3 || unknown != nil {
		t.Fatalf("resolved %v, unknown %v", ids, unknown)
	}
	if grown := after - before; grown >= vocabBytes/4 {
		t.Fatalf("the checksum and three lookups made %d bytes (%.0f %%) of the %d vocabulary bytes resident; want < 25 %%",
			grown, 100*float64(grown)/float64(vocabBytes), vocabBytes)
	}
	if v := lib.Backing().Vocab; v.Checksum != "sealed" {
		t.Fatalf("vocab ledger %+v, want the checksum sealed", v)
	}
	if want := parseReference(t, src).VocabChecksum(); sum != want {
		t.Fatalf("sealed checksum %#x, the parse's %#x", sum, want)
	}
}

// TestBestMatchSidecarResidency: a sidecar-served library at the bench shape
// (250 000 implementations of 2+Poisson(6) Zipf(0.6)-popular actions out of
// 10 000, two per goal) answers 2 000 Best Match queries of five uniform
// actions while little of its GA-idx sections is resident: the GA-idx stores
// only the 3 % of its rows whose goal's implementations share an action, and
// every other goal is walked through its G-GI-idx and implementation rows,
// which the candidate walk makes resident anyway. An image that stores every
// GA row leaves them resident too: on a 2-CPU Linux box the mapping ends with
// 34 930 688 of its 38 978 160 bytes resident that way, against 20 905 984
// of 23 541 744 with the rows dropped; the bound, 26 MiB, lies between.
func TestBestMatchSidecarResidency(t *testing.T) {
	const nImpl, nAct, queries = 250_000, 10_000, 2_000
	dir := t.TempDir()
	src := filepath.Join(dir, "lib.jsonl")
	rng := xrand.New(1)
	pop := xrand.NewZipf(rng.Split(), nAct, 0.6)
	var sb strings.Builder
	var ids []int
	for i := 0; i < nImpl; i++ {
		ids = ids[:0]
	draw:
		for j, n := 0, 2+rng.Poisson(6); j < n; j++ {
			id := pop.Next()
			for _, seen := range ids {
				if seen == id {
					continue draw
				}
			}
			ids = append(ids, id)
		}
		if len(ids) < 2 {
			ids = append(ids, (ids[0]+1)%nAct)
		}
		fmt.Fprintf(&sb, `{"goal":"g%d","actions":[`, i/2)
		for j, id := range ids {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `"a%d"`, id)
		}
		sb.WriteString("]}\n")
	}
	if err := os.WriteFile(src, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	lib, _, err := LoadLibraryFileMapped(src)
	if err != nil {
		t.Fatal(err)
	}
	side := src + SidecarSuffix
	fi, err := os.Stat(side)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := lib.Recommender(BestMatch)
	if err != nil {
		t.Fatal(err)
	}
	qr := rand.New(rand.NewSource(50))
	activity := make([]string, 5)
	for q := 0; q < queries; q++ {
		for i, a := range qr.Perm(nAct)[:len(activity)] {
			activity[i] = fmt.Sprintf("a%d", a)
		}
		if len(rec.Recommend(activity, 10)) == 0 {
			t.Fatalf("no recommendation for %v", activity)
		}
	}
	rss := mappedRss(t, side)
	t.Logf("sidecar %d bytes; %d bytes resident after %d queries", fi.Size(), rss, queries)
	if bound := int64(26 << 20); rss > bound {
		t.Fatalf("%d Best Match queries left %d bytes of the %d-byte sidecar resident; want ≤ %d",
			queries, rss, fi.Size(), bound)
	}
}
