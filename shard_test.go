package goalrec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"

	"goalrec/internal/core"
	"goalrec/internal/faultfs"
)

// shardKeyOf returns the source key a shard file carries.
func shardKeyOf(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.DescribeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	return d.SourceKey
}

// TestShardSidecarTable drives PartitionMapped through every state a shard
// file can be found in, for a closed and an open-ended range:
// the cut is always made the way a worker makes it — the library loaded
// through its sidecar, adopted by an engine — and must serve exactly what
// Partition cuts from the parse of the current source.
func TestShardSidecarTable(t *testing.T) {
	const lo = 400
	for _, st := range []struct {
		name string
		warm bool // the shard file exists, cut from the source as first written
		// disturb runs between the warm-up and the cut under test.
		disturb func(t *testing.T, src, shard string)
		// readOnly fails the shard write the way a read-only directory does.
		readOnly bool
		// ingest extends the engine epoch the shard is cut from.
		ingest bool
		// racers cut concurrently, each from its own load, as the processes
		// of a cluster do on its first deployment.
		racers int
		want   string // prefix of the expected decision
		heap   bool   // the shard is served from the heap
		// settled lets the source settle before the warm-up, so that every
		// later load of the library is keyed by the source's stamp.
		settled bool
	}{
		{name: "cold", want: "rebuilt: no sidecar"},
		{name: "hit", warm: true, want: SidecarHit},
		{name: "source edited", warm: true, want: "rebuilt: source key is",
			disturb: func(t *testing.T, src, _ string) {
				b, err := os.ReadFile(src)
				if err != nil {
					t.Fatal(err)
				}
				edited := strings.Replace(string(b), `"act-001"`, `"act-199"`, 1)
				if edited == string(b) {
					t.Fatal("the edit must change the bytes")
				}
				if err := os.WriteFile(src, []byte(edited), 0o644); err != nil {
					t.Fatal(err)
				}
			}},
		{name: "one byte flipped", warm: true, want: "rebuilt: core: snapshot corrupt: checksum mismatch",
			disturb: func(t *testing.T, _, shard string) {
				b, err := os.ReadFile(shard)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x10
				replaceFile(t, shard, b)
			}},
		{name: "read-only directory", readOnly: true, want: SidecarUnwritable + ": ", heap: true},
		{name: "library grown", warm: true, want: "rebuilt: source key is",
			disturb: func(t *testing.T, src, _ string) {
				f, err := os.OpenFile(src, os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				for i := 0; i < 50; i++ {
					if _, err := fmt.Fprintf(f, `{"goal":"goal-new","actions":["act-%03d","act-new"]}`+"\n", i); err != nil {
						t.Fatal(err)
					}
				}
			}},
		{name: "ingest since the load", ingest: true, want: "", heap: true},
		{name: "concurrent cold cuts", racers: 4},
		{name: "hit after a stamped start", settled: true, warm: true, want: SidecarHit},
	} {
		for _, hi := range []int{900, -1} {
			// "impact=false": the as-loaded layout, the one layout left.
			t.Run(fmt.Sprintf("%s/impact=false/hi=%d", st.name, hi), func(t *testing.T) {
				src := filepath.Join(t.TempDir(), "lib.jsonl")
				writeSidecarSource(t, src, 31)
				hiName := fmt.Sprint(hi)
				if hi < 0 {
					hiName = "end"
				}
				shard := fmt.Sprintf("%s.shard-%d-%s.gsnp", src, lo, hiName)
				engineOf := func(lib *Library) *Engine {
					e := NewEngineFromLibrary(lib)
					if st.ingest {
						if err := e.AddImplementation("goal-ingested", "act-000", "act-ingested"); err != nil {
							t.Fatal(err)
						}
					}
					return e
				}
				cut := func(fsys faultfs.FS) (*Library, string, error) {
					base, _, err := LoadLibraryFileMapped(src)
					if err != nil {
						return nil, "", err
					}
					if st.settled && (base.side == nil || !base.side.stamped) {
						return nil, "", errors.New("the settled source's load was not keyed by its stamp")
					}
					return engineOf(base).Snapshot().partitionMapped(fsys, lo, hi)
				}
				if st.settled {
					settleSource(t, src)
				}
				var warmKey string
				if st.warm {
					// Cut from the loaded library itself, at epoch 0: a
					// later hit must still carry its own snapshot's epoch.
					base, _, err := LoadLibraryFileMapped(src)
					if err != nil {
						t.Fatal(err)
					}
					if _, d, err := base.partitionMapped(faultfs.OS, lo, hi); err != nil || !strings.HasPrefix(d, SidecarRebuilt) {
						t.Fatalf("warm-up: decision %q, err %v", d, err)
					}
					warmKey = shardKeyOf(t, shard)
				}
				if st.disturb != nil {
					st.disturb(t, src, shard)
				}
				fsys := faultfs.OS
				if st.readOnly {
					fsys = faultfs.NewInjector(nil).Fail(faultfs.Rule{Op: faultfs.OpCreateTemp, Err: syscall.EROFS})
				}

				racers := max(st.racers, 1)
				parts := make([]*Library, racers)
				decisions := make([]string, racers)
				errs := make([]error, racers)
				var wg sync.WaitGroup
				for i := 0; i < racers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						parts[i], decisions[i], errs[i] = cut(fsys)
					}(i)
				}
				wg.Wait()

				ref := engineOf(parseReference(t, src)).Snapshot()
				end := hi
				if hi < 0 {
					end = ref.NumImplementations()
				}
				want, err := ref.Partition(lo, end)
				if err != nil {
					t.Fatal(err)
				}
				for i, part := range parts {
					if errs[i] != nil {
						t.Fatal(errs[i])
					}
					d := decisions[i]
					if st.racers > 1 {
						if d != SidecarHit && !strings.HasPrefix(d, SidecarRebuilt+": ") {
							t.Fatalf("racer %d: decision %q", i, d)
						}
					} else if !strings.HasPrefix(d, st.want) || (st.want == "" && d != "") {
						t.Fatalf("decision %q, want %q…", d, st.want)
					}
					backing := "mapped"
					if st.heap {
						backing = "heap"
					}
					if got := part.Backing().Backing; got != backing {
						t.Fatalf("decision %q left the shard %s, want %s", d, got, backing)
					}
					if part.Epoch() != ref.Epoch() {
						t.Fatalf("shard at epoch %d, cut from epoch %d", part.Epoch(), ref.Epoch())
					}
					assertServesLike(t, want, part)
				}

				files, err := filepath.Glob(src + ".shard-*")
				if err != nil {
					t.Fatal(err)
				}
				if st.heap {
					if len(files) != 0 {
						t.Fatalf("a heap-served shard left files %v", files)
					}
					return
				}
				if len(files) != 1 || files[0] != shard {
					t.Fatalf("shard files %v, want exactly %s", files, shard)
				}
				key := shardKeyOf(t, shard)
				if suffix := fmt.Sprintf(" shard:[%d,%d) of %d", lo, end, ref.NumImplementations()); !strings.HasSuffix(key, suffix) {
					t.Fatalf("shard key %q does not end in %q", key, suffix)
				}
				if strings.HasPrefix(st.want, "rebuilt: source key") && key == warmKey {
					t.Fatalf("a changed source left the shard key at %q", key)
				}
				if leftovers, err := filepath.Glob(filepath.Join(filepath.Dir(src), ".snap-*.tmp")); err != nil || len(leftovers) != 0 {
					t.Fatalf("temp files left behind: %v (%v)", leftovers, err)
				}
				// Whatever was found, the next start cuts nothing.
				again, d, err := cut(faultfs.OS)
				if err != nil || d != SidecarHit {
					t.Fatalf("second cut: decision %q, err %v; want a hit", d, err)
				}
				assertServesLike(t, want, again)
			})
		}
	}
}
