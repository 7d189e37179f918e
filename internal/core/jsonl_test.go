package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"goalrec/internal/xrand"
)

// oracleReadJSONLines is the reference the pipeline must reproduce: the
// sequential line-by-line loader — split lines, json.Unmarshal, Intern,
// Builder.Add, Build — with the input contract spelled out (one object per
// line, blank lines ignored, errors name the 1-based line).
func oracleReadJSONLines(data []byte) (*Library, *Vocabulary, error) {
	vocab := NewVocabulary()
	var b Builder
	for n, ln := range bytes.Split(data, []byte("\n")) {
		if len(bytes.Trim(ln, " \t\r")) == 0 {
			continue
		}
		var impl jsonImpl
		if err := json.Unmarshal(ln, &impl); err != nil {
			return nil, nil, fmt.Errorf("core: line %d: %w", n+1, err)
		}
		goal := GoalID(vocab.Goals.Intern(impl.Goal))
		actions := make([]ActionID, len(impl.Actions))
		for i, name := range impl.Actions {
			actions[i] = ActionID(vocab.Actions.Intern(name))
		}
		if _, err := b.Add(goal, actions); err != nil {
			return nil, nil, fmt.Errorf("core: line %d: %w", n+1, err)
		}
	}
	return b.Build(), vocab, nil
}

// assertMatchesOracle loads data through the pipeline at the given chunk
// size and requires the oracle's verdict: the same error (and so the same
// failing line), or the same library and vocabulary bit for bit.
func assertMatchesOracle(t *testing.T, data []byte, chunkSize int) {
	t.Helper()
	wantLib, wantVocab, wantErr := oracleReadJSONLines(data)
	gotLib, gotVocab, gotErr := readJSONLines(bytes.NewReader(data), chunkSize)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("chunk size %d: error %v, oracle says %v\ninput: %q", chunkSize, gotErr, wantErr, data)
		}
		return
	}
	var want, got bytes.Buffer
	if err := WriteSnapshot(&want, wantLib, wantVocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&got, gotLib, gotVocab, SnapshotOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("chunk size %d: snapshot image differs from the oracle's\ninput: %q", chunkSize, data)
	}
	assertLibrariesEqual(t, wantLib, gotLib)
}

// jsonlSeeds are the inputs where the scanner, the fallback and the chunk
// merge could disagree with the sequential loader.
var jsonlSeeds = []string{
	// plain canonical lines, shared and new names
	`{"goal":"g","actions":["a","b"]}` + "\n" + `{"goal":"h","actions":["c","a"]}` + "\n",
	// escaped and non-ASCII names, equal after decoding to plain ones
	`{"goal":"café","actions":["a\"b","a","a"]}` + "\n" + `{"goal":"café","actions":["ü","a"]}` + "\n",
	// duplicate actions in a line; only the first appearance interns
	`{"goal":"g","actions":["b","a","b","a"]}` + "\n" + `{"goal":"g","actions":["a"]}`,
	// unknown, reordered and case-folded keys
	`{"actions":["z","y"],"goal":"g","extra":{"k":[1,2]}}` + "\n" + `{"GOAL":"h","Actions":["y"]}` + "\n" + `{"goal":"g","actions":["x"]}` + "\n",
	// CRLF, blank and whitespace-only lines, inner whitespace
	"{\"goal\":\"g\",\"actions\":[\"a\"]}\r\n\r\n \t\n{ \"goal\" : \"h\", \"actions\" : [ \"b\" ] }\r\n\n",
	// names first seen in a line the scanner rejects after its third action:
	// the later keys win, so p, q, r and g1 must not get ids before s and g2
	`{"goal":"g1","actions":["p","q","r"],"actions":["s"],"goal":"g2"}` + "\n" + `{"goal":"g1","actions":["r","q","p","s"]}` + "\n",
	// "actions":[] on the last line of the second chunk (chunk size 34)
	`{"goal":"g","actions":["a","b"]}` + "\n" + `{"goal":"h","actions":["c","d"]}` + "\n" + `{"goal":"i","actions":["e","f"]}` + "\n" + `{"goal":"j","actions":[]}` + "\n" + `{"goal":"k","actions":["a"]}` + "\n",
	// two failing lines: the lower one is reported
	`{"goal":"g","actions":["a"]}` + "\n" + `not json` + "\n" + `{"goal":"h","actions":["b"]}` + "\n" + `{"goal":"i","actions":[]}` + "\n",
	// outside the contract: an object over two lines, two objects on a line
	"{\"goal\":\"g\",\n\"actions\":[\"a\"]}\n",
	`{"goal":"g","actions":["a"]} {"goal":"h","actions":["b"]}` + "\n",
	// not objects, wrong types, missing keys, control bytes, invalid UTF-8
	"null\n", "123\n", `{"goal":1,"actions":["a"]}` + "\n", `{"actions":["a"]}` + "\n", `{"goal":"g"}` + "\n",
	"{\"goal\":\"g\x01\",\"actions\":[\"a\"]}\n", "{\"goal\":\"g\xff\",\"actions\":[\"a\xc3\"]}\n{\"goal\":\"g�\",\"actions\":[\"a\"]}\n",
	// near misses of the canonical shape
	`{"goal":"g","actions":["a"]}x` + "\n", `{"goal":"g","actions":["a",]}` + "\n", `{"goal":"g","actions":["a"`, `{"goal":"g","actions":["a","`,
	`{"goal":"","actions":[""]}` + "\n", "", "\n", "\n\n  {\"goal\":\"g\",\"actions\":[\"a\"]}",
}

// withGOMAXPROCS runs fn with the scheduler (and so the loader's worker
// count) set to n.
func withGOMAXPROCS(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// TestReadJSONLinesMatchesOracle is the deterministic part of the
// differential fuzz target: every seed at every chunk size from one byte to
// past the whole input, so chunk boundaries fall at every byte offset, with
// one worker and with four.
func TestReadJSONLinesMatchesOracle(t *testing.T) {
	for _, procs := range []int{1, 4} {
		withGOMAXPROCS(procs, func() {
			for _, seed := range jsonlSeeds {
				for size := 1; size <= len(seed)+1; size++ {
					assertMatchesOracle(t, []byte(seed), size)
				}
				assertMatchesOracle(t, []byte(seed), jsonlChunkSize)
			}
		})
	}
}

func FuzzReadJSONLinesDifferential(f *testing.F) {
	for _, seed := range jsonlSeeds {
		f.Add([]byte(seed), uint16(34))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint16) {
		assertMatchesOracle(t, data, 1+int(chunk)%97)
		assertMatchesOracle(t, data, jsonlChunkSize)
	})
}

// TestReadJSONLinesLowestFailingLine: with failures in several chunks that
// are scanned concurrently, the error names the lowest failing line every
// time, not the one whose worker finished first.
func TestReadJSONLinesLowestFailingLine(t *testing.T) {
	var in strings.Builder
	for i := 1; i <= 400; i++ {
		switch {
		case i == 137:
			in.WriteString(`{"goal":"g","actions":[]}` + "\n")
		case i > 137 && i%7 == 0:
			in.WriteString("not json\n")
		default:
			fmt.Fprintf(&in, `{"goal":"g%d","actions":["a%d","a%d"]}`+"\n", i/2, i%13, i%17)
		}
	}
	withGOMAXPROCS(4, func() {
		for run := 0; run < 100; run++ {
			_, _, err := readJSONLines(strings.NewReader(in.String()), 256)
			if err == nil || !errors.Is(err, ErrEmptyActivity) || !strings.HasPrefix(err.Error(), "core: line 137: ") {
				t.Fatalf("run %d: error %v, want the empty activity of line 137", run, err)
			}
		}
	})
}

// failingReader yields its data and then err instead of io.EOF.
type failingReader struct {
	data io.Reader
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	n, err := r.data.Read(p)
	if err == io.EOF {
		err = r.err
	}
	return n, err
}

func TestReadJSONLinesReportsReadError(t *testing.T) {
	boom := errors.New("boom")
	in := strings.Repeat(`{"goal":"g","actions":["a"]}`+"\n", 50)
	_, _, err := readJSONLines(&failingReader{strings.NewReader(in), boom}, 64)
	if !errors.Is(err, boom) {
		t.Fatalf("error %v, want the reader's", err)
	}
}

// TestReadJSONLinesLongLine: a line longer than the chunk size grows the
// buffer instead of being cut.
func TestReadJSONLinesLongLine(t *testing.T) {
	var in strings.Builder
	in.WriteString(`{"goal":"short","actions":["a0"]}` + "\n" + `{"goal":"long","actions":["a0"`)
	for i := 1; i < 500; i++ {
		fmt.Fprintf(&in, `,"a%d"`, i)
	}
	in.WriteString("]}\n" + `{"goal":"after","actions":["a7"]}` + "\n")
	assertMatchesOracle(t, []byte(in.String()), 16)
}

// benchShapeJSONL generates the repository benchmark's library (bench/gen.go,
// writeLibrary) byte for byte: Zipf(0.6)-popular actions, 2+Poisson(6)
// distinct actions per line, two implementations per goal.
func benchShapeJSONL(seed uint64, impls, actions int) []byte {
	h := fnv.New64a()
	_, _ = h.Write([]byte("library"))
	rng := xrand.New(seed ^ h.Sum64())
	pop := xrand.NewZipf(rng.Split(), actions, 0.6)
	var out []byte
	var ids []int
	for i := 0; i < impls; i++ {
		n := 2 + rng.Poisson(6)
		if n > actions {
			n = actions
		}
		ids = ids[:0]
	draw:
		for j := 0; j < n; j++ {
			id := pop.Next()
			for _, seen := range ids {
				if seen == id {
					continue draw
				}
			}
			ids = append(ids, id)
		}
		if len(ids) < 2 {
			ids = append(ids, (ids[0]+1)%actions)
		}
		out = append(out, `{"goal":"g`...)
		out = strconv.AppendInt(out, int64(i/2), 10)
		out = append(out, `","actions":[`...)
		for j, id := range ids {
			if j > 0 {
				out = append(out, ',')
			}
			out = append(out, `"a`...)
			out = strconv.AppendInt(out, int64(id), 10)
			out = append(out, '"')
		}
		out = append(out, "]}\n"...)
	}
	return out
}

const (
	benchShapeImpls   = 250_000
	benchShapeActions = 10_000
)

// TestReadJSONLinesBitIdentity: the libraries the benchmark serves (seeds 1
// and 2) and the sample recipes load to the oracle's bytes and indexes.
func TestReadJSONLinesBitIdentity(t *testing.T) {
	recipes, err := os.ReadFile("../../data/samples/recipes.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesOracle(t, recipes, jsonlChunkSize)
	assertMatchesOracle(t, recipes, 4096)
	impls := benchShapeImpls
	if testing.Short() || raceEnabled {
		impls /= 10
	}
	for _, seed := range []uint64{1, 2} {
		assertMatchesOracle(t, benchShapeJSONL(seed, impls, benchShapeActions), jsonlChunkSize)
	}
}

// TestReadJSONLinesAllocationBudget: names are sub-slices of the chunk and
// only a chunk's new names are copied, so a canonical line costs under two
// allocations (the reflective decoder paid 18.3).
func TestReadJSONLinesAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const impls = 50_000
	data := benchShapeJSONL(1, impls, benchShapeActions)
	allocs := testing.AllocsPerRun(3, func() {
		if _, _, err := ReadJSONLines(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := allocs / impls; perLine > 2 {
		t.Errorf("%.2f allocations per line, budget 2", perLine)
	}
}

var benchLibSink *Library

func BenchmarkReadJSONLines(b *testing.B) {
	data := benchShapeJSONL(1, benchShapeImpls, benchShapeActions)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lib, _, err := ReadJSONLines(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		benchLibSink = lib
	}
}

func BenchmarkBuildIndexes(b *testing.B) {
	lib, _, err := ReadJSONLines(bytes.NewReader(benchShapeJSONL(1, benchShapeImpls, benchShapeActions)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := &Library{
			implGoal: lib.implGoal, implOff: lib.implOff, implActs: lib.implActs,
			numActions: lib.numActions, numGoals: lib.numGoals,
		}
		fresh.buildIndexes()
		benchLibSink = fresh
	}
}
