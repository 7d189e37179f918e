package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"goalrec/internal/intset"
)

// The JSON-lines loader is a three-stage pipeline (DESIGN.md, "Load path"):
// a reader cuts the input into chunks of whole lines, GOMAXPROCS scan workers
// turn each chunk into a CSR over chunk-local name tables, and the caller's
// goroutine merges the chunks in input order. The goal and action
// dictionaries are independent and each chunk lists its names in
// first-appearance order, so interning chunk after chunk assigns exactly the
// ids a line-by-line reader would.

// jsonlChunkSize is the unit of parallel work: chunks hold about this many
// bytes and always end at a line end.
const jsonlChunkSize = 1 << 20

// jsonImpl is the JSON-lines wire form of one implementation.
type jsonImpl struct {
	Goal    string   `json:"goal"`
	Actions []string `json:"actions"`
}

// WriteJSONLines writes every implementation of l to w, one JSON object per
// line, resolving names through vocab.
func WriteJSONLines(w io.Writer, l *Library, vocab *Vocabulary) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for p := 0; p < l.NumImplementations(); p++ {
		impl := jsonImpl{Goal: vocab.GoalName(l.Goal(ImplID(p)))}
		for _, a := range l.Actions(ImplID(p)) {
			impl.Actions = append(impl.Actions, vocab.ActionName(a))
		}
		if err := enc.Encode(&impl); err != nil {
			return fmt.Errorf("core: encoding implementation %d: %w", p, err)
		}
	}
	return bw.Flush()
}

// ReadJSONLines parses a JSON-lines library from r — one JSON object per
// line, blank lines ignored — interning names into a fresh Vocabulary in
// order of first appearance. A failing load reports the lowest failing line.
func ReadJSONLines(r io.Reader) (*Library, *Vocabulary, error) {
	return readJSONLines(r, jsonlChunkSize)
}

// jsonlChunk is one run of whole lines on its way through the pipeline.
type jsonlChunk struct {
	buf  []byte        // the lines; recycled by the scan worker
	done chan struct{} // closed by the scan worker once the rest is final

	// The chunk's implementations as a CSR over chunk-local ids: a name's id
	// is its index in goalNames/actNames, which are in first-appearance order.
	goalNames, actNames []string
	goals               []GoalID
	off                 []int32
	acts                []ActionID

	lines   int   // lines in the chunk, blank ones included
	err     error // first failing line's error, nil if every line loaded
	errLine int   // its 1-based position within the chunk

	goalMap, actMap []int32 // local id → Vocabulary id, set by the merge
}

func readJSONLines(r io.Reader, chunkSize int) (*Library, *Vocabulary, error) {
	workers := runtime.GOMAXPROCS(0)
	inFlight := 2 * workers // bounds both the input buffers and the unmerged chunks

	work := make(chan *jsonlChunk)              // reader → scan workers
	ordered := make(chan *jsonlChunk, inFlight) // reader → merge: the same chunks, in input order
	free := make(chan []byte, inFlight)         // scan workers → reader: every buffer fits, sends never block
	stop := make(chan struct{})                 // closed by the merge on the first failing chunk

	var scanners sync.WaitGroup
	for i := 0; i < workers; i++ {
		scanners.Add(1)
		go func() {
			defer scanners.Done()
			s := newJSONLScanner()
			for c := range work {
				s.scan(c)
				free <- c.buf
				c.buf = nil
				close(c.done)
			}
		}()
	}

	var readErr error // written by the reader before it closes ordered
	go func() {
		defer close(ordered)
		defer close(work)
		allocated := 0
		getBuf := func() []byte {
			select {
			case b := <-free:
				return b
			default:
			}
			if allocated < inFlight {
				allocated++
				return make([]byte, chunkSize)
			}
			select {
			case b := <-free:
				return b
			case <-stop:
				return nil
			}
		}
		emit := func(lines []byte) bool {
			c := &jsonlChunk{buf: lines, done: make(chan struct{})}
			for _, ch := range []chan *jsonlChunk{work, ordered} {
				select {
				case ch <- c:
				case <-stop:
					return false
				}
			}
			return true
		}
		cur, n := getBuf(), 0 // cur[:n] is filled
		for {
			m, err := io.ReadFull(r, cur[n:])
			n += m
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				if n > 0 {
					emit(cur[:n])
				}
				return
			}
			if err != nil {
				readErr = err
				return
			}
			cut := bytes.LastIndexByte(cur[:n], '\n') + 1
			if cut == 0 {
				// One line fills the whole buffer: keep reading it.
				cur = append(cur, make([]byte, len(cur))...)
				continue
			}
			next := getBuf()
			if next == nil {
				return
			}
			next = append(next[:0], cur[cut:n]...)
			if !emit(cur[:cut]) {
				return
			}
			cur, n = next[:cap(next)], len(next)
		}
	}()

	vocab := NewVocabulary()
	var chunks []*jsonlChunk
	var err error
	line := 0 // lines in the chunks merged so far
	for c := range ordered {
		if err != nil {
			continue // draining after a failure, so the reader can exit
		}
		<-c.done
		if c.err != nil {
			err = fmt.Errorf("core: line %d: %w", line+c.errLine, c.err)
			close(stop)
			continue
		}
		line += c.lines
		c.goalMap = internAll(vocab.Goals, c.goalNames)
		c.actMap = internAll(vocab.Actions, c.actNames)
		c.goalNames, c.actNames = nil, nil
		chunks = append(chunks, c)
	}
	scanners.Wait()
	if err == nil && readErr != nil {
		err = fmt.Errorf("core: reading library after line %d: %w", line, readErr)
	}
	if err != nil {
		return nil, nil, err
	}

	lib, err := assembleJSONL(chunks, workers)
	if err != nil {
		return nil, nil, err
	}
	return lib, vocab, nil
}

// assembleJSONL builds the library from the merged chunks: rows become
// global, sorted and duplicate-free within their chunks, in parallel, and
// then move into a CSR of exactly the final size. It consumes chunks.
func assembleJSONL(chunks []*jsonlChunk, workers int) (*Library, error) {
	parallelFor(workers, len(chunks), func(i int) { chunks[i].remap() })
	implBase := make([]int, len(chunks)+1)
	slotBase := make([]int, len(chunks)+1)
	for i, c := range chunks {
		implBase[i+1] = implBase[i] + len(c.goals)
		slotBase[i+1] = slotBase[i] + len(c.acts)
	}
	nImpl, nSlots := implBase[len(chunks)], slotBase[len(chunks)]
	if nSlots > math.MaxInt32 {
		return nil, fmt.Errorf("core: library of %d action slots exceeds the 32-bit offset space", nSlots)
	}
	implGoal := make([]GoalID, nImpl)
	implOff := make([]int32, nImpl+1)
	implActs := make([]ActionID, nSlots)
	parallelFor(workers, len(chunks), func(i int) {
		c := chunks[i]
		copy(implGoal[implBase[i]:], c.goals)
		copy(implActs[slotBase[i]:], c.acts)
		for p, end := range c.off[1:] {
			implOff[implBase[i]+p+1] = int32(slotBase[i]) + end
		}
		chunks[i] = nil
	})
	maxAction, maxGoal, err := checkImplCSR(implGoal, implOff, implActs)
	if err != nil {
		return nil, err
	}
	lib := &Library{
		implGoal:   implGoal,
		implOff:    implOff,
		implActs:   implActs,
		numActions: int(maxAction) + 1,
		numGoals:   int(maxGoal) + 1,
	}
	lib.buildIndexes()
	return lib, nil
}

// internAll interns names in order and returns their ids.
func internAll(in *Interner, names []string) []int32 {
	ids := make([]int32, len(names))
	for i, name := range names {
		ids[i] = in.Intern(name)
	}
	return ids
}

// remap rewrites the chunk's CSR from chunk-local to Vocabulary ids and
// normalizes every row exactly as Builder.Add does: sorted, duplicates
// removed. Rows only shrink, so the CSR is compacted in place.
func (c *jsonlChunk) remap() {
	w, lo := 0, c.off[0]
	for p, g := range c.goals {
		c.goals[p] = GoalID(c.goalMap[g])
		hi := c.off[p+1]
		row := c.acts[lo:hi]
		for i, a := range row {
			row[i] = ActionID(c.actMap[a])
		}
		w += copy(c.acts[w:], intset.FromUnsorted(row))
		c.off[p+1] = int32(w)
		lo = hi
	}
	c.acts = c.acts[:w]
	c.goalMap, c.actMap = nil, nil
}

// parallelFor calls fn(0..n-1) from up to workers goroutines and returns when
// every call has.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// jsonlScanner is one scan worker's state, reused from chunk to chunk.
type jsonlScanner struct {
	goalIDs, actIDs     map[string]int32
	goalNames, actNames []string
	goals               []GoalID
	off                 []int32
	acts                []ActionID
	spans               []int // name boundaries of the line being scanned
}

func newJSONLScanner() *jsonlScanner {
	return &jsonlScanner{goalIDs: make(map[string]int32), actIDs: make(map[string]int32)}
}

// scan fills in c from c.buf. It stops at the first line that fails to load.
func (s *jsonlScanner) scan(c *jsonlChunk) {
	clear(s.goalIDs)
	clear(s.actIDs)
	s.goalNames, s.actNames = s.goalNames[:0], s.actNames[:0]
	s.goals, s.acts = s.goals[:0], s.acts[:0]
	s.off = append(s.off[:0], 0)

	rest := c.buf
	for len(rest) > 0 {
		c.lines++
		ln := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			ln, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		if s.scanCanonical(ln) {
			s.goals = append(s.goals, GoalID(localID(s.goalIDs, &s.goalNames, ln[s.spans[0]:s.spans[1]])))
			for i := 2; i < len(s.spans); i += 2 {
				s.acts = append(s.acts, ActionID(localID(s.actIDs, &s.actNames, ln[s.spans[i]:s.spans[i+1]])))
			}
		} else if len(bytes.TrimLeft(ln, " \t\r")) == 0 {
			continue
		} else {
			// Everything but the canonical shape means what encoding/json
			// says it means.
			var impl jsonImpl
			err := json.Unmarshal(ln, &impl)
			if err == nil && len(impl.Actions) == 0 {
				err = ErrEmptyActivity
			}
			if err != nil {
				c.err, c.errLine = err, c.lines
				return
			}
			s.goals = append(s.goals, GoalID(localID(s.goalIDs, &s.goalNames, []byte(impl.Goal))))
			for _, name := range impl.Actions {
				s.acts = append(s.acts, ActionID(localID(s.actIDs, &s.actNames, []byte(name))))
			}
		}
		s.off = append(s.off, int32(len(s.acts)))
	}
	// The chunk keeps exact-size copies; the scratch serves the next chunk.
	c.goalNames, c.actNames = slices.Clone(s.goalNames), slices.Clone(s.actNames)
	c.goals, c.off, c.acts = slices.Clone(s.goals), slices.Clone(s.off), slices.Clone(s.acts)
}

// localID returns name's index in *names, appending it on first appearance.
// Only a new name allocates: the map lookup converts without copying.
func localID(ids map[string]int32, names *[]string, name []byte) int32 {
	if id, ok := ids[string(name)]; ok {
		return id
	}
	id := int32(len(*names))
	str := string(name)
	ids[str] = id
	*names = append(*names, str)
	return id
}

// jsonlPlain marks the bytes that stand for themselves inside a JSON string:
// printable ASCII other than the quote and the backslash.
var jsonlPlain = func() (t [256]bool) {
	for b := 0x20; b < 0x80; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

const (
	jsonlGoalPrefix   = `{"goal":"`
	jsonlActionsInfix = `,"actions":["`
)

// scanCanonical reports whether ln is exactly
//
//	{"goal":"…","actions":["…","…"]}
//
// with at least one action and only plain bytes in the names — the one shape
// whose decoded names are sub-slices of the line. On success s.spans holds
// the [start, end) pairs of the goal and then each action. It interns
// nothing: a line rejected half-way goes to encoding/json untouched.
func (s *jsonlScanner) scanCanonical(ln []byte) bool {
	if !bytes.HasPrefix(ln, []byte(jsonlGoalPrefix)) {
		return false
	}
	s.spans = s.spans[:0]
	i := len(jsonlGoalPrefix)
	j := plainEnd(ln, i)
	if j == len(ln) || ln[j] != '"' || !bytes.HasPrefix(ln[j+1:], []byte(jsonlActionsInfix)) {
		return false
	}
	s.spans = append(s.spans, i, j)
	i = j + 1 + len(jsonlActionsInfix)
	for {
		j := plainEnd(ln, i)
		if j == len(ln) || ln[j] != '"' {
			return false
		}
		s.spans = append(s.spans, i, j)
		tail := ln[j+1:]
		if len(tail) > 2 && tail[0] == ',' && tail[1] == '"' {
			i = j + 3
			continue
		}
		return len(tail) == 2 && tail[0] == ']' && tail[1] == '}'
	}
}

// plainEnd returns the index of the first byte of ln at or after i that is
// not plain, or len(ln).
func plainEnd(ln []byte, i int) int {
	for i < len(ln) && jsonlPlain[ln[i]] {
		i++
	}
	return i
}
