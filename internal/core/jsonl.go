package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// jsonlBufSize is the JSON-lines reader's buffer: the most of the input a
// load holds at once, but for a longer line.
const jsonlBufSize = 64 << 10

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
// The input streams through one fixed buffer; only a line longer than it is
// gathered whole (DESIGN.md, "Load path").
func ReadJSONLines(r io.Reader) (*Library, *Vocabulary, error) {
	br := bufio.NewReaderSize(r, jsonlBufSize)
	ld := jsonlLoader{vocab: NewVocabulary()}
	var long []byte // a line longer than br's buffer
	for n := 1; ; n++ {
		ln, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], ln...)
			for err == bufio.ErrBufferFull {
				ln, err = br.ReadSlice('\n')
				long = append(long, ln...)
			}
			ln = long
		}
		if err != nil && err != io.EOF {
			return nil, nil, fmt.Errorf("core: reading library after line %d: %w", n-1, err)
		}
		if err := ld.add(bytes.TrimSuffix(ln, []byte{'\n'})); err != nil {
			return nil, nil, fmt.Errorf("core: line %d: %w", n, err)
		}
		if err == io.EOF {
			return ld.b.Build(), ld.vocab, nil
		}
	}
}

// jsonlLoader is ReadJSONLines' state between lines.
type jsonlLoader struct {
	b     Builder
	vocab *Vocabulary
	acts  []ActionID // the line's actions, reused
	spans []int      // name boundaries of the line being scanned
}

// add loads one line, its '\n' cut off. The Builder normalises the row, as
// it does for every other caller.
func (ld *jsonlLoader) add(ln []byte) error {
	var goal int32
	ld.acts = ld.acts[:0]
	if ld.scanCanonical(ln) {
		goal = ld.vocab.Goals.internUnshared(ln[ld.spans[0]:ld.spans[1]])
		for i := 2; i < len(ld.spans); i += 2 {
			ld.acts = append(ld.acts, ActionID(ld.vocab.Actions.internUnshared(ln[ld.spans[i]:ld.spans[i+1]])))
		}
	} else if len(bytes.TrimLeft(ln, " \t\r")) == 0 {
		return nil
	} else {
		// Everything but the canonical shape means what encoding/json
		// says it means.
		var impl jsonImpl
		if err := json.Unmarshal(ln, &impl); err != nil {
			return err
		}
		goal = ld.vocab.Goals.Intern(impl.Goal)
		for _, name := range impl.Actions {
			ld.acts = append(ld.acts, ActionID(ld.vocab.Actions.Intern(name)))
		}
	}
	_, err := ld.b.Add(GoalID(goal), ld.acts)
	return err
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
// whose decoded names are sub-slices of the line. On success ld.spans holds
// the [start, end) pairs of the goal and then each action. It interns
// nothing: a line rejected half-way goes to encoding/json untouched.
func (ld *jsonlLoader) scanCanonical(ln []byte) bool {
	if !bytes.HasPrefix(ln, []byte(jsonlGoalPrefix)) {
		return false
	}
	ld.spans = ld.spans[:0]
	i := len(jsonlGoalPrefix)
	j := plainEnd(ln, i)
	if j == len(ln) || ln[j] != '"' || !bytes.HasPrefix(ln[j+1:], []byte(jsonlActionsInfix)) {
		return false
	}
	ld.spans = append(ld.spans, i, j)
	i = j + 1 + len(jsonlActionsInfix)
	for {
		j := plainEnd(ln, i)
		if j == len(ln) || ln[j] != '"' {
			return false
		}
		ld.spans = append(ld.spans, i, j)
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
