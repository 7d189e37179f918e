package goalrec

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"

	"goalrec/internal/core"
	"goalrec/internal/intset"
	"goalrec/internal/strategy"
	"goalrec/internal/vectorspace"
)

// ErrCanceled marks a recommendation query aborted by its context before it
// completed. Errors returned by RecommendContext wrap both ErrCanceled and
// the context's own error, so errors.Is matches any of ErrCanceled,
// context.Canceled and context.DeadlineExceeded.
var ErrCanceled = strategy.ErrCanceled

// Stats summarizes a library's shape; see the embedded field docs in
// internal/core. Connectivity (mean implementations per action) is the
// number the paper's complexity analysis pivots on.
type Stats = core.Stats

// Builder accumulates goal implementations by name and freezes them into a
// Library. The zero value is ready to use.
type Builder struct {
	b     core.Builder
	vocab *core.Vocabulary
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{vocab: core.NewVocabulary()}
}

func (b *Builder) init() {
	if b.vocab == nil {
		b.vocab = core.NewVocabulary()
	}
}

// AddImplementation records one goal implementation: the goal and the
// actions that jointly fulfill it. Duplicate actions are merged; an
// implementation needs at least one action.
func (b *Builder) AddImplementation(goal string, actions ...string) error {
	b.init()
	if goal == "" {
		return errors.New("goalrec: empty goal name")
	}
	ids := make([]core.ActionID, len(actions))
	for i, a := range actions {
		if a == "" {
			return fmt.Errorf("goalrec: implementation of %q has an empty action name", goal)
		}
		ids[i] = core.ActionID(b.vocab.Actions.Intern(a))
	}
	g := core.GoalID(b.vocab.Goals.Intern(goal))
	if _, err := b.b.Add(g, ids); err != nil {
		return fmt.Errorf("goalrec: adding implementation of %q: %w", goal, err)
	}
	return nil
}

// Len returns the number of implementations added.
func (b *Builder) Len() int { return b.b.Len() }

// Build freezes the implementations into an immutable Library. The Builder
// remains usable; later Adds do not affect the built Library.
func (b *Builder) Build() *Library {
	b.init()
	return &Library{lib: b.b.Build(), vocab: b.vocab}
}

// Library is an immutable goal-implementation set with its name dictionary.
// It is safe for concurrent use.
type Library struct {
	lib   *core.Library
	vocab *core.Vocabulary
	// side is set on the unextended image of a sidecar-served source (see
	// LoadLibraryFileMapped) and on the engine epochs that adopt it as is; it
	// is what PartitionMapped keys a shard file by.
	side *sidecarRef

	// vocabSum memoizes VocabChecksum, a pure function of the snapshot.
	vocabSumOnce sync.Once
	vocabSum     uint64
}

// NumImplementations returns the number of goal implementations.
func (l *Library) NumImplementations() int { return l.lib.NumImplementations() }

// NumActions returns the size of the library's action id space. It is a
// property of the snapshot, not of the (possibly still growing) vocabulary,
// so it stays stable for Engine snapshots while newer epochs intern more
// names.
func (l *Library) NumActions() int { return l.lib.NumActions() }

// NumGoals returns the size of the library's goal id space; like NumActions
// it is epoch-stable.
func (l *Library) NumGoals() int { return l.lib.NumGoals() }

// Epoch returns the snapshot's epoch within its Engine lineage. Libraries
// built directly (Builder, loaders) are epoch 0.
func (l *Library) Epoch() uint64 { return l.lib.Epoch() }

// Stats scans the library and returns its summary statistics.
func (l *Library) Stats() Stats { return l.lib.Stats() }

// Actions returns the snapshot's action names, sorted. Names interned by
// newer epochs of a shared Engine vocabulary are excluded.
func (l *Library) Actions() []string {
	out := make([]string, 0, l.lib.NumActions())
	for id := 0; id < l.lib.NumActions(); id++ {
		out = append(out, l.vocab.ActionName(core.ActionID(id)))
	}
	sort.Strings(out)
	return out
}

// Goals returns the snapshot's goal names, sorted.
func (l *Library) Goals() []string {
	out := make([]string, 0, l.lib.NumGoals())
	for id := 0; id < l.lib.NumGoals(); id++ {
		out = append(out, l.vocab.GoalName(core.GoalID(id)))
	}
	sort.Strings(out)
	return out
}

// resolve maps action names to ids, dropping names unknown to this
// snapshot; use resolveSplit or UnknownActions to surface them.
func (l *Library) resolve(actions []string) []core.ActionID {
	ids, _ := l.resolveSplit(actions)
	return ids
}

// resolveSplit maps action names to ids and collects the names this
// snapshot cannot serve: names missing from the vocabulary, plus names whose
// id lies beyond the snapshot's action space (interned by a newer epoch). An
// unknown action cannot contribute to any goal, and surfacing it lets
// clients distinguish vocabulary misses from actions that merely rank low.
func (l *Library) resolveSplit(actions []string) ([]core.ActionID, []string) {
	ids := make([]core.ActionID, 0, len(actions))
	var unknown []string
	for _, a := range actions {
		if id, ok := l.vocab.Actions.Lookup(a); ok && int(id) < l.lib.NumActions() {
			ids = append(ids, core.ActionID(id))
		} else {
			unknown = append(unknown, a)
		}
	}
	return ids, unknown
}

// UnknownActions returns the activity's actions this snapshot cannot
// resolve, deduplicated and sorted. An empty activity — or one fully covered
// by the vocabulary — yields nil.
func (l *Library) UnknownActions(activity []string) []string {
	_, unknown := l.resolveSplit(activity)
	return normalizeUnknown(unknown)
}

// normalizeUnknown sorts and deduplicates an unknown-name list in place,
// mapping empty to nil — the canonical UnknownActions shape.
func normalizeUnknown(unknown []string) []string {
	if len(unknown) == 0 {
		return nil
	}
	sort.Strings(unknown)
	out := unknown[:1]
	for _, a := range unknown[1:] {
		if a != out[len(out)-1] {
			out = append(out, a)
		}
	}
	return out
}

// resolveBatchSplit is resolveSplit over a whole batch in one vocabulary
// pass: each distinct name is looked up (and bounds-checked against the
// snapshot's action space) exactly once, memoized, and reused across
// activities — batches repeat names heavily, and per-item re-resolution was
// the dominant non-scoring cost of large batches. Per item it returns the
// resolved ids and the normalized unknown-name list (same shape as
// UnknownActions).
func (l *Library) resolveBatchSplit(activities [][]string) ([][]core.ActionID, [][]string) {
	const unknownID = core.ActionID(-1)
	memo := make(map[string]core.ActionID, 64)
	ids := make([][]core.ActionID, len(activities))
	unknown := make([][]string, len(activities))
	for i, activity := range activities {
		out := make([]core.ActionID, 0, len(activity))
		var unk []string
		for _, a := range activity {
			id, seen := memo[a]
			if !seen {
				id = unknownID
				if v, ok := l.vocab.Actions.Lookup(a); ok && int(v) < l.lib.NumActions() {
					id = core.ActionID(v)
				}
				memo[a] = id
			}
			if id == unknownID {
				unk = append(unk, a)
			} else {
				out = append(out, id)
			}
		}
		ids[i] = out
		unknown[i] = normalizeUnknown(unk)
	}
	return ids, unknown
}

// GoalSpace returns the names of the goals associated with the activity
// through at least one implementation — the paper's GS(H).
func (l *Library) GoalSpace(activity []string) []string {
	gs := l.lib.GoalSpace(l.resolve(activity))
	out := make([]string, len(gs))
	for i, g := range gs {
		out[i] = l.vocab.GoalName(g)
	}
	sort.Strings(out)
	return out
}

// ActionSpace returns the names of the actions co-participating with the
// activity in some implementation — the paper's AS(H).
func (l *Library) ActionSpace(activity []string) []string {
	as := l.lib.ActionSpace(l.resolve(activity))
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = l.vocab.ActionName(a)
	}
	sort.Strings(out)
	return out
}

// Implementation is one goal implementation by name.
type Implementation struct {
	Goal    string
	Actions []string
}

// ImplementationsOf returns every implementation of the named goal, in
// insertion order. Unknown goals yield nil.
func (l *Library) ImplementationsOf(goal string) []Implementation {
	gid, ok := l.vocab.Goals.Lookup(goal)
	if !ok {
		return nil
	}
	var out []Implementation
	for _, p := range l.lib.ImplsOfGoal(core.GoalID(gid)) {
		out = append(out, l.implementation(p))
	}
	return out
}

// ImplementationsWith returns every implementation containing the named
// action, in insertion order — the paper's implementation space IS(a).
// Unknown actions yield nil.
func (l *Library) ImplementationsWith(action string) []Implementation {
	aid, ok := l.vocab.Actions.Lookup(action)
	if !ok {
		return nil
	}
	var out []Implementation
	for _, p := range l.lib.ImplsOfAction(core.ActionID(aid)) {
		out = append(out, l.implementation(p))
	}
	return out
}

func (l *Library) implementation(p core.ImplID) Implementation {
	impl := Implementation{Goal: l.vocab.GoalName(l.lib.Goal(p))}
	for _, a := range l.lib.Actions(p) {
		impl.Actions = append(impl.Actions, l.vocab.ActionName(a))
	}
	return impl
}

// GoalProgress reports, for every goal in the activity's goal space, the
// completeness of its best implementation: 1.0 means some implementation of
// the goal is fully covered by the activity.
func (l *Library) GoalProgress(activity []string) map[string]float64 {
	h := intset.FromUnsorted(l.resolve(activity))
	out := make(map[string]float64)
	for _, g := range l.lib.GoalSpace(h) {
		out[l.vocab.GoalName(g)] = l.lib.GoalCompleteness(g, h, nil)
	}
	return out
}

// GoalMatch is one inferred goal: how far its best implementation has
// progressed under the activity, and how many of the activity's actions
// contribute to it.
type GoalMatch struct {
	// Goal is the goal's name.
	Goal string
	// Progress is the completeness of the goal's best implementation
	// (1.0 = some implementation fully covered).
	Progress float64
	// Support is the number of distinct activity actions contributing to
	// the goal through at least one implementation.
	Support int
}

// TopGoals infers the k goals the activity most plausibly aims at, ranked by
// progress (descending), then support, then name. k < 0 returns the whole
// goal space. This is the "recognize the intended user goals" step of the
// paper's Section 1 made directly available.
func (l *Library) TopGoals(activity []string, k int) []GoalMatch {
	if k == 0 {
		return nil
	}
	h := intset.FromUnsorted(l.resolve(activity))
	support := make(map[core.GoalID]int)
	for _, a := range h {
		for _, g := range l.lib.GoalSpace([]core.ActionID{a}) {
			support[g]++
		}
	}
	out := make([]GoalMatch, 0, 16)
	for _, g := range l.lib.GoalSpace(h) {
		out = append(out, GoalMatch{
			Goal:     l.vocab.GoalName(g),
			Progress: l.lib.GoalCompleteness(g, h, nil),
			Support:  support[g],
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Progress != out[j].Progress {
			return out[i].Progress > out[j].Progress
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Goal < out[j].Goal
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Explanation justifies recommending one action for an activity: the goals
// the action contributes to (restricted to the activity's goal space) and
// the progress each goal would make if the action were performed.
type Explanation struct {
	// Goal is the goal's name.
	Goal string
	// Implementations is the number of the goal's implementations the
	// action contributes through.
	Implementations int
	// ProgressBefore is the goal's best-implementation completeness under
	// the activity alone.
	ProgressBefore float64
	// ProgressAfter is the completeness once the action is added.
	ProgressAfter float64
}

// Explain reports why action is (or would be) a goal-based recommendation
// for the activity: every goal of the activity's goal space the action
// contributes to, with before/after progress, ordered by after-progress. An
// empty result means the action serves no goal the activity points at.
func (l *Library) Explain(activity []string, action string) []Explanation {
	aid, ok := l.vocab.Actions.Lookup(action)
	if !ok {
		return nil
	}
	h := intset.FromUnsorted(l.resolve(activity))
	extra := []core.ActionID{core.ActionID(aid)}
	implsPerGoal := make(map[core.GoalID]int)
	for _, p := range l.lib.ImplsOfAction(extra[0]) {
		implsPerGoal[l.lib.Goal(p)]++
	}
	var out []Explanation
	for _, g := range l.lib.GoalSpace(h) {
		n := implsPerGoal[g]
		if n == 0 {
			continue
		}
		out = append(out, Explanation{
			Goal:            l.vocab.GoalName(g),
			Implementations: n,
			ProgressBefore:  l.lib.GoalCompleteness(g, h, nil),
			ProgressAfter:   l.lib.GoalCompleteness(g, h, extra),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].ProgressAfter != out[j].ProgressAfter {
			return out[i].ProgressAfter > out[j].ProgressAfter
		}
		return out[i].Goal < out[j].Goal
	})
	return out
}

// Strategy selects one of the paper's ranking policies.
type Strategy string

// The four goal-based strategies of Sections 5.1–5.3.
const (
	// FocusCompleteness ranks implementations by the fraction of their
	// actions already performed and recommends the missing pieces of the
	// most complete ones.
	FocusCompleteness Strategy = "focus-cmp"
	// FocusCloseness ranks implementations by how few actions they still
	// need.
	FocusCloseness Strategy = "focus-cl"
	// Breadth scores each candidate action across every implementation it
	// shares with the user's activity, favoring actions that advance many
	// goals at once.
	Breadth Strategy = "breadth"
	// BestMatch builds a per-goal effort profile of the user and recommends
	// the actions whose goal-contribution vectors lie closest to it.
	BestMatch Strategy = "best-match"
)

// Strategies lists all goal-based strategies in presentation order.
func Strategies() []Strategy {
	return []Strategy{FocusCompleteness, FocusCloseness, Breadth, BestMatch}
}

// QueryError marks a failure the caller's own request caused — an unknown
// strategy, metric or weighting name, a k the strategy cannot serve — as
// opposed to one in the system answering it. Front ends find it with
// errors.As and answer a client error (HTTP 400); the message is Err's.
type QueryError struct{ Err error }

func (e *QueryError) Error() string { return e.Err.Error() }
func (e *QueryError) Unwrap() error { return e.Err }

// StrategySpec is a strategy selection resolved by ResolveStrategy.
type StrategySpec struct {
	// Strategy is one of the four strategy constants.
	Strategy Strategy
	// Metric is the canonical Best Match metric name.
	Metric string
	// Name is what responses report: the Name() of the recommender the
	// selection builds ("best-match-jaccard" for a non-default metric).
	Name string
}

// ResolveStrategy is the one table of wire strategy names, shared by every
// front end and by Library.Recommender: an empty strategy selects Breadth, an
// empty metric "cosine", and an unknown name of either kind is a *QueryError.
// The metric is validated for every strategy, not only Best Match.
func ResolveStrategy(strategyName, metric string) (StrategySpec, error) {
	if strategyName == "" {
		strategyName = string(Breadth)
	}
	if metric == "" {
		metric = vectorspace.Cosine.String()
	}
	m, err := vectorspace.ParseMetric(metric)
	if err != nil {
		return StrategySpec{}, &QueryError{fmt.Errorf("goalrec: %w", err)}
	}
	spec := StrategySpec{Strategy: Strategy(strategyName), Metric: metric, Name: strategyName}
	switch spec.Strategy {
	case FocusCompleteness, FocusCloseness, Breadth:
	case BestMatch:
		if m != vectorspace.Cosine {
			spec.Name += "-" + metric
		}
	default:
		return StrategySpec{}, &QueryError{fmt.Errorf("goalrec: unknown strategy %q", strategyName)}
	}
	return spec, nil
}

// RecommenderOption customizes strategy construction. An option maps the
// resolved set to its successor by value, so resolving options — once per
// served request, for the engine's per-epoch lookup — allocates nothing.
type RecommenderOption func(recOptions) recOptions

type recOptions struct {
	metric    vectorspace.Metric
	weighting strategy.BreadthWeighting
	cacheSize int
	err       error // first invalid option, surfaced by Library.Recommender
}

// resolveRecOptions applies opts over the defaults.
func resolveRecOptions(opts []RecommenderOption) recOptions {
	o := recOptions{metric: vectorspace.Cosine, weighting: strategy.Overlap}
	for _, opt := range opts {
		o = opt(o)
	}
	return o
}

// fail records err as the first invalid option.
func (o recOptions) fail(err error) recOptions {
	if o.err == nil {
		o.err = &QueryError{fmt.Errorf("goalrec: %w", err)}
	}
	return o
}

// WithDistanceMetric selects the Best Match distance: "cosine" (default),
// "euclidean", "manhattan" or "jaccard". It is ignored by other strategies.
// An unknown name is reported as an error by Library.Recommender (and panics
// MustRecommender) instead of silently falling back to the default.
func WithDistanceMetric(name string) RecommenderOption {
	return func(o recOptions) recOptions {
		m, err := vectorspace.ParseMetric(name)
		if err != nil {
			return o.fail(err)
		}
		o.metric = m
		return o
	}
}

// WithBreadthWeighting selects the Breadth per-implementation weight:
// "overlap" (default), "count" or "union". It is ignored by other
// strategies. An unknown name is reported as an error by Library.Recommender
// (and panics MustRecommender) instead of silently falling back to the
// default.
func WithBreadthWeighting(name string) RecommenderOption {
	return func(o recOptions) recOptions {
		w, err := strategy.ParseBreadthWeighting(name)
		if err != nil {
			return o.fail(err)
		}
		o.weighting = w
		return o
	}
}

// WithCache wraps the recommender in an LRU cache of the given entry
// capacity (≤ 0 selects 1024). Strategies are deterministic over an
// immutable library, so caching only trades memory for latency on repeated
// activities.
func WithCache(entries int) RecommenderOption {
	if entries <= 0 {
		entries = 1024
	}
	return func(o recOptions) recOptions {
		o.cacheSize = entries
		return o
	}
}

// MaxActivityActions bounds the activity one query scores: the HTTP server
// refuses a longer shipped activity before spending any CPU on it, and a
// UserStore refuses an append that would take a stored history past it.
const MaxActivityActions = 10_000

// Recommendation is one ranked suggestion.
type Recommendation struct {
	// Action is the recommended action's name.
	Action string
	// Score is the strategy's ranking score; higher is better. For
	// BestMatch the score is the negated profile distance.
	Score float64
}

// Recommender ranks candidate actions for an activity. Implementations are
// safe for concurrent use.
type Recommender interface {
	// Name identifies the method ("breadth", "cf-knn", ...).
	Name() string
	// Recommend returns up to k actions the user has not performed, ranked
	// best-first. Unknown action names in the activity are ignored.
	Recommend(activity []string, k int) []Recommendation
	// RecommendContext is Recommend with a request lifecycle: scoring polls
	// ctx at coarse checkpoints and aborts with an error wrapping
	// ErrCanceled (and ctx.Err()) once the context is done. The four
	// goal-based strategies cancel mid-loop; baseline recommenders observe
	// the context at entry only. On a nil error the result is bit-identical
	// to Recommend; on cancellation it is nil except where a strategy
	// documents a meaningful partial prefix (Focus).
	RecommendContext(ctx context.Context, activity []string, k int) ([]Recommendation, error)
	// RecommendBatch scores many activities under one context, fanned out
	// over a GOMAXPROCS-bounded worker pool, and returns one result per
	// activity in input order. All activities are answered from the same
	// snapshot (one epoch per batch). A done ctx aborts the remaining
	// items, whose results carry the ErrCanceled-wrapping error.
	RecommendBatch(ctx context.Context, activities [][]string, k int) []BatchResult
}

// BatchResult is one activity's outcome within a batch recommendation:
// either its ranked list or the error that aborted it. UnknownActions lists
// the activity's actions the snapshot could not resolve (deduplicated and
// sorted, like Library.UnknownActions) — the batch resolves names once, so
// callers should read it from here instead of re-resolving per item.
type BatchResult struct {
	Recommendations []Recommendation
	UnknownActions  []string
	Err             error
}

// namedRecommender adapts an id-level recommender to the string API.
type namedRecommender struct {
	rec strategy.Recommender
	lib *Library
}

func (n *namedRecommender) Name() string { return n.rec.Name() }

func (n *namedRecommender) Recommend(activity []string, k int) []Recommendation {
	out, _ := n.RecommendContext(context.Background(), activity, k)
	return out
}

func (n *namedRecommender) RecommendContext(ctx context.Context, activity []string, k int) ([]Recommendation, error) {
	ids := n.lib.resolve(activity)
	scored, err := strategy.RecommendContext(ctx, n.rec, ids, k)
	out := make([]Recommendation, len(scored))
	for i, s := range scored {
		out[i] = Recommendation{Action: n.lib.vocab.ActionName(s.Action), Score: s.Score}
	}
	if err != nil {
		// Surface whatever valid partial prefix the strategy produced
		// alongside the cancellation.
		return out, fmt.Errorf("goalrec: %w", err)
	}
	return out, nil
}

// Recommender constructs a goal-based recommender over the library. Names
// resolve through ResolveStrategy, so an empty strategy selects Breadth and an
// unknown strategy or option value is a *QueryError.
func (l *Library) Recommender(s Strategy, opts ...RecommenderOption) (Recommender, error) {
	o := resolveRecOptions(opts)
	if o.err != nil {
		return nil, o.err
	}
	spec, err := ResolveStrategy(string(s), o.metric.String())
	if err != nil {
		return nil, err
	}
	var rec strategy.Recommender
	switch spec.Strategy {
	case FocusCompleteness:
		rec = strategy.NewFocus(l.lib, strategy.Completeness)
	case FocusCloseness:
		rec = strategy.NewFocus(l.lib, strategy.Closeness)
	case Breadth:
		rec = strategy.NewBreadthWeighted(l.lib, o.weighting)
	case BestMatch:
		rec = strategy.NewBestMatchMetric(l.lib, o.metric)
	}
	if o.cacheSize > 0 {
		rec = strategy.NewCached(rec, o.cacheSize)
	}
	return &namedRecommender{rec: rec, lib: l}, nil
}

// RecommendBatch implements Recommender. Name resolution is hoisted out of
// the per-item path: one vocabulary pass resolves the whole batch (each
// distinct name looked up once), then the id-level scoring fans out over the
// shared pool. All items score against this recommender's one library
// snapshot, and each result carries its unknown names so callers need no
// second resolution pass.
func (n *namedRecommender) RecommendBatch(ctx context.Context, activities [][]string, k int) []BatchResult {
	ids, unknown := n.lib.resolveBatchSplit(activities)
	out := make([]BatchResult, len(activities))
	fanOut(len(activities), func(i int) {
		scored, err := strategy.RecommendContext(ctx, n.rec, ids[i], k)
		recs := make([]Recommendation, len(scored))
		for j, s := range scored {
			recs[j] = Recommendation{Action: n.lib.vocab.ActionName(s.Action), Score: s.Score}
		}
		out[i] = BatchResult{Recommendations: recs, UnknownActions: unknown[i]}
		if err != nil {
			out[i].Err = fmt.Errorf("goalrec: %w", err)
		}
	})
	return out
}

// fanOut runs work(0..n-1) over up to GOMAXPROCS workers and returns when
// every index has run. The per-item work observes its context at entry, so
// once a batch's context is done the remaining items drain immediately with
// the cancellation error instead of running to completion.
func fanOut(n int, work func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			work(i)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				work(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// RecommendBatch runs the recommender over many activities in parallel
// (bounded by GOMAXPROCS) and returns the lists in input order. Recommenders
// from this package are safe for concurrent use, so this is the throughput
// path for offline scoring jobs. For per-item errors and cancellation use
// the Recommender.RecommendBatch method directly.
func RecommendBatch(rec Recommender, activities [][]string, k int) [][]Recommendation {
	results := rec.RecommendBatch(context.Background(), activities, k)
	out := make([][]Recommendation, len(results))
	for i, r := range results {
		out[i] = r.Recommendations
	}
	return out
}

// MustRecommender is Recommender for the package's own strategy constants;
// it panics on an unknown strategy.
func (l *Library) MustRecommender(s Strategy, opts ...RecommenderOption) Recommender {
	rec, err := l.Recommender(s, opts...)
	if err != nil {
		panic(err)
	}
	return rec
}

// SaveJSON writes the library as JSON lines (one implementation per line),
// the format LoadLibraryJSON reads.
func (l *Library) SaveJSON(w io.Writer) error {
	return core.WriteJSONLines(w, l.lib, l.vocab)
}

// LoadLibraryJSON reads a JSON-lines library: one object per line with the
// shape {"goal": "...", "actions": ["...", ...]}; blank lines are ignored.
// An object may not span lines, nor a line hold two; a line that fails to
// load is reported by its 1-based number, the lowest one if several fail.
func LoadLibraryJSON(r io.Reader) (*Library, error) {
	lib, vocab, err := core.ReadJSONLines(r)
	if err != nil {
		return nil, err
	}
	return &Library{lib: lib, vocab: vocab}, nil
}

// ErrCompressedPostings is returned for snapshots in the retired
// block-compressed posting encoding: SaveSnapshotFile no longer writes it and
// OpenSnapshotFile no longer reads it.
var ErrCompressedPostings = core.ErrCompressedPostings

// SaveSnapshotFile writes the library in the memory-mappable snapshot
// format: aligned fixed-width little-endian sections that OpenSnapshotFile
// loads zero-copy, with no decode or index rebuild. compressPostings must be
// false; true selects the retired compressed encoding and returns
// ErrCompressedPostings.
func (l *Library) SaveSnapshotFile(path string, compressPostings bool) error {
	if compressPostings {
		return ErrCompressedPostings
	}
	return core.WriteSnapshotFile(path, l.lib, l.vocab, core.SnapshotOptions{})
}

// Snapshot is a library backed by a memory-mapped snapshot file. Close it
// only once nothing references the library any more — its slices alias the
// mapping directly.
type Snapshot struct {
	lib  *Library
	snap *core.Snapshot
}

// Library returns the mapped library. It is served exactly like a built
// one; every accessor reads the mapping zero-copy.
func (s *Snapshot) Library() *Library { return s.lib }

// Close releases the mapping.
func (s *Snapshot) Close() error { return s.snap.Close() }

// OpenSnapshotFile memory-maps a snapshot written by SaveSnapshotFile. The
// open is O(header + section table): the library's data pages fault in on
// first touch instead of being decoded up front.
func OpenSnapshotFile(path string) (*Snapshot, error) {
	snap, err := core.OpenSnapshot(path)
	if err != nil {
		return nil, err
	}
	lib, err := snapshotLibrary(snap, path)
	if err != nil {
		return nil, err
	}
	return &Snapshot{lib: lib, snap: snap}, nil
}

// snapshotLibrary wraps an open snapshot's library and vocabulary as a
// name-level Library; an id-level snapshot (no vocabulary) is closed and
// refused.
func snapshotLibrary(snap *core.Snapshot, path string) (*Library, error) {
	vocab := snap.Vocabulary()
	if vocab == nil {
		_ = snap.Close()
		return nil, fmt.Errorf("goalrec: snapshot %s carries no vocabulary", path)
	}
	return &Library{lib: snap.Library(), vocab: vocab}, nil
}

// firstNonSpace returns the first byte of r that is not JSON whitespace.
func firstNonSpace(r io.Reader) (byte, error) {
	br := bufio.NewReader(r)
	for {
		c, err := br.ReadByte()
		if err != nil || (c != ' ' && c != '\t' && c != '\r' && c != '\n') {
			return c, err
		}
	}
}

// RelatedGoal is one goal associated with a reference goal through shared
// actions — the latent goal-goal associations the model captures.
type RelatedGoal struct {
	// Goal is the related goal's name.
	Goal string
	// SharedActions is the number of distinct actions the two goals'
	// implementations share.
	SharedActions int
	// Similarity is the Jaccard coefficient of the two goals' action sets
	// (union over their implementations).
	Similarity float64
}

// RelatedGoals returns the k goals whose implementations share the most
// actions with the named goal, ranked by Jaccard similarity of their action
// sets (ties by shared-action count, then name). k < 0 returns all related
// goals. Unknown goals yield nil.
func (l *Library) RelatedGoals(goal string, k int) []RelatedGoal {
	gid, ok := l.vocab.Goals.Lookup(goal)
	if !ok || k == 0 {
		return nil
	}
	ref := l.goalActions(core.GoalID(gid))
	if len(ref) == 0 {
		return nil
	}
	// Candidate goals: those reachable through the reference actions.
	seen := map[core.GoalID]bool{core.GoalID(gid): true}
	var out []RelatedGoal
	for _, g := range l.lib.GoalSpace(ref) {
		if seen[g] {
			continue
		}
		seen[g] = true
		other := l.goalActions(g)
		shared := intset.IntersectionLen(ref, other)
		if shared == 0 {
			continue
		}
		out = append(out, RelatedGoal{
			Goal:          l.vocab.GoalName(g),
			SharedActions: shared,
			Similarity:    float64(shared) / float64(len(ref)+len(other)-shared),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		if out[i].SharedActions != out[j].SharedActions {
			return out[i].SharedActions > out[j].SharedActions
		}
		return out[i].Goal < out[j].Goal
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// goalActions returns the union of the goal's implementations' actions,
// sorted. The destination is sized from the goal's slot total up front, so
// high-degree hub goals no longer pay repeated append growth.
func (l *Library) goalActions(g core.GoalID) []core.ActionID {
	total := l.lib.GoalWalkCost(g)
	if total == 0 {
		return nil
	}
	all := make([]core.ActionID, 0, total)
	for _, p := range l.lib.ImplsOfGoal(g) {
		all = append(all, l.lib.Actions(p)...)
	}
	return intset.FromUnsorted(all)
}

// MergeLibraries combines several libraries into one: implementations are
// concatenated in argument order and identical names unify onto shared ids,
// so goal/action spaces span all sources. Use Deduplicate afterwards when
// the sources overlap. Merging no libraries yields an empty library.
func MergeLibraries(libs ...*Library) *Library {
	out := NewBuilder()
	for _, l := range libs {
		for p := 0; p < l.lib.NumImplementations(); p++ {
			id := core.ImplID(p)
			goal := l.vocab.GoalName(l.lib.Goal(id))
			actions := make([]string, 0, l.lib.ImplLen(id))
			for _, a := range l.lib.Actions(id) {
				actions = append(actions, l.vocab.ActionName(a))
			}
			// The source library guarantees valid implementations.
			_ = out.AddImplementation(goal, actions...)
		}
	}
	return out.Build()
}

// DedupeStats reports what Deduplicate removed.
type DedupeStats = core.DedupeStats

// Deduplicate returns a copy of the library with duplicate implementations
// of the same goal removed: an implementation is dropped when an earlier
// implementation of the same goal overlaps it with Jaccard ≥ threshold
// (1 removes only exact duplicates). Useful after BuildFromStories, where
// many authors describe the same action set for one goal.
func (l *Library) Deduplicate(threshold float64) (*Library, DedupeStats) {
	lib, stats := core.Deduplicate(l.lib, threshold)
	return &Library{lib: lib, vocab: l.vocab}, stats
}

// ExportDOT renders the association-based goal model (the paper's Figure 2)
// as a Graphviz graph: implementations as goal-labelled boxes connected to
// the actions they contain. maxImpls caps the rendered implementations
// (≤ 0 renders everything).
func (l *Library) ExportDOT(w io.Writer, maxImpls int) error {
	return core.WriteDOT(w, l.lib, l.vocab, maxImpls)
}

// LoadLibraryFile opens path and loads it with the format sniffed from the
// leading bytes: '{' after any blank lines or spaces selects JSON lines, the
// "GSNP" magic a memory-mapped snapshot; anything else is an error.
// A mapped snapshot's pages stay mapped for the life of the process —
// callers that need to release the mapping should use OpenSnapshotFile
// directly and Close it.
func LoadLibraryFile(path string) (*Library, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Sniff, then rewind: LoadLibraryJSON must see the leading blank lines
	// it ignores, or its errors would not count the file's lines.
	first, err := firstNonSpace(f)
	if err == nil {
		_, err = f.Seek(0, io.SeekStart)
	}
	if err != nil {
		return nil, fmt.Errorf("goalrec: reading %s: %w", path, err)
	}
	if first == '{' {
		return LoadLibraryJSON(f)
	}
	br := bufio.NewReader(f)
	if magic, err := br.Peek(4); err == nil && string(magic) == "GSNP" {
		snap, err := OpenSnapshotFile(path)
		if err != nil {
			return nil, err
		}
		return snap.Library(), nil
	}
	return nil, fmt.Errorf("goalrec: %s is neither a JSON-lines library nor a GSNP snapshot", path)
}
