package core

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes the shape of a library. Connectivity — the average number
// of implementations an action participates in — is the quantity the paper's
// complexity analysis (Section 5.4) and scalability study (Figure 7) pivot
// on.
type Stats struct {
	Implementations int
	Actions         int     // actions that occur in at least one implementation
	ActionIDSpace   int     // max action id + 1
	Goals           int     // goals with at least one implementation
	GoalIDSpace     int     // max goal id + 1
	TotalSlots      int     // Σ |A_p|
	AvgImplLen      float64 // mean |A_p|
	MaxImplLen      int
	Connectivity    float64 // mean implementations per occurring action
	MaxConnectivity int
	AvgImplsPerGoal float64

	// AG-idx shape: distinct goals per occurring action. The ratio of
	// Connectivity to AvgGoalsPerAction is the compression the AG-idx wins
	// over the raw A-GI postings for goal-level consumers.
	AGEntries         int     // total AG-idx (action, goal) pairs
	AvgGoalsPerAction float64 // mean distinct goals per occurring action
	MaxGoalsPerAction int
}

// Stats scans the library and returns its summary statistics.
func (l *Library) Stats() Stats {
	s := Stats{
		Implementations: l.NumImplementations(),
		ActionIDSpace:   l.NumActions(),
		GoalIDSpace:     l.NumGoals(),
		TotalSlots:      l.NumPostings(),
	}
	for a := ActionID(0); int(a) < l.numActions; a++ {
		if d := l.ActionDegree(a); d > 0 {
			s.Actions++
			if d > s.MaxConnectivity {
				s.MaxConnectivity = d
			}
		}
		if gd := l.GoalDegree(a); gd > 0 {
			s.AGEntries += gd
			if gd > s.MaxGoalsPerAction {
				s.MaxGoalsPerAction = gd
			}
		}
	}
	for g := GoalID(0); int(g) < l.numGoals; g++ {
		if len(l.ImplsOfGoal(g)) > 0 {
			s.Goals++
		}
	}
	for p := 0; p < s.Implementations; p++ {
		if n := l.ImplLen(ImplID(p)); n > s.MaxImplLen {
			s.MaxImplLen = n
		}
	}
	if s.Implementations > 0 {
		s.AvgImplLen = float64(s.TotalSlots) / float64(s.Implementations)
	}
	if s.Actions > 0 {
		s.Connectivity = float64(s.TotalSlots) / float64(s.Actions)
	}
	if s.Goals > 0 {
		s.AvgImplsPerGoal = float64(s.Implementations) / float64(s.Goals)
	}
	if s.Actions > 0 {
		s.AvgGoalsPerAction = float64(s.AGEntries) / float64(s.Actions)
	}
	return s
}

// String renders the statistics in a compact one-per-line form.
func (s Stats) String() string {
	return fmt.Sprintf(
		"implementations=%d actions=%d goals=%d slots=%d avgImplLen=%.2f maxImplLen=%d connectivity=%.2f maxConnectivity=%d implsPerGoal=%.2f goalsPerAction=%.2f",
		s.Implementations, s.Actions, s.Goals, s.TotalSlots,
		s.AvgImplLen, s.MaxImplLen, s.Connectivity, s.MaxConnectivity, s.AvgImplsPerGoal,
		s.AvgGoalsPerAction)
}

// LibraryFrequency returns, for every action id, the fraction of
// implementations containing it: the x-axis of the paper's Figure 6.
func (l *Library) LibraryFrequency() []float64 {
	out := make([]float64, l.numActions)
	n := float64(l.NumImplementations())
	if n == 0 {
		return out
	}
	for a := range out {
		out[a] = float64(l.ActionDegree(ActionID(a))) / n
	}
	return out
}

// ConnectivityPercentile returns the p-th percentile (0..100) of per-action
// connectivity over occurring actions. It returns 0 for an empty library.
func (l *Library) ConnectivityPercentile(p float64) float64 {
	var degrees []int
	for a := ActionID(0); int(a) < l.numActions; a++ {
		if d := l.ActionDegree(a); d > 0 {
			degrees = append(degrees, d)
		}
	}
	if len(degrees) == 0 {
		return 0
	}
	sort.Ints(degrees)
	rank := p / 100 * float64(len(degrees)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return float64(degrees[lo])
	}
	frac := rank - float64(lo)
	return float64(degrees[lo])*(1-frac) + float64(degrees[hi])*frac
}

// IndexBytes is the size of a library's index structures: the flat arrays of
// its base, by structure, as their lengths give it, and — on an extended
// snapshot — what lies on top of them.
type IndexBytes struct {
	ImplCSR int64 `json:"impl_csr"` // implementation -> goal, actions
	AGI     int64 `json:"a_gi"`     // A-GI-idx postings
	GGI     int64 `json:"g_gi"`     // G-GI-idx postings
	AG      int64 `json:"ag"`       // AG-idx (goal, count) pairs
	GA      int64 `json:"ga"`       // GA-idx (action, count) pairs
	Blocks  int64 `json:"blocks"`   // block-max metadata and per-goal walk costs
	Tail    int64 `json:"tail"`     // tail segment of the implementation CSR
	Overlay int64 `json:"overlay"`  // overlay pages and rows this snapshot references
}

// IndexBytes returns the size of l's index structures. The overlay figure
// counts every page and row l references, those shared with other live epochs
// included; it walks the overlay, so it is for reporting, not the query path.
func (l *Library) IndexBytes() IndexBytes {
	words := func(ns ...int) int64 {
		var n int64
		for _, v := range ns {
			n += 4 * int64(v)
		}
		return n
	}
	b := IndexBytes{
		ImplCSR: words(len(l.implGoal), len(l.implOff), len(l.implActs)),
		AGI:     words(len(l.actOff), len(l.actPost)),
		GGI:     words(len(l.goalOff), len(l.goalPost)),
		AG:      words(len(l.agOff), len(l.agGoal), len(l.agCnt)),
		GA:      words(len(l.gaOff), len(l.gaAct), len(l.gaCnt)),
		Blocks:  words(len(l.blkOff), len(l.blkLast), len(l.blkMinLen), len(l.blkMaxLen), len(l.goalSlots)),
		Tail:    words(len(l.tailGoal), len(l.tailOff), len(l.tailActs)),
		Overlay: l.ovAct.bytes((*actRow).bytes) + l.ovGoal.bytes((*goalRow).bytes),
	}
	return b
}

// TailImplementations returns how many of l's implementations lie in the tail
// segment: those appended since its base was adopted or built. 0 on a flat
// library.
func (l *Library) TailImplementations() int { return len(l.tailGoal) }

// OverlayStats counts the copy-on-write overlay of an extended snapshot: the
// actions and goals whose index rows it replaces, and the pages holding them.
type OverlayStats struct {
	ActionRows int `json:"action_rows"`
	GoalRows   int `json:"goal_rows"`
	Pages      int `json:"pages"`
}

// Overlay reports the size of l's overlay; all zero for a flat library.
func (l *Library) Overlay() OverlayStats {
	return OverlayStats{
		ActionRows: l.ovAct.rows,
		GoalRows:   l.ovGoal.rows,
		Pages:      l.ovAct.numPages() + l.ovGoal.numPages(),
	}
}

// Mapped reports whether l's flat index arrays are views over a snapshot
// mapping rather than heap memory.
func (l *Library) Mapped() bool { return l.mapped }
