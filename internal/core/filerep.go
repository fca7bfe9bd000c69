package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
)

// OwnerEvaluation is one owner's published evaluation of a file, as
// retrieved from the file's index peer (§4.1 step 3).
type OwnerEvaluation struct {
	// Owner is the peer index of the evaluator.
	Owner int
	// Value is the owner's published evaluation in [0,1].
	Value float64
}

// ErrNoReputation is returned when the requester has no reputation path to
// any of the file's evaluators, so Eq. (9) is undefined.
var ErrNoReputation = errors.New("core: no reputation path to any evaluator")

// FileReputation computes R_f for requester i over the evaluator set U
// (Eq. 9):
//
//	R_f = Σ_{j∈U} RM_ij·E_jf / Σ_{j∈U} RM_ij
//
// reps is row i of RM (from Reputations). Evaluators with zero reputation
// contribute nothing, so a clique of unknown peers cannot sway the score.
func FileReputation(reps map[int]float64, owners []OwnerEvaluation) (float64, error) {
	return fileReputation(owners, func(j int) float64 { return reps[j] })
}

// fileReputationRow is FileReputation over row i of RM in slice form,
// columns ascending: each owner's reputation is found by binary search,
// and owners are visited in the order given, so num and den accumulate
// exactly as they do over the map row.
func fileReputationRow(cols []int32, vals []float64, owners []OwnerEvaluation) (float64, error) {
	return fileReputation(owners, func(j int) float64 {
		k, ok := slices.BinarySearchFunc(cols, j, func(c int32, j int) int { return cmp.Compare(int(c), j) })
		if !ok {
			return 0
		}
		return vals[k]
	})
}

// fileReputation is Eq. (9) with rep(j) = RM_ij.
func fileReputation(owners []OwnerEvaluation, rep func(j int) float64) (float64, error) {
	var num, den float64
	for _, oe := range owners {
		if oe.Value < 0 || oe.Value > 1 {
			return 0, fmt.Errorf("core: owner %d evaluation %v outside [0,1]", oe.Owner, oe.Value)
		}
		r := rep(oe.Owner)
		if r <= 0 {
			continue
		}
		num += r * oe.Value
		den += r
	}
	if den <= 0 {
		return 0, ErrNoReputation
	}
	return num / den, nil
}

// Judgement is the outcome of judging a file before download (§3.3).
type Judgement struct {
	// Reputation is R_f; meaningful only when Known.
	Reputation float64
	// Known reports whether any reputation-weighted evidence existed.
	Known bool
	// Fake reports Known && Reputation < threshold.
	Fake bool
}

// JudgeFile computes peer i's judgement of a file from the owners'
// published evaluations, using the engine's multi-trust reputations and
// fake threshold. A file with no reachable evidence is Unknown, not fake:
// the paper leaves the decision to a per-user threshold, and punishing
// absent evidence would lock new files out of the system.
func (e *Engine) JudgeFile(i int, owners []OwnerEvaluation, now time.Duration) (Judgement, error) {
	if err := e.checkPeer(i); err != nil {
		return Judgement{}, err
	}
	tm, err := e.BuildTM(now)
	if err != nil {
		return Judgement{}, err
	}
	sp := obs.Timed(e.obs.clock, e.obs.repWalk)
	cols, vals, err := tm.RowVecPowRow(i, e.cfg.Steps)
	sp.End()
	if err != nil {
		return Judgement{}, err
	}
	return e.judgeWith(cols, vals, owners)
}

// JudgeFileFromTM is JudgeFile against a prebuilt TM, amortising matrix
// construction across many judgements.
func (e *Engine) JudgeFileFromTM(tm *sparse.CSR, i int, owners []OwnerEvaluation) (Judgement, error) {
	cols, vals, err := tm.RowVecPowRow(i, e.cfg.Steps)
	if err != nil {
		return Judgement{}, err
	}
	return e.judgeWith(cols, vals, owners)
}

// judgeWith decides a file from row i of RM in slice form.
func (e *Engine) judgeWith(cols []int32, vals []float64, owners []OwnerEvaluation) (Judgement, error) {
	r, err := fileReputationRow(cols, vals, owners)
	if errors.Is(err, ErrNoReputation) {
		return Judgement{}, nil
	}
	if err != nil {
		return Judgement{}, err
	}
	return Judgement{Reputation: r, Known: true, Fake: r < e.cfg.FakeThreshold}, nil
}

// CollectOwnerEvaluations gathers the live published evaluations of file f
// from a set of owner peers out of the engine's own stores — the
// simulation-side stand-in for retrieving EvaluationInfo records from the
// DHT index peer.
func (e *Engine) CollectOwnerEvaluations(f eval.FileID, owners []int, now time.Duration) []OwnerEvaluation {
	out := make([]OwnerEvaluation, 0, len(owners))
	for _, o := range owners {
		if e.checkPeer(o) != nil {
			continue
		}
		if v, ok := e.stores[o].Get(f, now); ok {
			out = append(out, OwnerEvaluation{Owner: o, Value: v})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Owner < out[b].Owner })
	return out
}
