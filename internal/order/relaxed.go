package order

// RelaxedBound parameterizes the relaxed checking mode.
type RelaxedBound struct {
	// MaxRank is the rank-error budget: a successful DeleteMin may
	// overtake at most this many definitely-present items of strictly
	// smaller priority. Zero is the strict priority rule.
	MaxRank int
}

// CheckRelaxed verifies a history against rank-bounded relaxed
// priority-queue semantics — the contract of the MultiQueue family.
// Uniqueness, precedence, well-formedness and emptiness are checked
// exactly as in Check: relaxation never excuses losing or duplicating
// an item, returning one before its insert, or reporting empty while an
// item was definitely present. The strict priority rule is replaced by
// the "rank-error" rule: a successful DeleteMin returning priority p
// violates the bound only when more than bound.MaxRank items of
// strictly smaller priority were definitely present for its whole
// window. The batch rules keep the kind/interval and no-success-after-
// dry clauses but drop priority monotonicity, since a relaxed batch is
// k independent relaxed pops.
//
// Like Check, the conditions are necessary, not sufficient: the
// definitely-present analysis undercounts the true rank under
// concurrency, so every reported violation is a real rank-bound breach
// while marginal ones may go undetected.
func CheckRelaxed(history []Op, bound RelaxedBound) []Violation {
	out := checkBatches(history, false)
	return append(out, checkCore(history, nil, bound.MaxRank, nil)...)
}

// CheckRelaxedTruncated is CheckRelaxed for crash-truncated histories,
// treating pending operations exactly as CheckTruncated does.
func CheckRelaxedTruncated(history []Op, pending []PendingOp, bound RelaxedBound) []Violation {
	out := checkBatches(history, false)
	return append(out, checkCore(history, pending, bound.MaxRank, nil)...)
}
