package txn

// CriticalPath computes, for every transaction, the total service time of
// the longest dependency chain ending at that transaction (inclusive). This
// is the structural lower bound on the transaction's response time measured
// from the moment its whole ancestor closure is available: no scheduler can
// render a fragment faster than its critical path on a single backend.
//
// The returned slice is indexed by transaction ID.
func CriticalPath(s *Set) ([]float64, error) {
	order, err := s.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	cp := make([]float64, s.Len())
	for _, id := range order {
		t := s.ByID(id)
		longest := 0.0
		for _, d := range t.Deps {
			if cp[d] > longest {
				longest = cp[d]
			}
		}
		cp[id] = longest + t.Length
	}
	return cp, nil
}

// EarliestFinishTimes returns, per transaction, the earliest instant it
// could possibly finish on an idle system with unlimited servers:
// EFT(t) = max(arrival(t), max over deps EFT(dep)) + length(t). This
// accounts for arrival staggering — an ancestor that arrives (and can
// finish) long before its dependent does not serialize after it — so the
// value is a true lower bound on the finish time under ANY scheduler and
// any server count.
func EarliestFinishTimes(s *Set) ([]float64, error) {
	order, err := s.TopologicalOrder()
	if err != nil {
		return nil, err
	}
	eft := make([]float64, s.Len())
	for _, id := range order {
		t := s.ByID(id)
		start := t.Arrival
		for _, d := range t.Deps {
			if eft[d] > start {
				start = eft[d]
			}
		}
		eft[id] = start + t.Length
	}
	return eft, nil
}

// SlackAgainstCriticalPath returns, per transaction, the deadline slack
// remaining after accounting for the structural earliest finish time:
// deadline - EFT. A negative value marks a transaction whose SLA is
// infeasible even on an idle backend — tardiness no policy can avoid, the
// quantity that separates scheduling losses from workload design losses in
// EXPERIMENTS.md's Figure 14 discussion.
func SlackAgainstCriticalPath(s *Set) ([]float64, error) {
	eft, err := EarliestFinishTimes(s)
	if err != nil {
		return nil, err
	}
	out := make([]float64, s.Len())
	for _, t := range s.Txns {
		out[t.ID] = t.Deadline - eft[t.ID]
	}
	return out, nil
}
