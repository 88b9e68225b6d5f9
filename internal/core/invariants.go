package core

import (
	"fmt"
	"math"
)

// CheckInvariants audits the scheduler's internal state at time now and
// returns the first violated invariant, if any. It is O(N) and meant for
// tests and debugging harnesses, which call it at every decision point of a
// randomized simulation:
//
//  1. every enqueued entity sits in exactly one of the two lists, with its
//     expiry handle present iff it is EDF-resident;
//  2. EDF-List membership satisfies Definition 6 on the representative
//     (now + r_rep <= d_rep) — HDF residents may satisfy it only between
//     migration points, but EDF residents must, because migration runs
//     before every decision;
//  3. cached representatives match a fresh recomputation;
//  4. ready counts match the number of available members;
//  5. both heaps and the expiry heap satisfy their ordering invariants;
//  6. an entity with at least one available member is enqueued unless its
//     workflow is done;
//  7. every entity of an available transaction is materialized;
//  8. under a singleton grouping, memberOf[id] is nil or the entity of
//     workflow id with id still pending, so a finished transaction's slot
//     is nil, and no recycled entity on the free list sits in a heap.
//
//lint:coldpath O(N) audit for tests and the Checked debug wrapper; production runs never call it
func (a *ASETSStar) CheckInvariants(now float64) error {
	if !a.edf.Verify() || !a.hdf.Verify() || !a.expiry.Verify() {
		return fmt.Errorf("core: heap ordering invariant broken at t=%v", now)
	}
	singleton := a.memberStart == nil
	// Every materialized entity is reached once, through the membership of
	// its first member.
	for _, t := range a.set.Txns {
		avail := a.available(t)
		for _, e := range a.members(t.ID) {
			switch {
			case e == nil:
				if avail {
					return fmt.Errorf("core: T%d is available but an entity of it is not materialized at t=%v", t.ID, now)
				}
			case singleton && (e.wf.Root != t.ID || !e.wf.Contains(t.ID)):
				return fmt.Errorf("core: T%d indexes workflow %d, which is not its own with T%d pending, at t=%v",
					t.ID, e.wf.ID, t.ID, now)
			case e.wf.Members[0] == t.ID:
				if err := a.checkEntity(now, e); err != nil {
					return err
				}
			}
		}
	}
	// Every recycled entity was carved, so a longer list has a cycle.
	n := 0
	for e := a.free; e != nil; e = e.next {
		if n++; n > a.carved {
			return fmt.Errorf("core: free list longer than the %d entities carved", a.carved)
		}
		if e.item.InHeap() || e.exp.InHeap() {
			return fmt.Errorf("core: recycled entity of workflow %d is still in a heap at t=%v", e.wf.ID, now)
		}
	}
	return nil
}

// checkEntity audits invariants 1-4 and 6 on one materialized entity.
func (a *ASETSStar) checkEntity(now float64, e *entity) error {
	avail := 0
	for _, id := range e.wf.Members {
		if !e.wf.Contains(id) {
			continue
		}
		if a.available(a.set.ByID(id)) {
			avail++
		}
	}
	if int(e.ready) != avail {
		return fmt.Errorf("core: workflow %d ready count %d != available members %d at t=%v",
			e.wf.ID, e.ready, avail, now)
	}
	if !e.enqueued() {
		if avail > 0 && !e.wf.Done() {
			return fmt.Errorf("core: workflow %d has %d available members but is not enqueued at t=%v",
				e.wf.ID, avail, now)
		}
		if e.exp.InHeap() {
			return fmt.Errorf("core: dequeued workflow %d still holds an expiry handle", e.wf.ID)
		}
		return nil
	}
	if e.wf.Done() {
		return fmt.Errorf("core: completed workflow %d still enqueued at t=%v", e.wf.ID, now)
	}
	rep := a.repOf(e)
	//lint:ignore floatcmp cache-coherence audit: the cached representative must be bitwise identical to a recomputation, not merely close
	if rep.Deadline != e.rep.Deadline || rep.Remaining != e.rep.Remaining || rep.Weight != e.rep.Weight {
		return fmt.Errorf("core: workflow %d cached rep %+v != recomputed %+v at t=%v",
			e.wf.ID, e.rep, rep, now)
	}
	inEDF := e.item.Owner() == a.edf
	if inEDF != e.inEDF {
		return fmt.Errorf("core: workflow %d inEDF flag %v disagrees with heap membership at t=%v",
			e.wf.ID, e.inEDF, now)
	}
	if inEDF != e.exp.InHeap() {
		return fmt.Errorf("core: workflow %d expiry handle presence %v disagrees with EDF residency %v",
			e.wf.ID, e.exp.InHeap(), inEDF)
	}
	if inEDF && !e.rep.CanMeetDeadline(now) {
		// A tiny epsilon covers the boundary t == d_rep - r_rep case hit
		// exactly at a decision point.
		if now-(e.rep.Deadline-e.rep.Remaining) > 1e-9 {
			return fmt.Errorf("core: workflow %d in EDF-List but rep cannot meet deadline at t=%v (d=%v r=%v)",
				e.wf.ID, now, e.rep.Deadline, e.rep.Remaining)
		}
	}
	if math.IsNaN(e.rep.Deadline) || math.IsNaN(e.rep.Remaining) {
		return fmt.Errorf("core: workflow %d has NaN representative", e.wf.ID)
	}
	return nil
}
