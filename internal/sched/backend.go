package sched

import (
	"repro/internal/pq"
	"repro/internal/txn"
)

// Backend selects the data structure behind a priority policy's ready
// queue. The paper notes ASETS* "can use the standard balanced binary
// search tree as the priority queue, which requires only a time of
// O(log N)"; both substrates meet that bound, and an ablation benchmark
// (BenchmarkBackendHeapVsTreap) compares their constants.
type Backend int

const (
	// BackendHeap uses the indexed binary heap (default; lower constants).
	BackendHeap Backend = iota
	// BackendTreap uses the treap ordered map — the literal balanced-BST
	// reading of the paper.
	BackendTreap
)

// readyQueue is the minimal priority-queue surface a priority policy needs.
type readyQueue interface {
	// Push enqueues a ready transaction.
	Push(t *txn.Transaction)
	// Pop removes and returns the highest-priority transaction, or nil.
	Pop() *txn.Transaction
	// Len returns the number of queued transactions.
	Len() int
}

// heapQueue adapts pq.Heap to readyQueue, reusing one pq.Item per
// transaction across push/pop cycles. The items live by value in one slab
// indexed by transaction ID.
type heapQueue struct {
	heap  *pq.Heap[*txn.Transaction]
	items []pq.Item[*txn.Transaction]
}

func newHeapQueue(set *txn.Set, less Less) *heapQueue {
	q := &heapQueue{
		heap:  pq.NewHeap[*txn.Transaction](less),
		items: make([]pq.Item[*txn.Transaction], set.Len()),
	}
	for _, t := range set.Txns {
		q.items[t.ID].Value = t
	}
	return q
}

func (q *heapQueue) Push(t *txn.Transaction) { q.heap.Push(&q.items[t.ID]) }

func (q *heapQueue) Pop() *txn.Transaction {
	it := q.heap.Pop()
	if it == nil {
		return nil
	}
	return it.Value
}

func (q *heapQueue) Len() int { return q.heap.Len() }

// treapQueue adapts pq.Treap to readyQueue. The treap's key is the
// transaction itself ordered by the policy comparator; duplicate priorities
// are fine because the comparator is a total order (policies tie-break by
// ID).
type treapQueue struct {
	treap *pq.Treap[*txn.Transaction, struct{}]
	nodes []*pq.TreapNode[*txn.Transaction, struct{}]
}

// treapSeed keeps treap shapes deterministic across runs; any constant
// works since determinism, not adversarial balance, is the goal.
const treapSeed = 0x5eed5eed5eed5eed

func newTreapQueue(set *txn.Set, less Less) *treapQueue {
	return &treapQueue{
		treap: pq.NewTreap[*txn.Transaction, struct{}](less, treapSeed),
		nodes: make([]*pq.TreapNode[*txn.Transaction, struct{}], set.Len()),
	}
}

func (q *treapQueue) Push(t *txn.Transaction) {
	q.nodes[t.ID] = q.treap.Insert(t, struct{}{})
}

func (q *treapQueue) Pop() *txn.Transaction {
	n := q.treap.Min()
	if n == nil {
		return nil
	}
	q.treap.Delete(n)
	t := n.Key
	q.nodes[t.ID] = nil
	return t
}

func (q *treapQueue) Len() int { return q.treap.Len() }

// NewPriorityPolicyWithBackend is NewPriorityPolicy with an explicit queue
// substrate. BackendHeap and BackendTreap produce identical schedules for
// any total-order comparator; only the constants differ.
func NewPriorityPolicyWithBackend(name string, less Less, backend Backend) Scheduler {
	if less == nil {
		panic("sched: NewPriorityPolicyWithBackend called with nil comparator")
	}
	return &priorityPolicy{name: name, less: less, backend: backend}
}
