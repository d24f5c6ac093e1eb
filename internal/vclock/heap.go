package vclock

// The Manual clock keeps every pending waiter in one binary min-heap over
// (atNs, seq), so same-deadline waiters fire in creation order. Each waiter
// tracks its heap index, so Stop and Reschedule remove it in O(log n)
// instead of leaving a tombstone for a sweep. All methods run under
// Manual.mu.

func waiterBefore(a, b *manualWaiter) bool {
	if a.atNs != b.atNs {
		return a.atNs < b.atNs
	}
	return a.seq < b.seq
}

// heapPush files w by its deadline without touching the pending count
// (ticker re-arms reuse it).
//
//sensolint:hotpath
func (m *Manual) heapPush(w *manualWaiter) {
	w.atNs = int64(w.at.Sub(m.base))
	w.idx = int32(len(m.heap))
	m.heap = append(m.heap, w)
	m.heapUp(int(w.idx))
}

// heapPop removes and returns the earliest waiter.
//
//sensolint:hotpath
func (m *Manual) heapPop() *manualWaiter {
	w := m.heap[0]
	m.heapRemoveAt(0)
	return w
}

// heapRemoveAt deletes the waiter at index i, restoring heap order.
//
//sensolint:hotpath
func (m *Manual) heapRemoveAt(i int) {
	last := len(m.heap) - 1
	w := m.heap[i]
	w.idx = notQueued
	if i != last {
		moved := m.heap[last]
		m.heap[i] = moved
		moved.idx = int32(i)
		m.heap[last] = nil
		m.heap = m.heap[:last]
		m.heapDown(i)
		m.heapUp(i)
	} else {
		m.heap[last] = nil
		m.heap = m.heap[:last]
	}
}

//sensolint:hotpath
func (m *Manual) heapUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !waiterBefore(m.heap[i], m.heap[parent]) {
			return
		}
		m.heapSwap(i, parent)
		i = parent
	}
}

//sensolint:hotpath
func (m *Manual) heapDown(i int) {
	n := len(m.heap)
	for {
		least := i
		if l := 2*i + 1; l < n && waiterBefore(m.heap[l], m.heap[least]) {
			least = l
		}
		if r := 2*i + 2; r < n && waiterBefore(m.heap[r], m.heap[least]) {
			least = r
		}
		if least == i {
			return
		}
		m.heapSwap(i, least)
		i = least
	}
}

//sensolint:hotpath
func (m *Manual) heapSwap(i, j int) {
	m.heap[i], m.heap[j] = m.heap[j], m.heap[i]
	m.heap[i].idx = int32(i)
	m.heap[j].idx = int32(j)
}
