use crate::SimTime;

/// The future-event list: a priority queue ordered by timestamp with FIFO
/// tie-breaking (events scheduled earlier pop first at equal times), which
/// keeps simulations deterministic for a fixed seed.
///
/// Internally an **index-based 4-ary min-heap** over a flat `Vec`: for
/// exponential inter-arrival workloads a freshly scheduled event usually
/// lands near the *back* of the time order, so the dominant cost is the
/// `pop` sift-down. A 4-ary layout halves the sift depth of the classical
/// binary heap (`log₄ n` levels instead of `log₂ n`) and keeps each
/// level's four candidate children on one or two cache lines, trading a
/// few extra comparisons per level for roughly half the dependent cache
/// misses once the pending-event set outgrows L1.
///
/// This is the generic engine's queue ([`crate::Simulation`]). The
/// whole-overlay DES in `pollux::des_overlay` needs none: its clusters
/// are independent, so it plays each cluster's own arrival stream to its
/// end instead of interleaving them by time.
///
/// # Example
///
/// ```
/// use pollux_des::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from(2.0), "b");
/// q.push(SimTime::from(1.0), "a");
/// q.push(SimTime::from(2.0), "c");
/// assert_eq!(q.pop(), Some((SimTime::from(1.0), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from(2.0), "b"))); // FIFO tie-break
/// assert_eq!(q.pop(), Some((SimTime::from(2.0), "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// 4-ary heap: children of slot `i` live at `4i + 1 ..= 4i + 4`.
    heap: Vec<Entry<E>>,
    next_seq: u64,
}

/// Heap arity. Four keeps sift depth at `log₄ n` while a whole level of
/// children (4 × 24-byte entries for a `u32` payload) still spans at most
/// two cache lines.
const ARITY: usize = 4;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Strict `(time, seq)` ordering: the min-heap key.
    #[inline]
    fn before(&self, other: &Self) -> bool {
        match self.time.cmp(&other.time) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => self.seq < other.seq,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Creates an empty queue whose backing storage holds `capacity` events
    /// without reallocating.
    ///
    /// A simulation that knows its peak pending-event count pre-sizes the
    /// future-event list once so the hot loop never touches the
    /// allocator.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(capacity),
            next_seq: 0,
        }
    }

    /// Number of events the queue can hold without reallocating.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Reserves room for at least `additional` further events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event.
    #[must_use = "popping discards the event unless the result is consumed"]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(0, last);
        let entry = self.heap.pop().expect("length checked above");
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((entry.time, entry.event))
    }

    /// Timestamp of the earliest pending event.
    #[must_use]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events, **keeping the backing allocation** so a
    /// reused queue (the per-shard queues of a sweep running many DES
    /// cells, say) does not re-allocate on its next fill. Call
    /// [`EventQueue::shrink_to_fit`] afterwards to actually return the
    /// memory.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Releases backing capacity down to the current length, so a cleared
    /// or drained queue stops holding its peak-size allocation.
    pub fn shrink_to_fit(&mut self) {
        self.heap.shrink_to_fit();
    }

    /// Restores the heap invariant upward from `pos` (after a push).
    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if self.heap[pos].before(&self.heap[parent]) {
                self.heap.swap(pos, parent);
                pos = parent;
            } else {
                break;
            }
        }
    }

    /// Restores the heap invariant downward from `pos` (after a pop).
    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let first_child = pos * ARITY + 1;
            if first_child >= len {
                break;
            }
            // Smallest of the (up to four) children.
            let mut best = first_child;
            let last_child = (first_child + ARITY).min(len);
            for child in first_child + 1..last_child {
                if self.heap[child].before(&self.heap[best]) {
                    best = child;
                }
            }
            if self.heap[best].before(&self.heap[pos]) {
                self.heap.swap(pos, best);
                pos = best;
            } else {
                break;
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for (t, e) in [(5.0, 'e'), (1.0, 'a'), (3.0, 'c')] {
            q.push(SimTime::from(t), e);
        }
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'c', 'e']);
    }

    #[test]
    fn fifo_at_equal_times() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from(7.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fifo_ties_survive_interleaved_distinct_times() {
        // Ties scheduled around other timestamps must still pop in
        // scheduling order — the exact semantics the old BinaryHeap
        // (time, then sequence) ordering provided.
        let mut q = EventQueue::new();
        q.push(SimTime::from(2.0), "tie-1");
        q.push(SimTime::from(1.0), "early");
        q.push(SimTime::from(2.0), "tie-2");
        q.push(SimTime::from(3.0), "late");
        q.push(SimTime::from(2.0), "tie-3");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "tie-1", "tie-2", "tie-3", "late"]);
    }

    #[test]
    fn matches_reference_sort_on_adversarial_sequences() {
        // Deterministic pseudo-random push/pop mix, checked against a
        // stable sort on (time, insertion index) — the queue's contract.
        let mut q = EventQueue::new();
        let mut reference: Vec<(u64, usize)> = Vec::new();
        let mut popped: Vec<usize> = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for i in 0..2000usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Coarse times force plenty of exact ties.
            let t = state >> 59;
            q.push(SimTime::from(t as f64), i);
            reference.push((t, i));
            if state.is_multiple_of(3) {
                popped.push(q.pop().expect("nonempty").1);
            }
        }
        while let Some((_, e)) = q.pop() {
            popped.push(e);
        }
        // Popping interleaved with pushing is not globally sorted, but the
        // multiset must match and the final drain must be sorted by
        // (time, seq) among the events still pending at each point. The
        // cheap end-to-end check: a full drain-only run agrees with the
        // stable sort.
        let mut q2 = EventQueue::new();
        for &(t, i) in &reference {
            q2.push(SimTime::from(t as f64), i);
        }
        let mut sorted = reference.clone();
        sorted.sort_by_key(|&(t, i)| (t, i));
        let drained: Vec<usize> = std::iter::from_fn(|| q2.pop().map(|(_, e)| e)).collect();
        assert_eq!(drained, sorted.iter().map(|&(_, i)| i).collect::<Vec<_>>());
        // And the interleaved run loses nothing.
        popped.sort_unstable();
        assert_eq!(popped, (0..2000).collect::<Vec<_>>());
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from(2.0), ());
        q.push(SimTime::from(1.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from(1.0)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn clear_keeps_capacity_until_shrunk() {
        let mut q = EventQueue::with_capacity(256);
        for i in 0..256 {
            q.push(SimTime::from(i as f64), i);
        }
        let cap = q.capacity();
        assert!(cap >= 256);
        q.clear();
        // Documented behavior: the allocation survives a clear…
        assert_eq!(q.len(), 0);
        assert_eq!(q.capacity(), cap);
        // …and is released by an explicit shrink.
        q.shrink_to_fit();
        assert!(q.capacity() < cap);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from(1.0), 1);
        q.push(SimTime::from(3.0), 3);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from(2.0), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn single_element_and_empty_pops() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.pop(), None);
        q.push(SimTime::from(1.0), 9);
        assert_eq!(q.pop(), Some((SimTime::from(1.0), 9)));
        assert_eq!(q.pop(), None);
    }
}
