//! The daemon's thread gate: a FIFO counting semaphore over the
//! `workers` evaluation threads the host is meant to give craftd.
//!
//! Each running job takes one permit per search thread before its
//! search starts and returns them when the [`Permits`] guard drops, on
//! return or unwind alike. Admission is strictly in arrival order: a
//! job that asks for more permits than are free blocks every later
//! arrival, so small requests cannot starve a large one.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// A FIFO counting semaphore.
pub(crate) struct Gate {
    capacity: usize,
    state: Mutex<GateState>,
    cond: Condvar,
}

struct GateState {
    free: usize,
    /// The ticket the next arrival draws.
    next: u64,
    /// The ticket admitted next; every earlier one has been admitted.
    serving: u64,
}

/// `n` permits held on a [`Gate`]; dropping returns them.
pub(crate) struct Permits<'a> {
    gate: &'a Gate,
    n: usize,
}

impl Gate {
    /// A gate holding `capacity` permits (at least one).
    pub(crate) fn new(capacity: usize) -> Gate {
        let capacity = capacity.max(1);
        Gate {
            capacity,
            state: Mutex::new(GateState { free: capacity, next: 0, serving: 0 }),
            cond: Condvar::new(),
        }
    }

    /// Block until every earlier caller is admitted and `n` permits are
    /// free, then take them. `n` is clamped to `1..=capacity`.
    pub(crate) fn acquire(&self, n: usize) -> Permits<'_> {
        let n = n.clamp(1, self.capacity);
        let mut st = self.lock();
        let ticket = st.next;
        st.next += 1;
        while st.serving != ticket || st.free < n {
            st = self.cond.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        st.free -= n;
        st.serving += 1;
        // The next ticket may fit in what is left.
        self.cond.notify_all();
        Permits { gate: self, n }
    }

    /// Every update leaves the state whole, so a panic elsewhere while
    /// the lock was held cannot leave it inconsistent.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[cfg(test)]
    fn waiting(&self) -> u64 {
        let st = self.lock();
        st.next - st.serving
    }
}

impl Drop for Permits<'_> {
    fn drop(&mut self) {
        self.gate.lock().free += self.n;
        self.gate.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier};

    #[test]
    fn never_more_permits_held_than_capacity() {
        let gate = Gate::new(3);
        let held = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let (gate, held, peak, start) = (&gate, &held, &peak, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..50 {
                        let n = 1 + (t + round) % 3;
                        let _p = gate.acquire(n);
                        let now = held.fetch_add(n, Ordering::SeqCst) + n;
                        peak.fetch_max(now, Ordering::SeqCst);
                        assert!(now <= 3, "{now} permits held on a gate of 3");
                        std::thread::yield_now();
                        held.fetch_sub(n, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) >= 2, "the permits were never shared");
        assert_eq!(gate.lock().free, 3);
    }

    #[test]
    fn admission_is_first_come_first_served() {
        // One permit of two is held. A request for two queues first; a
        // later request for one would fit in the free permit, but must
        // wait behind the earlier arrival.
        let gate = Gate::new(2);
        let order = Mutex::new(Vec::new());
        let first = gate.acquire(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                let _p = gate.acquire(2);
                order.lock().unwrap().push("two");
            });
            while gate.waiting() < 1 {
                std::thread::yield_now();
            }
            s.spawn(|| {
                let _p = gate.acquire(1);
                order.lock().unwrap().push("one");
            });
            // Until the later request has queued, or was let past.
            while gate.waiting() < 2 && order.lock().unwrap().is_empty() {
                std::thread::yield_now();
            }
            assert!(order.lock().unwrap().is_empty(), "a later request was admitted first");
            drop(first);
        });
        assert_eq!(*order.lock().unwrap(), ["two", "one"]);
    }

    #[test]
    fn a_panicking_holder_returns_its_permits() {
        let gate = Arc::new(Gate::new(2));
        let g = Arc::clone(&gate);
        let crashed = std::thread::spawn(move || {
            let _p = g.acquire(2);
            panic!("search panicked while holding permits");
        })
        .join();
        // The panic reaches the joiner, and the gate still admits a
        // request for every permit.
        assert!(crashed.is_err());
        assert_eq!(gate.lock().free, 2, "the panicking holder kept its permits");
        drop(gate.acquire(2));
    }
}
