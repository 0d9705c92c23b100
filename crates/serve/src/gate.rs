//! The admission gate: the bounds a worker pool with a bounded queue
//! would give, without the pool.
//!
//! A data request runs on the thread of the connection that sent it, but
//! only while it holds one of `--workers` permits. A request that finds
//! every permit taken waits at the gate, up to `--queue-depth` of them at
//! once; one more is answered `busy` at once. Waiters take permits in
//! arrival order — each draws a ticket, and only the oldest ticket still
//! waiting may take a freed permit — and a waiter whose `--deadline-ms`
//! passes leaves at its deadline without taking one. A [`Permit`]'s
//! `Drop` gives the permit back and wakes the waiters.
//!
//! The gate's books — requests admitted to it (`enqueued`) and requests
//! that took a permit (`dequeued`) — live under its lock, which admission
//! takes anyway.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the gate did with one request.
pub(crate) enum Admission<'g> {
    /// The request holds a permit until the guard drops.
    Run(Permit<'g>),
    /// Every permit was taken and the waiting room was full.
    Busy,
    /// The request waited past its deadline and left without a permit.
    Expired,
}

/// One of the gate's permits, given back on drop.
pub(crate) struct Permit<'g>(&'g Gate);

/// The counts `STATS` and the final report read.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct GateBooks {
    /// Requests admitted to the gate (not shed).
    pub enqueued: usize,
    /// Requests that took a permit.
    pub dequeued: usize,
    /// Requests waiting for a permit now.
    pub waiting: usize,
}

#[derive(Default)]
struct State {
    running: usize,
    /// Tickets of the requests waiting, oldest first.
    waiting: VecDeque<u64>,
    next_ticket: u64,
    enqueued: usize,
    dequeued: usize,
}

/// At most `permits` requests run at once and at most `depth` wait.
pub(crate) struct Gate {
    permits: usize,
    depth: usize,
    state: Mutex<State>,
    turn: Condvar,
}

impl Gate {
    pub(crate) fn new(permits: usize, depth: usize) -> Gate {
        Gate {
            permits,
            depth,
            state: Mutex::new(State::default()),
            turn: Condvar::new(),
        }
    }

    /// Takes a permit, waiting for one in arrival order for at most
    /// `deadline`, or refuses at once when the waiting room is full.
    pub(crate) fn admit(&self, deadline: Option<Duration>) -> Admission<'_> {
        let mut state = self.state.lock().unwrap();
        if state.running < self.permits && state.waiting.is_empty() {
            state.enqueued += 1;
            state.dequeued += 1;
            state.running += 1;
            return Admission::Run(Permit(self));
        }
        if state.waiting.len() >= self.depth {
            return Admission::Busy;
        }
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.waiting.push_back(ticket);
        state.enqueued += 1;
        let expires = deadline.map(|d| Instant::now() + d);
        loop {
            if state.waiting.front() == Some(&ticket) && state.running < self.permits {
                state.waiting.pop_front();
                state.dequeued += 1;
                state.running += 1;
                // A second permit may be free for the next ticket.
                if !state.waiting.is_empty() && state.running < self.permits {
                    self.turn.notify_all();
                }
                return Admission::Run(Permit(self));
            }
            state = match expires {
                None => self.turn.wait(state).unwrap(),
                Some(at) => {
                    let now = Instant::now();
                    if now >= at {
                        let at = state.waiting.iter().position(|&t| t == ticket).unwrap();
                        state.waiting.remove(at);
                        // The next ticket may be the oldest now.
                        if at == 0 {
                            self.turn.notify_all();
                        }
                        return Admission::Expired;
                    }
                    self.turn.wait_timeout(state, at - now).unwrap().0
                }
            };
        }
    }

    pub(crate) fn books(&self) -> GateBooks {
        let state = self.state.lock().unwrap();
        GateBooks {
            enqueued: state.enqueued,
            dequeued: state.dequeued,
            waiting: state.waiting.len(),
        }
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.0.state.lock().unwrap();
        state.running -= 1;
        if !state.waiting.is_empty() {
            self.0.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Waits until `n` requests wait at the gate.
    fn await_waiting(gate: &Gate, n: usize) {
        while gate.books().waiting != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiters_take_freed_permits_in_arrival_order() {
        let gate = Gate::new(1, 16);
        let order = Mutex::new(Vec::new());
        let held = gate.admit(None);
        std::thread::scope(|s| {
            for i in 0..16 {
                let (gate, order) = (&gate, &order);
                s.spawn(move || {
                    let Admission::Run(_permit) = gate.admit(None) else {
                        panic!("waiter {i} was not admitted");
                    };
                    order.lock().unwrap().push(i);
                });
                await_waiting(gate, i + 1);
            }
            drop(held);
        });
        assert_eq!(*order.lock().unwrap(), (0..16).collect::<Vec<_>>());
        let books = gate.books();
        assert_eq!((books.enqueued, books.dequeued, books.waiting), (17, 17, 0));
    }

    #[test]
    fn a_full_waiting_room_refuses_and_an_expired_waiter_leaves_it() {
        let gate = Gate::new(1, 1);
        let _held = gate.admit(None);
        assert!(matches!(
            gate.admit(Some(Duration::from_millis(20))),
            Admission::Expired
        ));
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(matches!(
                    gate.admit(Some(Duration::from_millis(200))),
                    Admission::Expired
                ))
            });
            await_waiting(&gate, 1);
            assert!(matches!(gate.admit(None), Admission::Busy));
        });
        let books = gate.books();
        assert_eq!((books.enqueued, books.dequeued, books.waiting), (3, 1, 0));
    }
}
