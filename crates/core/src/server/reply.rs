//! One submission's reply slot: the shared cell a shard fills with the
//! [`ServerResponse`] and a [`ResponseHandle`](super::ResponseHandle)
//! waits on.
//!
//! A slot is one allocation: an `Arc` holding a mutex-guarded state and
//! a condvar, about 200 B, where a bounded channel costs about 1 KB
//! resident, and under a burst every admitted request holds one. The
//! sending half is a [`Reply`]: sending consumes it, and dropping it
//! unsent — a shard that panicked mid-step, a lane dropped with jobs
//! still queued — marks the slot lost, so the waiter gets a typed error
//! instead of blocking forever.

use super::ServerResponse;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// What a slot holds.
enum State {
    /// No outcome yet.
    Pending,
    /// The shard delivered the response.
    Ready(ServerResponse),
    /// The [`Reply`] was dropped unsent.
    Lost,
}

struct Shared {
    state: Mutex<State>,
    filled: Condvar,
}

impl Shared {
    /// The state, recovered from a poisoned lock: nothing runs under
    /// it that could leave a torn value behind.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fresh slot's sending and waiting halves.
pub(super) fn slot() -> (Reply, ReplySlot) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Pending),
        filled: Condvar::new(),
    });
    (Reply(Some(Arc::clone(&shared))), ReplySlot(shared))
}

/// The sending half: fills the slot exactly once, by
/// [`send`](Self::send) or, unsent, by its drop.
pub(super) struct Reply(Option<Arc<Shared>>);

impl Reply {
    /// Delivers the response and wakes the waiter. A waiter that has
    /// already gone is not an error: the response is dropped with the
    /// slot.
    pub(super) fn send(mut self, response: ServerResponse) {
        self.fill(State::Ready(response));
    }

    fn fill(&mut self, outcome: State) {
        if let Some(shared) = self.0.take() {
            *shared.lock() = outcome;
            shared.filled.notify_one();
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        self.fill(State::Lost);
    }
}

/// The waiting half, owned by a [`ResponseHandle`](super::ResponseHandle).
pub(super) struct ReplySlot(Arc<Shared>);

impl ReplySlot {
    /// Blocks until the slot is filled: the response, or `None` when
    /// the [`Reply`] was dropped unsent.
    pub(super) fn wait(self) -> Option<ServerResponse> {
        let state = self
            .0
            .filled
            .wait_while(self.0.lock(), |s| matches!(s, State::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        Self::take(state)
    }

    /// [`wait`](Self::wait) for at most `timeout`; the slot back when it
    /// is still pending.
    pub(super) fn wait_timeout(self, timeout: Duration) -> Result<Option<ServerResponse>, Self> {
        let (state, _) = self
            .0
            .filled
            .wait_timeout_while(self.0.lock(), timeout, |s| matches!(s, State::Pending))
            .unwrap_or_else(PoisonError::into_inner);
        if matches!(*state, State::Pending) {
            drop(state);
            return Err(self);
        }
        Ok(Self::take(state))
    }

    fn take(mut state: MutexGuard<'_, State>) -> Option<ServerResponse> {
        match std::mem::replace(&mut *state, State::Lost) {
            State::Ready(response) => Some(response),
            State::Pending | State::Lost => None,
        }
    }
}

impl std::fmt::Debug for ReplySlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplySlot").finish_non_exhaustive()
    }
}
