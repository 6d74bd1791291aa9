//! Cooperative cancellation for long-running work.
//!
//! A [`CancelToken`] combines an optional shared **cancel flag** (tripped
//! explicitly, e.g. by a server's shutdown kill switch) with an optional
//! **deadline** (a wall-clock instant after which the token reports
//! cancelled).  Work that may run for a long time polls
//! [`CancelToken::is_cancelled`] at natural checkpoints — the query engine
//! checks at every `SearchUnit` phase boundary — and unwinds with a typed
//! error carrying whatever partial accounting it has, so aborted work stays
//! observable instead of silently holding locks.
//!
//! Tokens are cheap to clone: the flag is an `Arc<AtomicBool>` shared by
//! every clone, and the deadline is a `Copy` instant.  Deriving a
//! tighter-deadline child with [`CancelToken::with_deadline`] keeps the
//! parent's flag, so tripping the parent (shutdown) cancels every derived
//! per-request token at once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative cancellation token: an optional shared flag plus an
/// optional deadline.  See the module docs for the polling contract.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    /// Explicit-cancel flag, shared by every clone of this token.  `None`
    /// for tokens that can only expire by deadline (or never).
    flag: Option<Arc<AtomicBool>>,
    /// Instant after which the token reports cancelled.
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that is never cancelled.  Allocation-free: use this as the
    /// "no cancellation" argument on hot paths.
    pub fn never() -> Self {
        CancelToken {
            flag: None,
            deadline: None,
        }
    }

    /// A token with a fresh cancel flag and no deadline; trip it with
    /// [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A token that reports cancelled once `deadline` has passed.
    pub fn at(deadline: Instant) -> Self {
        CancelToken {
            flag: None,
            deadline: Some(deadline),
        }
    }

    /// A token that reports cancelled `timeout` from now.
    pub fn after(timeout: Duration) -> Self {
        Self::at(Instant::now() + timeout)
    }

    /// Derives a child sharing this token's cancel flag whose deadline is
    /// the *tighter* of this token's and `deadline`.  Tripping the parent
    /// flag cancels the child (and vice versa — the flag is shared).
    pub fn with_deadline(&self, deadline: Instant) -> CancelToken {
        CancelToken {
            flag: self.flag.clone(),
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(deadline),
                None => deadline,
            }),
        }
    }

    /// Trips the cancel flag.  A no-op for tokens without one
    /// ([`CancelToken::never`] / [`CancelToken::at`]); every clone sharing
    /// the flag observes the cancellation.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Returns `true` once the flag has been tripped or the deadline has
    /// passed.  Cheap enough to poll at per-round granularity.
    pub fn is_cancelled(&self) -> bool {
        if let Some(flag) = &self.flag {
            if flag.load(Ordering::SeqCst) {
                return true;
            }
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// The token's deadline, if it has one.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_is_never_cancelled() {
        let t = CancelToken::never();
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
        assert!(t.deadline().is_none());
    }

    #[test]
    fn explicit_cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn past_deadline_reports_cancelled() {
        let t = CancelToken::at(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::after(Duration::from_secs(3600));
        assert!(!far.is_cancelled());
    }

    #[test]
    fn with_deadline_keeps_the_tighter_bound_and_the_parent_flag() {
        let parent = CancelToken::new();
        let near = Instant::now() + Duration::from_secs(1);
        let far = near + Duration::from_secs(60);
        let child = parent.with_deadline(far).with_deadline(near);
        assert_eq!(child.deadline(), Some(near));
        // Tightening never loosens.
        let child2 = parent.with_deadline(near).with_deadline(far);
        assert_eq!(child2.deadline(), Some(near));
        assert!(!child.is_cancelled());
        parent.cancel();
        assert!(child.is_cancelled(), "parent flag must propagate");
    }
}
