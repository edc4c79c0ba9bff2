//! Poison-ignoring lock helpers shared across the crate.
//!
//! The service's invariants are all "counters and maps stay usable", not
//! "no observer sees a half-applied update across a panic", so a panic
//! while holding a lock should pass the lock on rather than poison every
//! later request. Centralized here so the policy lives in one place.

use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks a mutex, ignoring poisoning.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
