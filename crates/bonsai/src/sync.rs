//! Synchronization-primitive facade: `std` in normal builds, the
//! [`loomette`] model checker's instrumented types under `--cfg loom` —
//! the same pattern as `rcukit`'s internal `sync` module, so the loom test
//! tier explores the *real* range-lock and tree-commit code.
//!
//! The shimmed surface is what the writer path touches: the range-lock
//! table's mutex + condvar, the tree's root pointer (CAS-published),
//! length counter and `shared` flag, the arena's list heads, and the
//! writer mutex behind the tree's public single-writer API.
//!
//! [`loomette`]: https://docs.rs/loom (API-compatible subset, vendored
//! in-tree as `crates/loomette` because this build environment is offline)

#[cfg(not(loom))]
pub(crate) use std::sync::{Condvar, Mutex, MutexGuard};

#[cfg(not(loom))]
pub(crate) mod atomic {
    pub(crate) use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
}

#[cfg(loom)]
pub(crate) use loomette::sync::{Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub(crate) mod atomic {
    pub(crate) use loomette::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize};
}
