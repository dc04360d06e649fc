//! Snapshot publication for the serve-while-ingesting loop.
//!
//! The audit serving architecture is read-mostly: one writer ingests
//! batches and periodically publishes an immutable [`AuditSnapshot`];
//! many readers audit against whatever snapshot is current. The handoff
//! used to be an ad-hoc `Mutex<Arc<AuditSnapshot>>` each caller wired up
//! by hand; [`PublicationSlot`] standardizes it as an epoch-stamped slot
//! in the style of `arc-swap`, built from safe `std` primitives only
//! (this workspace forbids `unsafe`):
//!
//! - an `AtomicU64` **epoch** counting *completed* publications, advanced
//!   with `fetch_max(AcqRel)` only after the new value is in place, and
//! - a mutex over the `(epoch, Arc<T>)` pair, held for a counter bump and
//!   a pointer store on publish, and for a pointer clone on load — never
//!   across snapshot construction or an audit.
//!
//! Readers that track the epoch they already serve use
//! [`load_if_newer`](PublicationSlot::load_if_newer) and skip the mutex
//! entirely on the (overwhelmingly common) nothing-new path: one
//! `Acquire` load of the atomic. Because the atomic trails the
//! mutex-protected pair, a hit is *guaranteed* to find something strictly
//! newer — that ordering claim is not just argued in this comment: the
//! algorithm is modeled step-by-step in `gnn4ip-analysis::models` and
//! every bounded interleaving is exhaustively explored by the loom-lite
//! checker in CI (`ci.sh --stage analysis`), proving no torn reads,
//! per-reader epoch monotonicity, publication visibility, and writer
//! progress.
//!
//! # The single publication path
//!
//! Every snapshot a reader can observe goes through the pipeline's slot:
//! [`AuditPipeline::publish`](crate::AuditPipeline::publish) captures the
//! current state and publishes it, and
//! [`AuditPipeline::snapshot`](crate::AuditPipeline::snapshot) publishes
//! the same capture before returning it to the caller. There is no side
//! door that constructs an [`AuditSnapshot`] without the slot seeing it,
//! so a reader polling [`load_if_newer`](PublicationSlot::load_if_newer)
//! can never be staler than *any* snapshot in circulation, and the epoch
//! totally orders everything ever served.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An epoch-stamped publication of a value, returned by
/// [`PublicationSlot::load`] / [`load_if_newer`](PublicationSlot::load_if_newer).
///
/// The epoch is the publication's sequence number (1 for the first
/// publish); readers keep the epoch of what they serve and pass it back
/// to `load_if_newer` to skip re-loading an unchanged value.
#[must_use = "a loaded publication does nothing unless its value is served"]
#[derive(Debug, Clone)]
pub struct Publication<T> {
    epoch: u64,
    value: Arc<T>,
}

impl<T> Publication<T> {
    /// Sequence number of this publication (strictly increasing across
    /// publishes to one slot, starting at 1).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The published value.
    pub fn value(&self) -> &Arc<T> {
        &self.value
    }
}

impl<T> std::ops::Deref for Publication<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// The slot's mutex-protected half: the epoch/value pair, always updated
/// together under the lock so no reader can observe one without the
/// other.
#[derive(Debug)]
struct Inner<T> {
    /// Epoch of `value`. Invariant: `>=` the atomic epoch at all times —
    /// the atomic is only advanced (via `fetch_max`) *after* this pair is
    /// written, so an atomic observation of `e` promises the slot already
    /// holds a publication stamped `>= e`.
    epoch: u64,
    value: Option<Arc<T>>,
}

/// An epoch-stamped, arc-swap-style slot for publishing immutable values
/// from a writer to concurrent readers.
///
/// See the module-level docs in `serve.rs` for the algorithm and the
/// model-checking story. In short: [`publish`](PublicationSlot::publish) is O(1) under a
/// briefly-held mutex, [`load`](PublicationSlot::load) clones an `Arc`
/// under the same mutex, and [`load_if_newer`](PublicationSlot::load_if_newer)
/// answers the nothing-new case with a single lock-free atomic load.
///
/// # Examples
///
/// ```
/// use gnn4ip_core::PublicationSlot;
///
/// let slot = PublicationSlot::new();
/// assert!(slot.load().is_none());
/// assert_eq!(slot.publish("v1"), 1);
/// let p = slot.load().expect("published");
/// assert_eq!((p.epoch(), **p.value()), (1, "v1"));
/// // nothing newer than what we hold: one atomic load, no lock
/// assert!(slot.load_if_newer(p.epoch()).is_none());
/// assert_eq!(slot.publish("v2"), 2);
/// let p2 = slot.load_if_newer(p.epoch()).expect("newer value");
/// assert_eq!((p2.epoch(), **p2.value()), (2, "v2"));
/// ```
#[derive(Debug)]
pub struct PublicationSlot<T> {
    /// Completed publications; trails `inner.epoch` (see [`Inner`]).
    epoch: AtomicU64,
    inner: Mutex<Inner<T>>,
}

impl<T> Default for PublicationSlot<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> PublicationSlot<T> {
    /// An empty slot: epoch 0, nothing published.
    pub fn new() -> Self {
        Self {
            epoch: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                epoch: 0,
                value: None,
            }),
        }
    }

    /// A slot born holding `value` at epoch 1.
    pub fn with_initial(value: T) -> Self {
        let slot = Self::new();
        slot.publish(value);
        slot
    }

    /// Publishes `value`, replacing whatever the slot held, and returns
    /// the new publication's epoch. Safe to call from multiple writers:
    /// epochs are claimed under the mutex and the atomic advances by
    /// `fetch_max`, so a slow writer's store can never regress it.
    ///
    /// The lock is held for a counter bump and a pointer store — never
    /// while constructing `value`.
    pub fn publish(&self, value: T) -> u64 {
        let epoch = {
            let mut inner = self.lock();
            inner.epoch += 1;
            inner.value = Some(Arc::new(value));
            inner.epoch
        };
        // only now does the publication count as complete; fetch_max keeps
        // concurrently-retiring writers from moving the count backwards
        self.epoch.fetch_max(epoch, Ordering::AcqRel);
        epoch
    }

    /// The current publication, or `None` if nothing was ever published.
    /// Holds the mutex just long enough to clone the `Arc`.
    #[must_use = "loading a publication has no effect besides its return value"]
    pub fn load(&self) -> Option<Publication<T>> {
        let inner = self.lock();
        inner.value.as_ref().map(|value| Publication {
            epoch: inner.epoch,
            value: Arc::clone(value),
        })
    }

    /// [`load`](Self::load), but only if a publication newer than `seen`
    /// has completed — otherwise `None`, decided by a single lock-free
    /// `Acquire` load. A `Some` result is always stamped strictly newer
    /// than `seen`; readers serving epoch `e` poll with
    /// `load_if_newer(e)` and touch the mutex only when there is
    /// genuinely something to pick up.
    #[must_use = "loading a publication has no effect besides its return value"]
    pub fn load_if_newer(&self, seen: u64) -> Option<Publication<T>> {
        if self.epoch.load(Ordering::Acquire) <= seen {
            return None;
        }
        // the pair is written before the atomic advances, so the slot now
        // holds an epoch >= the one we just observed > seen
        self.load()
    }

    /// Epoch of the newest *completed* publication (0 = none yet). The
    /// slot may concurrently hold an in-flight newer one.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A poisoned slot mutex only means a panic happened while the pair
    /// was locked; both fields are plain stores that cannot be left
    /// half-written, so recovery is always sound.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_slot_loads_nothing() {
        let slot: PublicationSlot<u32> = PublicationSlot::new();
        assert!(slot.load().is_none());
        assert!(slot.load_if_newer(0).is_none());
        assert_eq!(slot.epoch(), 0);
    }

    #[test]
    fn epochs_count_publications() {
        let slot = PublicationSlot::new();
        for i in 1..=5u64 {
            assert_eq!(slot.publish(i), i);
            assert_eq!(slot.epoch(), i);
            let p = slot.load().expect("published");
            assert_eq!(p.epoch(), i);
            assert_eq!(**p.value(), i);
        }
    }

    #[test]
    fn with_initial_starts_at_epoch_one() {
        let slot = PublicationSlot::with_initial("x");
        let p = slot.load().expect("initial value");
        assert_eq!(p.epoch(), 1);
        assert_eq!(*p, "x");
    }

    #[test]
    fn load_if_newer_skips_seen_epochs() {
        let slot = PublicationSlot::new();
        slot.publish(10u32);
        slot.publish(20u32);
        assert!(slot.load_if_newer(2).is_none());
        assert!(slot.load_if_newer(3).is_none());
        let p = slot.load_if_newer(1).expect("epoch 2 is newer than 1");
        assert_eq!((p.epoch(), **p.value()), (2, 20));
    }

    #[test]
    fn publications_outlive_replacement() {
        let slot = PublicationSlot::new();
        slot.publish(vec![1, 2, 3]);
        let held = slot.load().expect("v1");
        slot.publish(vec![4, 5]);
        // the reader's Arc still serves the old value unchanged
        assert_eq!(*held.value().as_slice(), [1, 2, 3]);
        assert_eq!(*slot.load().expect("v2").value().as_slice(), [4, 5]);
    }

    #[test]
    fn concurrent_publishers_and_pollers_stay_monotone() {
        let slot = Arc::new(PublicationSlot::new());
        std::thread::scope(|scope| {
            for w in 0..2u64 {
                let slot = Arc::clone(&slot);
                scope.spawn(move || {
                    for i in 0..50 {
                        slot.publish(w * 1000 + i);
                    }
                });
            }
            for _ in 0..4 {
                let slot = Arc::clone(&slot);
                scope.spawn(move || {
                    let mut seen = 0u64;
                    for _ in 0..200 {
                        if let Some(p) = slot.load_if_newer(seen) {
                            assert!(p.epoch() > seen, "load_if_newer returned stale epoch");
                            seen = p.epoch();
                        }
                    }
                });
            }
        });
        assert_eq!(slot.epoch(), 100);
        assert_eq!(slot.load().expect("final").epoch(), 100);
    }
}
