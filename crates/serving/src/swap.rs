//! Epoch-based atomic snapshot publisher — the serving hot-swap primitive.
//!
//! [`Swap<T>`] holds the currently-published `Arc<T>` behind a monotonically
//! increasing epoch counter. Publishing ([`Swap::store`]) installs a new
//! `Arc` and bumps the epoch; readers hold a [`SwapReader`] handle that
//! caches the `Arc` and revalidates it with a **single atomic load** per
//! access. In the steady state (no publish in flight) readers touch no lock,
//! share no cache line with each other, and never block a publisher —
//! requests served concurrently with a publish simply finish on the old
//! snapshot while new requests pick up the new one.
//!
//! Torn reads are impossible by construction: everything that must stay
//! consistent (model version *and* parameters) lives inside one `Arc<T>`
//! that is swapped as a unit, never mutated in place.
//!
//! Design note: the classic alternative is an `ArcSwap`-style
//! `AtomicPtr<T>` whose readers bump the strong count through a raw
//! pointer. That needs `unsafe` (`Arc::from_raw`/`increment_strong_count`)
//! and a deferred-reclamation protocol; this workspace denies `unsafe_code`,
//! so the same reader-side cost (one `Ordering::Acquire` load) is obtained
//! with an epoch counter plus a per-reader cached clone, and the mutex is
//! only ever taken on publish and on the first read after a publish.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// An atomically publishable snapshot cell. Cheap to read through a
/// [`SwapReader`]; see the module docs for the concurrency model.
#[derive(Debug)]
pub struct Swap<T> {
    /// Bumped after every install; readers revalidate against this.
    epoch: AtomicU64,
    /// The current snapshot. Locked only by publishers and by readers
    /// refreshing a stale cache — never on the steady-state read path.
    current: Mutex<Arc<T>>,
}

impl<T> Swap<T> {
    /// Create a cell holding `initial` at epoch 0.
    pub fn new(initial: Arc<T>) -> Self {
        Self { epoch: AtomicU64::new(0), current: Mutex::new(initial) }
    }

    /// Publish a new snapshot. A single pointer-sized store makes it visible;
    /// in-flight readers finish on the snapshot they already hold.
    pub fn store(&self, next: Arc<T>) {
        let mut slot = self.current.lock().expect("swap publisher poisoned");
        *slot = next;
        // Bump while holding the lock so a reader that observes the new
        // epoch always finds the matching snapshot in the slot.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Publish a snapshot **derived from the current one**: `f` runs under
    /// the publish lock with the currently-installed `Arc`, and its result
    /// is installed atomically. This is the incremental-republish primitive:
    /// concurrent publishers are serialised (each sees its predecessor's
    /// output, so no delta is lost to a lost-update race), while steady-state
    /// readers are unaffected — they only take the lock on their first read
    /// after the epoch bump, exactly as with [`Swap::store`].
    ///
    /// `f` should be quick relative to the publish cadence, but readers
    /// never wait on it: they keep serving their cached snapshot until the
    /// new epoch is visible.
    pub fn update<F: FnOnce(&Arc<T>) -> Arc<T>>(&self, f: F) {
        let mut slot = self.current.lock().expect("swap publisher poisoned");
        let next = f(&slot);
        *slot = next;
        self.epoch.fetch_add(1, Ordering::Release);
    }

    /// Clone the current snapshot (slow path: takes the publish lock).
    /// Request loops should use [`Swap::reader`] instead.
    pub fn load_full(&self) -> Arc<T> {
        Arc::clone(&self.current.lock().expect("swap publisher poisoned"))
    }

    /// Number of publishes since construction.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Create a cached read handle for one worker/thread.
    pub fn reader(&self) -> SwapReader<'_, T> {
        SwapReader { swap: self, seen_epoch: self.epoch(), cached: self.load_full() }
    }
}

/// A per-worker read handle over a [`Swap`]. [`SwapReader::get`] costs one
/// atomic load unless a publish happened since the last call, in which case
/// the cached `Arc` is refreshed under the publish lock.
#[derive(Debug)]
pub struct SwapReader<'a, T> {
    swap: &'a Swap<T>,
    seen_epoch: u64,
    cached: Arc<T>,
}

impl<T> SwapReader<'_, T> {
    /// The current snapshot, revalidated against the publisher's epoch.
    pub fn get(&mut self) -> &Arc<T> {
        let now = self.swap.epoch.load(Ordering::Acquire);
        if now != self.seen_epoch {
            self.cached = self.swap.load_full();
            // Record the epoch read *before* the clone. The cloned snapshot
            // is at least that new (slot and epoch are updated under the
            // same lock), so at worst a publish that raced past the clone
            // costs one extra refresh on the next `get` — recording the
            // post-clone epoch instead could mark a stale snapshot current
            // and serve it forever.
            self.seen_epoch = now;
        }
        &self.cached
    }

    /// The epoch of the snapshot this reader currently caches.
    pub fn seen_epoch(&self) -> u64 {
        self.seen_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn store_then_load_returns_new_snapshot() {
        let swap = Swap::new(Arc::new(1u64));
        assert_eq!(*swap.load_full(), 1);
        assert_eq!(swap.epoch(), 0);
        swap.store(Arc::new(2));
        assert_eq!(*swap.load_full(), 2);
        assert_eq!(swap.epoch(), 1);
    }

    #[test]
    fn reader_caches_until_publish() {
        let swap = Swap::new(Arc::new(10u64));
        let mut r = swap.reader();
        assert_eq!(**r.get(), 10);
        // Same epoch: get() must return the same Arc allocation.
        let first = Arc::clone(r.get());
        assert!(Arc::ptr_eq(&first, r.get()));
        swap.store(Arc::new(11));
        assert_eq!(**r.get(), 11);
        assert!(!Arc::ptr_eq(&first, r.get()));
    }

    #[test]
    fn old_snapshot_is_dropped_once_unreferenced() {
        let first = Arc::new(5u64);
        let swap = Swap::new(Arc::clone(&first));
        let mut r = swap.reader();
        r.get();
        swap.store(Arc::new(6));
        // The reader still pins the old snapshot...
        assert!(Arc::strong_count(&first) >= 2);
        // ...until it revalidates; then only our local handle remains.
        r.get();
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn update_derives_from_current_and_bumps_epoch() {
        let swap = Swap::new(Arc::new(10u64));
        swap.update(|cur| Arc::new(**cur + 5));
        assert_eq!(*swap.load_full(), 15);
        assert_eq!(swap.epoch(), 1);
        // A reader sees the derived snapshot like any other publish.
        let mut r = swap.reader();
        assert_eq!(**r.get(), 15);
        swap.update(|cur| Arc::new(**cur * 2));
        assert_eq!(**r.get(), 30);
        assert_eq!(r.seen_epoch(), 2);
    }

    /// Interleaved `update` publishers compose: every increment lands
    /// exactly once because each closure runs on its predecessor's output
    /// under the publish lock (no lost updates).
    #[test]
    fn concurrent_updates_never_lose_a_delta() {
        let swap = Arc::new(Swap::new(Arc::new(0u64)));
        const PER_THREAD: u64 = 500;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        swap.update(|cur| Arc::new(**cur + 1));
                    }
                });
            }
        });
        assert_eq!(*swap.load_full(), 4 * PER_THREAD);
        assert_eq!(swap.epoch(), 4 * PER_THREAD);
    }

    /// Hammer the cell: four readers spin on `get` while the publisher
    /// stores a few thousand snapshots. Every observed snapshot must be
    /// internally consistent (the two fields are written as a pair), and
    /// every reader must eventually observe the final epoch.
    #[test]
    fn concurrent_publish_never_tears() {
        #[derive(Debug)]
        struct Snap {
            version: u64,
            shadow: u64, // always version * 3 + 1, checked by readers
        }
        let swap = Arc::new(Swap::new(Arc::new(Snap { version: 0, shadow: 1 })));
        let stop = Arc::new(AtomicBool::new(false));
        const PUBLISHES: u64 = 2_000;
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let swap = Arc::clone(&swap);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut reader = swap.reader();
                    let mut last_seen = 0;
                    while !stop.load(Ordering::Acquire) {
                        let snap = reader.get();
                        assert_eq!(snap.shadow, snap.version * 3 + 1, "torn snapshot");
                        assert!(snap.version >= last_seen, "version went backwards");
                        last_seen = snap.version;
                    }
                    // After the publisher is done, one more get must see the
                    // final snapshot.
                    assert_eq!(reader.get().version, PUBLISHES);
                });
            }
            for v in 1..=PUBLISHES {
                swap.store(Arc::new(Snap { version: v, shadow: v * 3 + 1 }));
            }
            stop.store(true, Ordering::Release);
        });
        assert_eq!(swap.epoch(), PUBLISHES);
    }
}
