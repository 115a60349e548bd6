//! Rank-ordered lock wrappers — the runtime half of the workspace lock
//! hierarchy declared in `LOCK_ORDER.manifest`.
//!
//! Every supervised lock in the workspace (tsdb store shards, streaming
//! engine shards, the scan cache, the ingest engine/quarantine/progress
//! mutexes) is an [`OrderedMutex`] or [`OrderedRwLock`] carrying a
//! [`LockDomain`] rank. The rule the ranks encode is simple: **a thread
//! may only acquire a lock whose rank is strictly greater than every rank
//! it already holds.** Acquisitions that honor the rule cannot participate
//! in a lock-order deadlock cycle.
//!
//! Enforcement is two-layered and shares this one source of truth:
//!
//! - **Statically**, `fbd-lint`'s `lock-order` rule tracks guard scopes
//!   over the token stream and flags same-or-descending acquisitions at
//!   review time (see `crates/lint/src/rules/concurrency.rs`).
//! - **Dynamically**, in builds with `debug_assertions` every acquisition
//!   pushes its rank onto a thread-local held-rank stack and panics on
//!   inversion, so the full test suite doubles as an ordering oracle for
//!   whatever the static approximation cannot see.
//!
//! In release builds the wrappers are transparent newtypes over
//! [`std::sync`] primitives: the rank token is a zero-sized no-op, no
//! thread-local is touched, and the only cost over a bare `Mutex` is the
//! `LockDomain` discriminant stored next to it.
//!
//! Poisoning is recovered everywhere (`PoisonError::into_inner`), matching
//! the semantics the workspace previously got from its `parking_lot` shim:
//! a panicking holder never wedges the lock for other threads, and the
//! protected value stays reachable.

#![forbid(unsafe_code)]

use std::fmt;
use std::sync::{
    Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};

/// One domain of the workspace lock hierarchy. The discriminant **is** the
/// rank: acquisition order must be strictly ascending per thread.
///
/// Mirrors `LOCK_ORDER.manifest` (asserted line-for-line by a unit test);
/// change the two together.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum LockDomain {
    /// fbd-ingest: the validate stage's `Engine` (validator + tenant
    /// quotas). Held while recording quota denials into the quarantine.
    IngestEngine = 10,
    /// fbd-ingest: the shared quarantine registry fed by quota and
    /// NaN-burst violations.
    Quarantine = 20,
    /// fbdetect-core: `StreamingEngine` per-shard state. Held across
    /// `TsdbStore::snapshot_deltas` by the shard-per-core round driver,
    /// hence strictly below [`LockDomain::StoreShard`].
    EngineShard = 30,
    /// fbd-tsdb: `TsdbStore` per-shard series maps.
    StoreShard = 40,
    /// fbd-ingest: the batch-completion progress pair under the drain
    /// condvar (leaf).
    IngestProgress = 60,
}

impl LockDomain {
    /// Every domain, in ascending rank order.
    pub const ALL: [LockDomain; 5] = [
        LockDomain::IngestEngine,
        LockDomain::Quarantine,
        LockDomain::EngineShard,
        LockDomain::StoreShard,
        LockDomain::IngestProgress,
    ];

    /// The numeric rank (the manifest's first column).
    pub const fn rank(self) -> u16 {
        self as u16
    }

    /// The manifest's symbolic name for this domain.
    pub const fn name(self) -> &'static str {
        match self {
            LockDomain::IngestEngine => "ingest-engine",
            LockDomain::Quarantine => "quarantine",
            LockDomain::EngineShard => "engine-shard",
            LockDomain::StoreShard => "store-shard",
            LockDomain::IngestProgress => "ingest-progress",
        }
    }
}

fn recover<T>(result: Result<T, PoisonError<T>>) -> T {
    match result {
        Ok(v) => v,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[cfg(debug_assertions)]
mod validator {
    //! The debug-only held-rank stack. One `Vec<LockDomain>` per thread;
    //! acquisition asserts strict ascent, drop removes the topmost entry
    //! of the released domain (guards of one domain are released LIFO in
    //! practice, but out-of-order drops stay correct).

    use super::LockDomain;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<LockDomain>> = const { RefCell::new(Vec::new()) };
    }

    /// Proof of a validated acquisition; popping happens on drop.
    #[derive(Debug)]
    pub(crate) struct RankToken {
        domain: LockDomain,
    }

    impl RankToken {
        pub(crate) fn acquire(domain: LockDomain) -> Self {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(&top) = held.iter().max() {
                    assert!(
                        top.rank() < domain.rank(),
                        "lock-order inversion: acquiring `{}` (rank {}) while holding `{}` \
                         (rank {}); held stack: {:?} — see LOCK_ORDER.manifest",
                        domain.name(),
                        domain.rank(),
                        top.name(),
                        top.rank(),
                        held.iter().map(|d| d.name()).collect::<Vec<_>>(),
                    );
                }
                held.push(domain);
            });
            RankToken { domain }
        }
    }

    impl Drop for RankToken {
        fn drop(&mut self) {
            HELD.with(|held| {
                let mut held = held.borrow_mut();
                if let Some(pos) = held.iter().rposition(|&d| d == self.domain) {
                    held.remove(pos);
                }
            });
        }
    }

    /// The caller's current held-rank stack (test introspection).
    pub fn held_ranks() -> Vec<LockDomain> {
        HELD.with(|held| held.borrow().clone())
    }
}

#[cfg(not(debug_assertions))]
mod validator {
    //! Release builds: the token is a ZST and acquisition is a no-op, so
    //! the wrappers compile down to the bare std primitives.

    use super::LockDomain;

    #[derive(Debug)]
    pub(crate) struct RankToken;

    impl RankToken {
        #[inline(always)]
        pub(crate) fn acquire(_domain: LockDomain) -> Self {
            RankToken
        }
    }

    /// Release builds track nothing; always empty.
    pub fn held_ranks() -> Vec<LockDomain> {
        Vec::new()
    }
}

pub use validator::held_ranks;
use validator::RankToken;

/// A mutex that participates in the workspace lock hierarchy.
///
/// API-compatible with the workspace's previous `parking_lot` shim:
/// `lock()` returns a guard directly (poisoning is recovered, never
/// surfaced), plus `get_mut`/`into_inner` for exclusive access.
pub struct OrderedMutex<T: ?Sized> {
    domain: LockDomain,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` at the given rank.
    pub fn new(domain: LockDomain, value: T) -> Self {
        OrderedMutex { domain, inner: Mutex::new(value) }
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> OrderedMutex<T> {
    /// This lock's domain in the hierarchy.
    pub fn domain(&self) -> LockDomain {
        self.domain
    }

    /// Acquires the lock, validating rank order in debug builds.
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = RankToken::acquire(self.domain);
        OrderedMutexGuard { guard: recover(self.inner.lock()), _token: token }
    }

    /// Exclusive access without locking (`&mut self` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("domain", &self.domain)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard for [`OrderedMutex`]; releases the lock, then pops the rank.
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T: ?Sized> {
    // Field order is load-bearing: `guard` (the lock) must drop before
    // `_token` (the rank-stack entry), so a blocked acquirer of the same
    // rank on another thread never observes a stale held rank here.
    guard: MutexGuard<'a, T>,
    _token: RankToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

impl<'a, T> OrderedMutexGuard<'a, T> {
    /// Blocks on `condvar`, releasing the lock while parked and
    /// re-acquiring it before returning — `Condvar::wait` with the
    /// ordered guard kept intact (the held rank does not change: waiting
    /// on a condvar is not an acquisition).
    pub fn wait(self, condvar: &Condvar) -> OrderedMutexGuard<'a, T> {
        let OrderedMutexGuard { guard, _token } = self;
        OrderedMutexGuard { guard: recover(condvar.wait(guard)), _token }
    }
}

/// A reader-writer lock that participates in the workspace lock hierarchy.
///
/// Both read and write acquisitions carry the domain's rank: a read guard
/// held while acquiring an equal-or-lower rank is just as much an
/// inversion as a write guard (readers block writers, so the deadlock
/// cycle exists either way). Recursive same-shard reads are likewise
/// rejected in debug builds — they deadlock against a queued writer.
pub struct OrderedRwLock<T: ?Sized> {
    domain: LockDomain,
    inner: RwLock<T>,
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` at the given rank.
    pub fn new(domain: LockDomain, value: T) -> Self {
        OrderedRwLock { domain, inner: RwLock::new(value) }
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        recover(self.inner.into_inner())
    }
}

impl<T: ?Sized> OrderedRwLock<T> {
    /// This lock's domain in the hierarchy.
    pub fn domain(&self) -> LockDomain {
        self.domain
    }

    /// Acquires shared read access, validating rank order in debug builds.
    pub fn read(&self) -> OrderedRwLockReadGuard<'_, T> {
        let token = RankToken::acquire(self.domain);
        OrderedRwLockReadGuard { guard: recover(self.inner.read()), _token: token }
    }

    /// Acquires exclusive write access, validating rank order in debug
    /// builds.
    pub fn write(&self) -> OrderedRwLockWriteGuard<'_, T> {
        let token = RankToken::acquire(self.domain);
        OrderedRwLockWriteGuard { guard: recover(self.inner.write()), _token: token }
    }

    /// Exclusive access without locking (`&mut self` proves uniqueness).
    pub fn get_mut(&mut self) -> &mut T {
        recover(self.inner.get_mut())
    }
}

impl<T: fmt::Debug> fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("domain", &self.domain)
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard for [`OrderedRwLock`].
#[derive(Debug)]
pub struct OrderedRwLockReadGuard<'a, T: ?Sized> {
    // Same drop-order contract as `OrderedMutexGuard`.
    guard: RwLockReadGuard<'a, T>,
    _token: RankToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockReadGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

/// Exclusive guard for [`OrderedRwLock`].
#[derive(Debug)]
pub struct OrderedRwLockWriteGuard<'a, T: ?Sized> {
    // Same drop-order contract as `OrderedMutexGuard`.
    guard: RwLockWriteGuard<'a, T>,
    _token: RankToken,
}

impl<T: ?Sized> std::ops::Deref for OrderedRwLockWriteGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T: ?Sized> std::ops::DerefMut for OrderedRwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `LockDomain` and `LOCK_ORDER.manifest` must agree line for line:
    /// same domains, same ranks, same ascending order. This is the "one
    /// source of truth" contract between the runtime validator and the
    /// static lint.
    #[test]
    fn manifest_matches_lock_domains() {
        let manifest = include_str!("../../../LOCK_ORDER.manifest");
        let declared: Vec<(u16, String)> = manifest
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let mut fields = l.split_whitespace();
                let rank: u16 = fields
                    .next()
                    .and_then(|r| r.parse().ok())
                    .unwrap_or_else(|| panic!("bad manifest rank in line: {l}"));
                let name = fields
                    .next()
                    .unwrap_or_else(|| panic!("missing domain name in line: {l}"))
                    .to_string();
                (rank, name)
            })
            .collect();
        let in_code: Vec<(u16, String)> = LockDomain::ALL
            .iter()
            .map(|d| (d.rank(), d.name().to_string()))
            .collect();
        assert_eq!(declared, in_code, "LOCK_ORDER.manifest and LockDomain disagree");
        let mut ranks: Vec<u16> = declared.iter().map(|(r, _)| *r).collect();
        let sorted = {
            let mut s = ranks.clone();
            s.sort_unstable();
            s.dedup();
            s
        };
        assert_eq!(ranks.len(), sorted.len(), "manifest ranks must be unique");
        ranks.sort_unstable();
        assert_eq!(
            ranks,
            declared.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            "manifest ranks must ascend"
        );
    }

    #[test]
    fn ascending_acquisition_is_permitted() {
        let a = OrderedMutex::new(LockDomain::IngestEngine, 1u32);
        let b = OrderedRwLock::new(LockDomain::StoreShard, 2u32);
        let c = OrderedMutex::new(LockDomain::IngestProgress, 3u32);
        let ga = a.lock();
        let gb = b.read();
        let gc = c.lock();
        assert_eq!((*ga, *gb, *gc), (1, 2, 3));
        drop(gc);
        drop(gb);
        drop(ga);
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn sequential_reacquisition_is_permitted() {
        let a = OrderedMutex::new(LockDomain::StoreShard, 0u32);
        for _ in 0..3 {
            let mut g = a.lock();
            *g += 1;
        }
        assert_eq!(*a.lock(), 3);
    }

    #[cfg(debug_assertions)]
    #[test]
    fn descending_acquisition_panics_in_debug() {
        let outcome = std::panic::catch_unwind(|| {
            let hi = OrderedMutex::new(LockDomain::StoreShard, ());
            let lo = OrderedMutex::new(LockDomain::EngineShard, ());
            let _g_hi = hi.lock();
            let _g_lo = lo.lock(); // inversion: 30 while holding 40
        });
        assert!(outcome.is_err(), "inversion must panic under debug_assertions");
        assert!(held_ranks().is_empty(), "unwinding must pop the held-rank stack");
    }

    #[cfg(debug_assertions)]
    #[test]
    fn equal_rank_acquisition_panics_in_debug() {
        let outcome = std::panic::catch_unwind(|| {
            let a = OrderedRwLock::new(LockDomain::StoreShard, ());
            let b = OrderedRwLock::new(LockDomain::StoreShard, ());
            let _ga = a.read();
            let _gb = b.read(); // equal rank: readers still deadlock via a queued writer
        });
        assert!(outcome.is_err(), "equal-rank nesting must panic under debug_assertions");
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn condvar_wait_keeps_guard_and_rank() {
        use std::sync::Condvar;
        let pair = std::sync::Arc::new((
            OrderedMutex::new(LockDomain::IngestProgress, false),
            Condvar::new(),
        ));
        let waker = {
            let pair = std::sync::Arc::clone(&pair);
            std::thread::spawn(move || {
                let (lock, cv) = &*pair;
                *lock.lock() = true;
                cv.notify_all();
            })
        };
        let (lock, cv) = &*pair;
        let mut g = lock.lock();
        while !*g {
            g = g.wait(cv);
        }
        drop(g);
        waker.join().map_err(|_| "waker panicked").unwrap();
        assert!(held_ranks().is_empty());
    }

    #[test]
    fn poisoned_locks_recover_the_value() {
        let m = std::sync::Arc::new(OrderedMutex::new(LockDomain::IngestProgress, 7u32));
        let rw = std::sync::Arc::new(OrderedRwLock::new(LockDomain::StoreShard, 9u32));
        {
            let m = std::sync::Arc::clone(&m);
            let rw = std::sync::Arc::clone(&rw);
            let _ = std::thread::spawn(move || {
                let _gm = m.lock();
                let _gw = rw.write();
                panic!("poison both");
            })
            .join();
        }
        assert_eq!(*m.lock(), 7, "poisoned OrderedMutex must still serve its value");
        assert_eq!(*rw.read(), 9, "poisoned OrderedRwLock must still serve its value");
    }
}
