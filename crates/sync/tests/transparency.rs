//! Behavior-transparency properties: `OrderedMutex`/`OrderedRwLock` must
//! be drop-in replacements for the std locks they wrap — same values out
//! for the same operation sequence, including across poisoning panics
//! (`fbd-sync` recovers the poisoned value, matching the poison-recovering
//! `lock()` helpers the workspace used before ranks existed).
//!
//! The rank machinery under test here is the debug validator: every
//! acquisition in these sequences goes through it, so the property also
//! pins that ranking is invisible when the order is legal.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use fbd_sync::{LockDomain, OrderedMutex, OrderedRwLock};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError, RwLock};

/// One scripted operation against both locks.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(u64),
    Pop,
    Sum,
    /// Mutate, then panic while the guard is held: poisons the std lock,
    /// and both sides must keep (and expose) the partial mutation.
    PanicMidWrite(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u64>()).prop_map(|(kind, val)| match kind % 8 {
        0 | 1 | 2 => Op::Push(val),
        3 | 4 => Op::Pop,
        5 | 6 => Op::Sum,
        _ => Op::PanicMidWrite(val),
    })
}

fn recover<T>(r: Result<T, PoisonError<T>>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn ordered_mutex_matches_std_mutex(ops in prop::collection::vec(op_strategy(), 0..48)) {
        let ours = OrderedMutex::new(LockDomain::IngestProgress, Vec::<u64>::new());
        let std_lock = Mutex::new(Vec::<u64>::new());
        for op in ops {
            match op {
                Op::Push(v) => {
                    ours.lock().push(v);
                    recover(std_lock.lock()).push(v);
                }
                Op::Pop => {
                    prop_assert_eq!(ours.lock().pop(), recover(std_lock.lock()).pop());
                }
                Op::Sum => {
                    // Wrapping fold: arbitrary u64s overflow a plain sum.
                    let a = ours.lock().iter().fold(0u64, |s, x| s.wrapping_add(*x));
                    let b = recover(std_lock.lock())
                        .iter()
                        .fold(0u64, |s, x| s.wrapping_add(*x));
                    prop_assert_eq!(a, b);
                }
                Op::PanicMidWrite(v) => {
                    let a = catch_unwind(AssertUnwindSafe(|| {
                        let mut g = ours.lock();
                        g.push(v);
                        panic!("poison");
                    }));
                    let b = catch_unwind(AssertUnwindSafe(|| {
                        let mut g = recover(std_lock.lock());
                        g.push(v);
                        panic!("poison");
                    }));
                    prop_assert!(a.is_err() && b.is_err());
                }
            }
        }
        prop_assert_eq!(ours.into_inner(), recover(std_lock.into_inner()));
    }

    #[test]
    fn ordered_rwlock_matches_std_rwlock(ops in prop::collection::vec(op_strategy(), 0..48)) {
        let ours = OrderedRwLock::new(LockDomain::StoreShard, Vec::<u64>::new());
        let std_lock = RwLock::new(Vec::<u64>::new());
        for op in ops {
            match op {
                Op::Push(v) => {
                    ours.write().push(v);
                    recover(std_lock.write()).push(v);
                }
                Op::Pop => {
                    prop_assert_eq!(ours.write().pop(), recover(std_lock.write()).pop());
                }
                Op::Sum => {
                    // Sequential reads: even a shared re-read of the same
                    // domain counts as an equal-rank acquisition to the
                    // debug validator, matching the lint's rule. Wrapping
                    // fold: arbitrary u64s overflow a plain sum.
                    let a = ours.read().iter().fold(0u64, |s, x| s.wrapping_add(*x));
                    let b = recover(std_lock.read())
                        .iter()
                        .fold(0u64, |s, x| s.wrapping_add(*x));
                    prop_assert_eq!(a, b);
                }
                Op::PanicMidWrite(v) => {
                    let a = catch_unwind(AssertUnwindSafe(|| {
                        let mut g = ours.write();
                        g.push(v);
                        panic!("poison");
                    }));
                    let b = catch_unwind(AssertUnwindSafe(|| {
                        let mut g = recover(std_lock.write());
                        g.push(v);
                        panic!("poison");
                    }));
                    prop_assert!(a.is_err() && b.is_err());
                }
            }
        }
        prop_assert_eq!(ours.into_inner(), recover(std_lock.into_inner()));
    }
}
