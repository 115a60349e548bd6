//@ path: crates/ingest/src/lock_fixture.rs
//! Known-bad input for `lock-order`: a rank inversion, an equal-rank
//! re-acquisition, an undeclared receiver, and a raw lock type.

pub fn inverted(progress: &Progress, quarantine: &OrderedMutex<Quarantine>) {
    let state = progress.state.lock(); // ingest-progress, rank 60
    let quarantine = quarantine.lock(); // quarantine, rank 20: inversion
    drop(quarantine);
    drop(state);
}

pub fn equal_rank(ours: &Progress, theirs: &Progress) {
    let a = ours.state.lock();
    let b = theirs.state.lock(); // same rank while held: inversion
    drop(b);
    drop(a);
}

pub fn undeclared(mystery: &Thing) {
    let guard = mystery.lock(); // receiver not in LOCK_ORDER.manifest
    drop(guard);
}

pub struct Raw {
    level: Mutex<u32>, // raw lock type in a ranked crate
}

pub fn legal(engine: &OrderedMutex<Engine>, progress: &Progress) {
    let engine = engine.lock(); // rank 10 then 60: ascending, clean
    let state = progress.state.lock();
    drop(state);
    drop(engine);
}
