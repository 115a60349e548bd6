//! Bounded thread-local tables of precomputed `f64` data.
//!
//! Some kernels need data that is a pure function of a small key and costs
//! more to build than to use: Loess's folded kernels per window, an FFT's
//! twiddles per size, Bluestein's chirp per length. A [`Table`] keeps the
//! most recently used entries of one thread, bounded both in entries and
//! in `f64`s held. An entry depends on its key alone, so what a thread
//! computed before cannot change a result — only whether a call pays for
//! the build.

use std::cell::RefCell;
use std::rc::Rc;
use std::thread::LocalKey;

/// One thread's entries, most recently used first.
pub(crate) struct Table<K> {
    entries: Vec<(K, Rc<[f64]>)>,
    max_entries: usize,
    max_f64s: usize,
}

impl<K: Copy + PartialEq> Table<K> {
    /// An empty table holding at most `max_entries` entries and
    /// `max_f64s` values; a single entry larger than that is never kept.
    pub(crate) const fn new(max_entries: usize, max_f64s: usize) -> Self {
        Table {
            entries: Vec::new(),
            max_entries,
            max_f64s,
        }
    }

    /// Entries and `f64`s held.
    pub(crate) fn held(&self) -> (usize, usize) {
        let f64s = self.entries.iter().map(|(_, e)| e.len()).sum();
        (self.entries.len(), f64s)
    }

    /// `key`'s entry, moved to the front; `None` on a miss.
    fn lookup(&mut self, key: K) -> Option<Rc<[f64]>> {
        let at = self.entries.iter().position(|(k, _)| *k == key)?;
        self.entries[..=at].rotate_right(1);
        Some(Rc::clone(&self.entries[0].1))
    }

    /// Keeps `entry` in front, evicting the least recently used entries to
    /// stay inside both bounds.
    fn insert(&mut self, key: K, entry: &Rc<[f64]>) {
        if entry.len() > self.max_f64s {
            return;
        }
        while self.entries.len() >= self.max_entries || self.held().1 + entry.len() > self.max_f64s {
            self.entries.pop();
        }
        self.entries.insert(0, (key, Rc::clone(entry)));
    }
}

/// `key`'s entry in the thread's `table`, made by `build` on a miss. The
/// table is not borrowed while `build` runs, so a build may use other
/// entries of the same table.
pub(crate) fn get_or_build<K: Copy + PartialEq>(
    table: &'static LocalKey<RefCell<Table<K>>>,
    key: K,
    build: impl FnOnce() -> Rc<[f64]>,
) -> Rc<[f64]> {
    if let Some(hit) = table.with(|t| t.borrow_mut().lookup(key)) {
        return hit;
    }
    let built = build();
    table.with(|t| t.borrow_mut().insert(key, &built));
    built
}
