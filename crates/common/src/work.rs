//! The paper's online time `T` (§4–§6), counted: hash probes plus scanned
//! tuples, beside `tuple::instrument` and `cqap_relation::instrument`.
//!
//! Every `T` in the workspace comes from here: the hand-written structures
//! of `cqap-indexes`, the framework driver's join chains (one probe per
//! atom-index lookup, every emitted row a scan) and its S-view probes (one
//! probe per distinct key or semijoin test, the rows returned and the
//! request's tuples as scans). The counts are exact and machine-independent,
//! monotone and per-thread, so concurrent serving workers and parallel
//! tests do not pollute each other's readings: a caller diffs two readings
//! taken on the thread that did the work.

use std::cell::Cell;

thread_local! {
    static PROBES: Cell<u64> = const { Cell::new(0) };
    static SCANS: Cell<u64> = const { Cell::new(0) };
}

/// Hash probes **this thread** has made.
pub fn probes() -> u64 {
    PROBES.with(Cell::get)
}

/// Tuples **this thread** has scanned.
pub fn scans() -> u64 {
    SCANS.with(Cell::get)
}

/// **This thread**'s online work, `probes() + scans()`.
pub fn total() -> u64 {
    probes() + scans()
}

/// Records `probes` hash probes and `scans` scanned tuples on this thread.
#[inline]
pub fn add(probes: u64, scans: u64) {
    PROBES.with(|c| c.set(c.get() + probes));
    SCANS.with(|c| c.set(c.get() + scans));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_per_thread() {
        let before = (probes(), scans());
        add(2, 5);
        assert_eq!((probes() - before.0, scans() - before.1), (2, 5));
        let other = std::thread::spawn(|| {
            add(7, 7);
            total()
        });
        assert_eq!(other.join().unwrap(), 14);
        assert_eq!(total() - before.0 - before.1, 7);
    }
}
