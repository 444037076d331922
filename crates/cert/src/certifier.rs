//! The deterministic certification procedure (§3.3) — linear backend.
//!
//! Every site runs an identical certifier over the totally ordered stream of
//! [`CertRequest`]s. A request aborts iff its read-set intersects the
//! write-set of some *concurrent* committed transaction — one whose global
//! sequence number is greater than the request's `start_seq`. Determinism of
//! this procedure plus total order is what keeps all replicas consistent
//! without distributed locking.
//!
//! [`LinearCertifier`] is the paper-faithful implementation: an ordered-merge
//! scan of the request's read-set against every concurrent write-set. It is
//! one of the two [`CertBackend`](crate::CertBackend) implementations; see
//! [`IndexedCertifier`](crate::IndexedCertifier) for the indexed alternative
//! whose cost is O(request) instead of O(conflict window).

use crate::request::CertRequest;
use crate::rwset::RwSet;
use std::collections::VecDeque;
use std::fmt;

/// Outcome of certifying one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The transaction commits and receives this global sequence number.
    Commit(u64),
    /// The transaction aborts: its read-set intersected the write-set of the
    /// concurrent transaction committed with this sequence number.
    Abort {
        /// Sequence number of the conflicting committed transaction.
        conflict_seq: u64,
    },
}

impl Outcome {
    /// True for [`Outcome::Commit`].
    pub fn is_commit(&self) -> bool {
        matches!(self, Outcome::Commit(_))
    }
}

/// Work performed during one certification — used by the simulation bridge
/// to charge CPU proportionally to the real algorithm's cost.
///
/// The linear backend reports `history_scanned`/`comparisons`; the indexed
/// backend reports `probes`. A cost model prices each dimension separately
/// so every backend is charged honestly for what it actually executes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertWork {
    /// Committed transactions examined (linear backend).
    pub history_scanned: usize,
    /// Ordered-merge comparison steps across all examined write-sets
    /// (linear backend).
    pub comparisons: usize,
    /// Index lookups — hash probes and interval-list binary searches —
    /// performed (indexed backend).
    pub probes: usize,
}

/// Error: the certifier's history no longer covers the request's snapshot.
///
/// The replication layer garbage-collects history only below the globally
/// stable sequence number, so seeing this error indicates a protocol bug —
/// it is surfaced rather than silently mis-certified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoryTruncated {
    /// The request's snapshot sequence number.
    pub start_seq: u64,
    /// Oldest sequence number still covered by the history.
    pub low_water: u64,
}

impl fmt::Display for HistoryTruncated {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certification history truncated: request snapshot {} below low-water {}",
            self.start_seq, self.low_water
        )
    }
}

impl std::error::Error for HistoryTruncated {}

/// Deterministic certifier state: the write-sets of recently committed
/// transactions, keyed by their global sequence numbers, scanned linearly
/// per request exactly as in the paper's prototype.
#[derive(Debug, Clone)]
pub struct LinearCertifier {
    /// Committed `(seq, write_set)` pairs, oldest first, seq contiguous.
    history: VecDeque<(u64, RwSet)>,
    /// Next global sequence number to assign.
    next_seq: u64,
    /// All sequence numbers `<= low_water` have been garbage collected.
    low_water: u64,
}

/// The historical name of the linear backend, kept for source compatibility:
/// `Certifier` has always been the paper-faithful ordered-merge scan.
pub type Certifier = LinearCertifier;

impl Default for LinearCertifier {
    fn default() -> Self {
        LinearCertifier::new()
    }
}

impl LinearCertifier {
    /// Creates a certifier with an empty history; the first committed
    /// transaction receives sequence number 1.
    pub fn new() -> Self {
        LinearCertifier { history: VecDeque::new(), next_seq: 1, low_water: 0 }
    }

    /// Sequence number of the last committed transaction (0 if none).
    pub fn last_committed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of write-sets retained.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Oldest garbage-collected sequence number; snapshots below it cannot
    /// be certified.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// The shared conflict check of both [`LinearCertifier::certify`] and
    /// [`LinearCertifier::certify_read_only`]: scans the write-sets of
    /// transactions concurrent with the snapshot (`seq > start_seq`) and
    /// returns the sequence number of the first one intersecting `read_set`.
    fn scan_conflicts(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, CertWork) {
        let mut work = CertWork::default();
        // History is ordered by seq, so binary-search the first relevant one.
        let from = self.history.partition_point(|(seq, _)| *seq <= start_seq);
        for (seq, writes) in self.history.iter().skip(from) {
            work.history_scanned += 1;
            let (hit, steps) = writes.intersect_stats(read_set);
            work.comparisons += steps;
            if hit {
                return (Some(*seq), work);
            }
        }
        (None, work)
    }

    /// Certifies a request delivered in total order, updating the history
    /// when it commits.
    ///
    /// Read-only requests (empty write-set) are certified but never occupy
    /// history space. Requests with an empty read-set cannot conflict (the
    /// DBSM test is read-set vs write-set) and commit unconditionally.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark, making a sound decision impossible.
    pub fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        let (conflict, work) = self.scan_conflicts(&req.read_set, req.start_seq);
        if let Some(conflict_seq) = conflict {
            return Ok((Outcome::Abort { conflict_seq }, work));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        if !req.write_set.is_empty() {
            self.history.push_back((seq, req.write_set.clone()));
        }
        Ok((Outcome::Commit(seq), work))
    }

    /// Certifies a *local read-only* transaction against the current history
    /// without consuming a sequence number — the local validation used for
    /// queries that are not multicast (they acquire no locks and write
    /// nothing, so only read/write concurrency matters).
    pub fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        let (conflict, work) = self.scan_conflicts(read_set, start_seq);
        (conflict.is_none(), work)
    }

    /// Discards history entries with sequence numbers `<= stable_seq`.
    /// Called by the replication layer once every site is known to have
    /// committed past `stable_seq` (piggybacked last-committed identifiers).
    ///
    /// `stable_seq` is clamped to [`LinearCertifier::last_committed`]: the
    /// low-water mark never moves past sequence numbers that were actually
    /// assigned, so a gc on an empty (or fully collected) history cannot
    /// make fresh snapshots spuriously [`HistoryTruncated`].
    pub fn gc(&mut self, stable_seq: u64) {
        let stable_seq = stable_seq.min(self.last_committed());
        while let Some((seq, _)) = self.history.front() {
            if *seq <= stable_seq {
                self.history.pop_front();
            } else {
                break;
            }
        }
        self.low_water = self.low_water.max(stable_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TableId, TupleId};
    use crate::SiteId;

    fn id(t: u16, r: u64) -> TupleId {
        TupleId::new(TableId(t), r)
    }

    fn req(site: u16, txn: u64, start: u64, reads: &[TupleId], writes: &[TupleId]) -> CertRequest {
        CertRequest {
            site: SiteId(site),
            txn,
            start_seq: start,
            read_set: reads.iter().copied().collect(),
            write_set: writes.iter().copied().collect(),
            write_bytes: 0,
        }
    }

    #[test]
    fn first_transaction_commits_with_seq_one() {
        let mut c = Certifier::new();
        let (out, _) = c.certify(&req(0, 1, 0, &[id(1, 1)], &[id(1, 1)])).expect("certify");
        assert_eq!(out, Outcome::Commit(1));
        assert_eq!(c.last_committed(), 1);
    }

    #[test]
    fn concurrent_read_write_conflict_aborts() {
        let mut c = Certifier::new();
        // T1 writes (1,5); T2 was concurrent (start_seq=0) and read (1,5).
        let (o1, _) = c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("t1");
        assert_eq!(o1, Outcome::Commit(1));
        let (o2, _) = c.certify(&req(1, 1, 0, &[id(1, 5)], &[id(1, 5)])).expect("t2");
        assert_eq!(o2, Outcome::Abort { conflict_seq: 1 });
        // The abort leaves no trace in history.
        assert_eq!(c.last_committed(), 1);
        assert_eq!(c.history_len(), 1);
    }

    #[test]
    fn non_concurrent_transactions_do_not_conflict() {
        let mut c = Certifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("t1");
        // T2 started after T1 committed (start_seq = 1): no conflict.
        let (o2, _) = c.certify(&req(1, 1, 1, &[id(1, 5)], &[id(1, 5)])).expect("t2");
        assert_eq!(o2, Outcome::Commit(2));
    }

    #[test]
    fn disjoint_concurrent_transactions_commit() {
        let mut c = Certifier::new();
        c.certify(&req(0, 1, 0, &[id(1, 1)], &[id(1, 1)])).expect("t1");
        let (o2, _) = c.certify(&req(1, 1, 0, &[id(1, 2)], &[id(1, 2)])).expect("t2");
        assert_eq!(o2, Outcome::Commit(2));
    }

    #[test]
    fn empty_read_set_commits_unconditionally() {
        let mut c = Certifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("t1");
        let (o2, _) = c.certify(&req(1, 1, 0, &[], &[id(1, 1)])).expect("blind write");
        assert_eq!(o2, Outcome::Commit(2));
    }

    #[test]
    fn certification_is_deterministic_across_replicas() {
        let reqs: Vec<CertRequest> = (0..100)
            .map(|i| {
                req(
                    (i % 3) as u16,
                    i,
                    i / 3,
                    &[id(1, i % 7 + 1), id(2, i % 5 + 1)],
                    &[id(1, i % 7 + 1)],
                )
            })
            .collect();
        let mut a = Certifier::new();
        let mut b = Certifier::new();
        for r in &reqs {
            let (oa, _) = a.certify(r).expect("a");
            let (ob, _) = b.certify(r).expect("b");
            assert_eq!(oa, ob);
        }
        assert_eq!(a.last_committed(), b.last_committed());
    }

    #[test]
    fn table_level_entries_conflict_with_rows() {
        let mut c = Certifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(3, 42)])).expect("t1");
        let mut reads = RwSet::new();
        reads.extend([TupleId::table_level(TableId(3))]);
        let r2 = CertRequest {
            site: SiteId(1),
            txn: 1,
            start_seq: 0,
            read_set: reads,
            write_set: RwSet::new(),
            write_bytes: 0,
        };
        let (o2, _) = c.certify(&r2).expect("t2");
        assert!(matches!(o2, Outcome::Abort { .. }));
    }

    #[test]
    fn gc_trims_history_and_sets_low_water() {
        let mut c = Certifier::new();
        for i in 0..10 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        assert_eq!(c.history_len(), 10);
        c.gc(5);
        assert_eq!(c.history_len(), 5);
        assert_eq!(c.low_water(), 5);
        // Requests with snapshots at/above the low-water still certify.
        let (o, _) = c.certify(&req(1, 100, 5, &[id(2, 1)], &[])).expect("ok");
        assert!(o.is_commit());
        // Older snapshots are rejected loudly.
        let err = c.certify(&req(1, 101, 4, &[id(2, 1)], &[])).expect_err("too old");
        assert_eq!(err, HistoryTruncated { start_seq: 4, low_water: 5 });
    }

    #[test]
    fn gc_on_empty_history_never_outruns_commits() {
        // Regression: gc with a stable_seq beyond last_committed (e.g. a
        // stale or overeager stability estimate, or repeated gc on an empty
        // history) must not push low_water past the assigned sequence
        // numbers — otherwise the very next request at the current snapshot
        // would be spuriously rejected as HistoryTruncated.
        let mut c = Certifier::new();
        c.gc(100);
        assert_eq!(c.low_water(), 0, "nothing committed, nothing collectable");
        let (o, _) = c.certify(&req(0, 1, 0, &[id(1, 1)], &[id(1, 1)])).expect("fresh");
        assert_eq!(o, Outcome::Commit(1));
        // Drain the history completely, then gc far beyond it.
        c.gc(1);
        assert_eq!(c.history_len(), 0);
        c.gc(1_000_000);
        assert_eq!(c.low_water(), 1, "clamped to last_committed");
        // gc-then-certify at the current snapshot still succeeds.
        let (o, _) = c.certify(&req(0, 2, 1, &[id(1, 1)], &[])).expect("post-gc certify");
        assert!(o.is_commit());
        // And a genuinely stale snapshot still errors.
        let err = c.certify(&req(0, 3, 0, &[id(1, 1)], &[])).expect_err("stale");
        assert_eq!(err, HistoryTruncated { start_seq: 0, low_water: 1 });
    }

    #[test]
    fn read_only_local_certification() {
        let mut c = Certifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("t1");
        let reads: RwSet = [id(1, 5)].into_iter().collect();
        let (ok_old, _) = c.certify_read_only(&reads, 0);
        assert!(!ok_old, "concurrent read of written tuple must fail");
        let (ok_new, _) = c.certify_read_only(&reads, 1);
        assert!(ok_new, "snapshot after commit passes");
        // Read-only validation consumes no sequence number.
        assert_eq!(c.last_committed(), 1);
    }

    #[test]
    fn work_scales_with_concurrent_history_only() {
        let mut c = Certifier::new();
        for i in 0..50 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        let (_, work_new) = c.certify(&req(1, 99, 50, &[id(2, 1)], &[])).expect("new");
        assert_eq!(work_new.history_scanned, 0);
        let (_, work_old) = c.certify(&req(1, 98, 10, &[id(2, 1)], &[])).expect("old");
        assert_eq!(work_old.history_scanned, 40);
        // The linear backend never performs index probes.
        assert_eq!(work_old.probes, 0);
    }

    #[test]
    fn read_only_and_update_certification_share_the_conflict_check() {
        // The same read-set/snapshot pair must reach the same verdict through
        // both entry points (one shared scan, satellite of the refactor).
        let mut c = Certifier::new();
        for i in 0..20 {
            c.certify(&req(0, i, i, &[], &[id(1, i + 1)])).expect("fill");
        }
        for start in 0..20 {
            let reads: RwSet = [id(1, 7), id(2, 3)].into_iter().collect();
            let (ok, ro_work) = c.certify_read_only(&reads, start);
            let probe = CertRequest {
                site: SiteId(1),
                txn: 1000 + start,
                start_seq: start,
                read_set: reads,
                write_set: RwSet::new(),
                write_bytes: 0,
            };
            let (outcome, up_work) = c.clone().certify(&probe).expect("window");
            assert_eq!(ok, outcome.is_commit(), "start {start}");
            assert_eq!(ro_work, up_work, "identical scans, identical work");
        }
    }
}
