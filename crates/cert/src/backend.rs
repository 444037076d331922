//! Pluggable certification backends.
//!
//! The DBSM conflict check (§3.3) is a pure function of the totally ordered
//! request stream, so *how* the write history is organized is an
//! implementation choice as long as every backend reaches bit-identical
//! decisions. [`CertBackend`] captures the contract; two implementations
//! are provided:
//!
//! * [`LinearCertifier`] — the paper-faithful ordered-merge scan of every
//!   concurrent write-set. Cost grows with the conflict window
//!   (`history_scanned` × merge `comparisons`).
//! * [`IndexedCertifier`] — a per-table hash index from row number to the
//!   sequence numbers that wrote it, plus table-level wildcard and
//!   any-writer interval lists, so certification probes only the request's
//!   own keys. Cost is O(request) `probes`, independent of the window. This
//!   is the default.
//!
//! The indexed backend is the generic
//! [`HistoryCertifier`](crate::HistoryCertifier) at the [`UnifiedPlacement`];
//! a property test (`tests/properties.rs`) and this module's equivalence
//! tests hold both backends to identical outcome streams on the same
//! totally ordered input, and the smoke test runs each backend's 3-replica
//! experiment bit-reproducibly.

use crate::certifier::{CertWork, HistoryTruncated, LinearCertifier, Outcome};
use crate::placement::{evict_front, first_above, HistoryCertifier, IndexPlacement, TableIndex};
use crate::request::CertRequest;
use crate::rwset::RwSet;
use crate::tuple::TableId;
use std::collections::HashMap;

/// The operations the replication layer needs from a certifier, independent
/// of how the write history is organized.
///
/// Implementations must be deterministic functions of the call sequence:
/// every replica feeds its backend the same totally ordered stream and must
/// reach the same [`Outcome`] — including the same `conflict_seq` on aborts,
/// which is defined as the *lowest* sequence number among conflicting
/// concurrent transactions (the first hit of the paper's linear scan).
pub trait CertBackend {
    /// Certifies a request delivered in total order, updating the history
    /// when it commits. See [`LinearCertifier::certify`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark, making a sound decision impossible.
    fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated>;

    /// Certifies a local read-only transaction without consuming a sequence
    /// number. See [`LinearCertifier::certify_read_only`].
    fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork);

    /// Discards history at or below `stable_seq` (clamped to
    /// [`CertBackend::last_committed`]).
    fn gc(&mut self, stable_seq: u64);

    /// Sequence number of the last committed transaction (0 if none).
    fn last_committed(&self) -> u64;

    /// Committed write-sets currently retained.
    fn history_len(&self) -> usize;

    /// Oldest garbage-collected sequence number; snapshots below it cannot
    /// be certified.
    fn low_water(&self) -> u64;

    /// Deep-copies the certifier behind the trait object. This is the donor
    /// half of a rejoin state transfer: a live site snapshots its certifier
    /// at the transfer cut and ships the copy to the rejoining site, which
    /// resumes certification bit-identically from that point (the copy's
    /// history, low-water mark and next sequence number all carry over).
    fn clone_box(&self) -> Box<dyn CertBackend>;
}

impl CertBackend for LinearCertifier {
    fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        LinearCertifier::certify(self, req)
    }

    fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        LinearCertifier::certify_read_only(self, read_set, start_seq)
    }

    fn gc(&mut self, stable_seq: u64) {
        LinearCertifier::gc(self, stable_seq)
    }

    fn last_committed(&self) -> u64 {
        LinearCertifier::last_committed(self)
    }

    fn history_len(&self) -> usize {
        LinearCertifier::history_len(self)
    }

    fn low_water(&self) -> u64 {
        LinearCertifier::low_water(self)
    }

    fn clone_box(&self) -> Box<dyn CertBackend> {
        Box::new(self.clone())
    }
}

impl<P: IndexPlacement + Clone + 'static> CertBackend for HistoryCertifier<P> {
    fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        HistoryCertifier::certify(self, req)
    }

    fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        HistoryCertifier::certify_read_only(self, read_set, start_seq)
    }

    fn gc(&mut self, stable_seq: u64) {
        HistoryCertifier::gc(self, stable_seq)
    }

    fn last_committed(&self) -> u64 {
        HistoryCertifier::last_committed(self)
    }

    fn history_len(&self) -> usize {
        HistoryCertifier::history_len(self)
    }

    fn low_water(&self) -> u64 {
        HistoryCertifier::low_water(self)
    }

    fn clone_box(&self) -> Box<dyn CertBackend> {
        Box::new(self.clone())
    }
}

/// Selects which [`CertBackend`] implementation a site runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CertBackendKind {
    /// The paper-faithful ordered-merge scan ([`LinearCertifier`]).
    Linear,
    /// The per-table write-history index ([`IndexedCertifier`]) — the
    /// default: same decisions as the linear scan at O(request) cost.
    #[default]
    Indexed,
}

impl CertBackendKind {
    /// Instantiates a fresh backend of this kind.
    pub fn new_backend(self) -> Box<dyn CertBackend> {
        match self {
            CertBackendKind::Linear => Box::new(LinearCertifier::new()),
            CertBackendKind::Indexed => Box::new(IndexedCertifier::new()),
        }
    }

    /// Short lowercase name (used in bench ids and reports).
    pub fn name(self) -> &'static str {
        match self {
            CertBackendKind::Linear => "linear",
            CertBackendKind::Indexed => "indexed",
        }
    }
}

/// The unified (single-server) index placement: one per-table probe
/// structure holding every committed write, exactly the layout
/// [`IndexedCertifier`] has always used.
///
/// For every read-set entry the probe is: the row's writer list (was this
/// tuple overwritten concurrently?), the table's wildcard list (did a
/// table-level write cover it?), and — for wildcard reads — the table's
/// any-writer list. Each is a hash lookup plus one binary search, so the
/// total cost is proportional to the *request*, not to the conflict window.
#[derive(Debug, Clone, Default)]
pub struct UnifiedPlacement {
    /// The per-table probe structures.
    pub(crate) tables: HashMap<TableId, TableIndex>,
}

impl UnifiedPlacement {
    /// The probe loop with an id filter: entries rejected by `local` are
    /// skipped without counting a probe — a partially replicating site
    /// ([`SpanPlacement`](crate::SpanPlacement)) performs *no* work for
    /// tuples outside its span. The unfiltered placement passes `|_| true`.
    pub(crate) fn probe_where(
        &self,
        read_set: &RwSet,
        start_seq: u64,
        probes: &mut usize,
        mut local: impl FnMut(crate::TupleId) -> bool,
    ) -> Option<u64> {
        let mut earliest: Option<u64> = None;
        let mut note = |seq: Option<u64>| {
            if let Some(s) = seq {
                earliest = Some(earliest.map_or(s, |e| e.min(s)));
            }
        };
        for id in read_set.ids() {
            if !local(*id) {
                continue;
            }
            // The table lookup itself is one probe.
            *probes += 1;
            let Some(table) = self.tables.get(&id.table()) else { continue };
            if id.is_table_level() {
                // A wildcard read conflicts with any concurrent write to the
                // table.
                *probes += 1;
                note(first_above(&table.any_writer, start_seq));
            } else {
                // A row read conflicts with concurrent writes to that row or
                // with a concurrent table-level write.
                *probes += 2;
                note(first_above(&table.wildcard, start_seq));
                if let Some(rows) = table.rows.get(&id.row()) {
                    note(first_above(rows, start_seq));
                }
            }
        }
        earliest
    }

    /// [`IndexPlacement::index_writes`] with an id filter: only entries
    /// accepted by `local` land in the index.
    pub(crate) fn index_writes_where(
        &mut self,
        seq: u64,
        writes: &RwSet,
        mut local: impl FnMut(crate::TupleId) -> bool,
    ) {
        for id in writes.ids() {
            if !local(*id) {
                continue;
            }
            let table = self.tables.entry(id.table()).or_default();
            if id.is_table_level() {
                table.wildcard.push_back(seq);
            } else {
                table.rows.entry(id.row()).or_default().push_back(seq);
            }
            // One entry per (table, seq) pair: ids of the same table are
            // adjacent in the sorted write-set, so dedup against the back.
            if table.any_writer.back() != Some(&seq) {
                table.any_writer.push_back(seq);
            }
        }
    }

    /// [`IndexPlacement::unindex_writes`] with an id filter. The any-writer
    /// eviction runs only for tables that contributed at least one accepted
    /// id — mirroring what `index_writes_where` inserted, so a filtering
    /// placement stays internally consistent across gc.
    pub(crate) fn unindex_writes_where(
        &mut self,
        seq: u64,
        writes: &RwSet,
        mut local: impl FnMut(crate::TupleId) -> bool,
    ) {
        // Ids of the same table are adjacent in the sorted set; track per
        // table-run whether any id passed the filter.
        let mut run: Option<(TableId, bool)> = None;
        for id in writes.ids() {
            let t = id.table();
            if run.map(|(rt, _)| rt) != Some(t) {
                if let Some((prev, true)) = run {
                    self.evict_any_writer(prev, seq);
                }
                run = Some((t, false));
            }
            if !local(*id) {
                continue;
            }
            run = Some((t, true));
            let Some(table) = self.tables.get_mut(&t) else { continue };
            if id.is_table_level() {
                evict_front(&mut table.wildcard, seq);
            } else if let Some(rows) = table.rows.get_mut(&id.row()) {
                evict_front(rows, seq);
                if rows.is_empty() {
                    table.rows.remove(&id.row());
                }
            }
        }
        if let Some((prev, true)) = run {
            self.evict_any_writer(prev, seq);
        }
    }

    fn evict_any_writer(&mut self, t: TableId, seq: u64) {
        if let Some(table) = self.tables.get_mut(&t) {
            evict_front(&mut table.any_writer, seq);
            if table.is_empty() {
                self.tables.remove(&t);
            }
        }
    }
}

impl IndexPlacement for UnifiedPlacement {
    fn probe(&self, read_set: &RwSet, start_seq: u64, probes: &mut usize) -> Option<u64> {
        self.probe_where(read_set, start_seq, probes, |_| true)
    }

    fn index_writes(&mut self, seq: u64, writes: &RwSet) {
        self.index_writes_where(seq, writes, |_| true);
    }

    fn unindex_writes(&mut self, seq: u64, writes: &RwSet) {
        self.unindex_writes_where(seq, writes, |_| true);
    }
}

/// A certifier that answers the DBSM conflict check from a per-table index
/// of the write history instead of scanning it: the generic
/// [`HistoryCertifier`] at the [`UnifiedPlacement`]. The index is
/// maintained incrementally: commits append, gc evicts exactly the entries
/// of the history rows it retires.
pub type IndexedCertifier = HistoryCertifier<UnifiedPlacement>;

impl IndexedCertifier {
    /// Creates an indexed certifier with an empty history; the first
    /// committed transaction receives sequence number 1.
    pub fn new() -> Self {
        HistoryCertifier::from_placement(UnifiedPlacement::default())
    }
}

impl Default for IndexedCertifier {
    fn default() -> Self {
        IndexedCertifier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::TupleId;
    use crate::SiteId;

    fn id(t: u16, r: u64) -> TupleId {
        TupleId::new(TableId(t), r)
    }

    fn wild(t: u16) -> TupleId {
        TupleId::table_level(TableId(t))
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

    /// A deterministic pseudo-random request stream exercising rows,
    /// wildcards, varying snapshots and varying set sizes.
    fn stream(len: u64) -> Vec<CertRequest> {
        let mut reqs = Vec::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for i in 0..len {
            let reads: Vec<TupleId> = (0..rng() % 6)
                .map(|_| {
                    let t = (rng() % 5) as u16;
                    match rng() % 8 {
                        0 => wild(t),
                        r => id(t, r % 97 + 1),
                    }
                })
                .collect();
            let writes: Vec<TupleId> = (0..rng() % 4)
                .map(|_| {
                    let t = (rng() % 5) as u16;
                    match rng() % 16 {
                        0 => wild(t),
                        r => id(t, r % 97 + 1),
                    }
                })
                .collect();
            let back = rng() % 5;
            // Snapshots trail an optimistic commit count (request i sees at
            // most i commits); exactness does not matter, validity
            // (≥ low_water) does.
            reqs.push(req((i % 3) as u16, i, i.saturating_sub(back), &reads, &writes));
        }
        reqs
    }

    #[test]
    fn backends_agree_on_a_mixed_stream() {
        let mut linear = LinearCertifier::new();
        let mut indexed = IndexedCertifier::new();
        for (i, r) in stream(600).iter().enumerate() {
            let a = linear.certify(r);
            let b = indexed.certify(r);
            assert_eq!(a.map(|(o, _)| o), b.map(|(o, _)| o), "request {i} diverged");
            if i % 97 == 0 {
                let stable = linear.last_committed().saturating_sub(16);
                linear.gc(stable);
                indexed.gc(stable);
                assert_eq!(linear.low_water(), indexed.low_water());
            }
        }
        assert_eq!(linear.last_committed(), indexed.last_committed());
        assert_eq!(linear.history_len(), indexed.history_len());
    }

    #[test]
    fn three_replicas_per_backend_stay_identical() {
        // The deterministic multi-replica check of the linear certifier,
        // replayed across backend kinds: replicas of every kind fed the same
        // totally ordered stream all agree with each other *and* across
        // kinds.
        let mut replicas: Vec<Box<dyn CertBackend>> = vec![
            CertBackendKind::Linear.new_backend(),
            CertBackendKind::Linear.new_backend(),
            CertBackendKind::Linear.new_backend(),
            CertBackendKind::Indexed.new_backend(),
            CertBackendKind::Indexed.new_backend(),
            CertBackendKind::Indexed.new_backend(),
        ];
        for r in &stream(300) {
            let outcomes: Vec<_> =
                replicas.iter_mut().map(|c| c.certify(r).expect("window").0).collect();
            assert!(outcomes.windows(2).all(|w| w[0] == w[1]), "replicas diverged: {outcomes:?}");
        }
        let heads: Vec<u64> = replicas.iter().map(|c| c.last_committed()).collect();
        assert!(heads.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn abort_reports_the_earliest_conflicting_seq() {
        // Two concurrent writers of the same tuple: the linear scan reports
        // the first (lowest-seq) one, so the index must too.
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 5)])).expect("w1"); // seq 1
        c.certify(&req(0, 2, 1, &[], &[id(1, 5)])).expect("w2"); // seq 2
        let (o, _) = c.certify(&req(1, 3, 0, &[id(1, 5)], &[])).expect("reader");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        // A snapshot past the first writer sees only the second.
        let (o, _) = c.certify(&req(1, 4, 1, &[id(1, 5)], &[])).expect("reader");
        assert_eq!(o, Outcome::Abort { conflict_seq: 2 });
    }

    #[test]
    fn wildcard_reads_and_writes_conflict_through_the_index() {
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(3, 42)])).expect("row write"); // seq 1
        c.certify(&req(0, 2, 1, &[], &[wild(4)])).expect("table write"); // seq 2
                                                                         // Wildcard read vs row write.
        let (o, _) = c.certify(&req(1, 3, 0, &[wild(3)], &[])).expect("wild read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        // Row read vs wildcard write.
        let (o, _) = c.certify(&req(1, 4, 0, &[id(4, 9)], &[])).expect("row read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 2 });
        // Unrelated table commits.
        let (o, _) = c.certify(&req(1, 5, 0, &[id(5, 1)], &[])).expect("clean");
        assert!(o.is_commit());
    }

    #[test]
    fn gc_evicts_index_entries_incrementally() {
        let mut c = IndexedCertifier::new();
        for i in 0..32 {
            c.certify(&req(0, i, i, &[], &[id(1, i % 4 + 1), wild(2)])).expect("fill");
        }
        assert_eq!(c.history_len(), 32);
        assert_eq!(c.place.tables.len(), 2);
        c.gc(30);
        assert_eq!(c.history_len(), 2);
        let t1 = c.place.tables.get(&TableId(1)).expect("table 1 live");
        let total_row_seqs: usize = t1.rows.values().map(|v| v.len()).sum();
        assert_eq!(total_row_seqs, 2, "only uncollected writers remain indexed");
        assert_eq!(c.place.tables.get(&TableId(2)).expect("table 2 live").wildcard.len(), 2);
        // Full collection drops the tables entirely.
        c.gc(32);
        assert!(c.place.tables.is_empty());
        assert_eq!(c.history_len(), 0);
        // The emptied certifier still certifies fresh snapshots.
        let (o, _) = c.certify(&req(1, 99, 32, &[id(1, 1)], &[])).expect("fresh");
        assert!(o.is_commit());
    }

    #[test]
    fn probe_work_is_independent_of_history_depth() {
        // The acceptance claim behind the refactor: linear work grows with
        // the conflict window, indexed work stays O(request).
        let probe_reads: Vec<TupleId> = (1..=8).map(|r| id(9, r)).collect();
        let mut probes_by_depth = Vec::new();
        let mut scans_by_depth = Vec::new();
        for depth in [64u64, 512, 4096] {
            let mut linear = LinearCertifier::new();
            let mut indexed = IndexedCertifier::new();
            for i in 0..depth {
                let w = [id(1, i % 50 + 1)];
                linear.certify(&req(0, i, i, &[], &w)).expect("fill");
                indexed.certify(&req(0, i, i, &[], &w)).expect("fill");
            }
            let probe = req(1, depth, 0, &probe_reads, &[]);
            let (ol, wl) = linear.certify(&probe).expect("linear");
            let (oi, wi) = indexed.certify(&probe).expect("indexed");
            assert_eq!(ol, oi);
            probes_by_depth.push(wi.probes);
            scans_by_depth.push(wl.history_scanned);
        }
        assert_eq!(probes_by_depth[0], probes_by_depth[2], "probes flat in depth");
        assert!(scans_by_depth[2] > scans_by_depth[0] * 10, "linear scan grows with depth");
    }

    #[test]
    fn unified_placement_reports_single_server_accounting() {
        // The unified index prices a request by its plain probe count: one
        // lookup for the table plus two for a row read (writer list and
        // wildcard list), and nothing from the linear scan's dimensions.
        let mut c = IndexedCertifier::new();
        c.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("write");
        let (o, w) = c.certify(&req(1, 2, 0, &[id(1, 1)], &[])).expect("read");
        assert_eq!(o, Outcome::Abort { conflict_seq: 1 });
        assert_eq!(w, CertWork { probes: 3, ..CertWork::default() });
    }

    #[test]
    fn default_constructed_certifiers_are_valid() {
        // Regression: a derived Default would zero next_seq and make
        // last_committed() underflow; Default must agree with new().
        assert_eq!(IndexedCertifier::default().last_committed(), 0);
        assert_eq!(LinearCertifier::default().last_committed(), 0);
    }

    #[test]
    fn backend_kind_constructs_and_names() {
        // The default flipped to Indexed once the paper-scale figures were
        // re-validated under it; the linear scan stays selectable (and stays
        // exported as `Certifier`).
        assert_eq!(CertBackendKind::default(), CertBackendKind::Indexed);
        assert_eq!(CertBackendKind::Linear.name(), "linear");
        assert_eq!(CertBackendKind::Indexed.name(), "indexed");
        for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
            let mut b = kind.new_backend();
            assert_eq!(b.last_committed(), 0);
            let (o, _) = b.certify(&req(0, 1, 0, &[], &[id(1, 1)])).expect("first");
            assert_eq!(o, Outcome::Commit(1));
            assert_eq!(b.history_len(), 1);
            b.gc(1);
            assert_eq!(b.history_len(), 0);
            assert_eq!(b.low_water(), 1);
        }
    }

    #[test]
    fn clone_box_resumes_bit_identically_per_kind() {
        // The rejoin state transfer in miniature: feed a prefix, snapshot
        // via clone_box, then feed the same suffix to original and copy —
        // outcomes must match step for step, and the copy must be fully
        // independent of the original afterwards.
        let all = stream(400);
        let (prefix, suffix) = all.split_at(250);
        for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
            let mut donor = kind.new_backend();
            for r in prefix {
                donor.certify(r).expect("prefix");
            }
            donor.gc(donor.last_committed().saturating_sub(64));
            let mut rejoiner = donor.clone_box();
            assert_eq!(rejoiner.last_committed(), donor.last_committed());
            assert_eq!(rejoiner.history_len(), donor.history_len());
            assert_eq!(rejoiner.low_water(), donor.low_water());
            for r in suffix {
                let a = donor.certify(r).expect("donor").0;
                let b = rejoiner.certify(r).expect("rejoiner").0;
                assert_eq!(a, b, "kind {:?} txn {} diverged after clone", kind.name(), r.txn);
            }
            // Independence: mutating the copy leaves the donor untouched.
            rejoiner.gc(rejoiner.last_committed());
            assert_eq!(rejoiner.history_len(), 0);
            assert!(donor.history_len() > 0, "donor unaffected by the copy's gc");
        }
    }
}
