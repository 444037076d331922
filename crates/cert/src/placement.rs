//! The index-placement abstraction behind the indexed and span-restricted
//! certifiers, and the generic history certifier written once over it.
//!
//! [`IndexedCertifier`](crate::IndexedCertifier) and
//! [`SpanCertifier`](crate::SpanCertifier) differ only in *which* committed
//! writes land in the probe index and *which* read-set entries are probed —
//! the history window, sequence numbering and garbage collection are
//! identical. [`IndexPlacement`] captures exactly the varying part;
//! [`HistoryCertifier`] supplies the invariant scaffolding once.

use crate::certifier::{CertWork, HistoryTruncated, Outcome};
use crate::request::CertRequest;
use crate::rwset::RwSet;
use std::collections::{HashMap, VecDeque};

/// Per-table slice of the write-history index.
///
/// All three containers hold *ascending* sequence numbers: commits arrive in
/// total order, so insertion is a push to the back, and garbage collection —
/// which retires the globally oldest history entry first — is a pop from the
/// front. A conflict probe is then a single `partition_point` for the first
/// sequence number above the request's snapshot.
#[derive(Debug, Clone, Default)]
pub(crate) struct TableIndex {
    /// Row number → sequence numbers of committed transactions that wrote it.
    pub(crate) rows: HashMap<u64, VecDeque<u64>>,
    /// Sequence numbers of table-level (wildcard) writes to this table.
    pub(crate) wildcard: VecDeque<u64>,
    /// Sequence numbers of *any* write touching this table (row or
    /// wildcard), deduplicated — the list a wildcard *read* probes.
    pub(crate) any_writer: VecDeque<u64>,
}

impl TableIndex {
    pub(crate) fn is_empty(&self) -> bool {
        self.rows.is_empty() && self.wildcard.is_empty() && self.any_writer.is_empty()
    }
}

/// Smallest sequence number in `seqs` strictly above `start_seq`.
pub(crate) fn first_above(seqs: &VecDeque<u64>, start_seq: u64) -> Option<u64> {
    let i = seqs.partition_point(|s| *s <= start_seq);
    seqs.get(i).copied()
}

/// Pops the front of `seqs` when it equals the sequence number being
/// garbage-collected; eviction follows history order, so the retired
/// sequence number is always the oldest one present.
pub(crate) fn evict_front(seqs: &mut VecDeque<u64>, seq: u64) {
    debug_assert!(seqs.front().is_none_or(|s| *s >= seq), "eviction out of order");
    if seqs.front() == Some(&seq) {
        seqs.pop_front();
    }
}

/// Where committed writes are indexed and which read-set entries are
/// probed — the only part that differs between the unified and
/// span-restricted certifiers. [`HistoryCertifier`] supplies everything
/// else.
///
/// Implementations must be deterministic: for the tuples a placement
/// indexes, the conflict answer returned by [`IndexPlacement::probe`] must
/// equal the linear scan's first hit.
pub trait IndexPlacement {
    /// Probes for the lowest sequence number strictly above `start_seq`
    /// whose indexed write-set intersects `read_set`, adding one to
    /// `probes` per index lookup performed.
    fn probe(&self, read_set: &RwSet, start_seq: u64, probes: &mut usize) -> Option<u64>;

    /// Indexes a committed write-set under `seq` (sequence numbers arrive
    /// strictly increasing).
    fn index_writes(&mut self, seq: u64, writes: &RwSet);

    /// Removes one retired history entry's contributions from the index
    /// (entries retire oldest-first).
    fn unindex_writes(&mut self, seq: u64, writes: &RwSet);
}

/// The certification scaffolding shared by every indexed backend: the
/// committed-history window, total-order sequence numbering and garbage
/// collection — generic over the [`IndexPlacement`] that decides where
/// writes are indexed.
///
/// Use through its concrete aliases
/// [`IndexedCertifier`](crate::IndexedCertifier) and
/// [`SpanCertifier`](crate::SpanCertifier).
#[derive(Debug, Clone)]
pub struct HistoryCertifier<P> {
    /// The probe index — the part that varies per backend.
    pub(crate) place: P,
    /// Committed `(seq, write_set)` pairs, oldest first — retained only to
    /// drive incremental index eviction on gc.
    history: VecDeque<(u64, RwSet)>,
    /// Next global sequence number to assign.
    next_seq: u64,
    /// All sequence numbers `<= low_water` have been garbage collected.
    low_water: u64,
}

impl<P: IndexPlacement> HistoryCertifier<P> {
    /// Wraps a placement in the shared certification scaffolding; the first
    /// committed transaction receives sequence number 1.
    pub fn from_placement(place: P) -> Self {
        HistoryCertifier { place, history: VecDeque::new(), next_seq: 1, low_water: 0 }
    }

    /// Rebuilds the retained history on top of a *different* placement.
    ///
    /// This is the receiving half of rejoin state transfer under partial
    /// placement: the donor holds the full history, and the rejoiner only
    /// wants the rows its spans own, so the transfer re-indexes every
    /// retained write-set through `place` instead of shipping the donor's
    /// index verbatim.
    pub fn reproject<Q: IndexPlacement>(&self, mut place: Q) -> HistoryCertifier<Q> {
        for (seq, writes) in &self.history {
            place.index_writes(*seq, writes);
        }
        HistoryCertifier {
            place,
            history: self.history.clone(),
            next_seq: self.next_seq,
            low_water: self.low_water,
        }
    }

    /// Sequence number of the last committed transaction (0 if none).
    pub fn last_committed(&self) -> u64 {
        self.next_seq - 1
    }

    /// Number of write-sets retained.
    pub fn history_len(&self) -> usize {
        self.history.len()
    }

    /// Oldest garbage-collected sequence number.
    pub fn low_water(&self) -> u64 {
        self.low_water
    }

    /// Probes the placement, reporting the lookups performed as
    /// [`CertWork::probes`].
    fn probe_conflicts(&self, read_set: &RwSet, start_seq: u64) -> (Option<u64>, CertWork) {
        let mut probes = 0;
        let conflict = self.place.probe(read_set, start_seq, &mut probes);
        (conflict, CertWork { probes, ..CertWork::default() })
    }

    /// Appends a commit: assigns the next sequence number and indexes the
    /// write-set (empty write-sets leave no history).
    fn commit(&mut self, req: &CertRequest) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if !req.write_set.is_empty() {
            self.place.index_writes(seq, &req.write_set);
            self.history.push_back((seq, req.write_set.clone()));
        }
        seq
    }

    /// Certifies a request delivered in total order; same contract and same
    /// decisions as [`LinearCertifier::certify`](crate::LinearCertifier::certify),
    /// at O(request) probe cost.
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn certify(&mut self, req: &CertRequest) -> Result<(Outcome, CertWork), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        let (conflict, work) = self.probe_conflicts(&req.read_set, req.start_seq);
        if let Some(conflict_seq) = conflict {
            return Ok((Outcome::Abort { conflict_seq }, work));
        }
        let seq = self.commit(req);
        Ok((Outcome::Commit(seq), work))
    }

    /// Local read-only validation; same contract as
    /// [`LinearCertifier::certify_read_only`](crate::LinearCertifier::certify_read_only).
    pub fn certify_read_only(&self, read_set: &RwSet, start_seq: u64) -> (bool, CertWork) {
        let (conflict, work) = self.probe_conflicts(read_set, start_seq);
        (conflict.is_none(), work)
    }

    /// The probe half of [`HistoryCertifier::certify`], with no state
    /// change: this site's *verdict* on the request — the lowest conflicting
    /// sequence number among the tuples this placement indexes, or `None`.
    ///
    /// Under partial replication ([`SpanCertifier`](crate::SpanCertifier))
    /// each replica votes only on its local span; combining a covering set
    /// of votes with [`merge_votes`](crate::merge_votes) reproduces the
    /// full-replication conflict answer bit for bit, because the global
    /// earliest conflict is the minimum of the per-span earliest conflicts.
    /// The decision is applied separately via [`HistoryCertifier::apply`].
    ///
    /// # Errors
    ///
    /// Returns [`HistoryTruncated`] if `req.start_seq` predates the garbage
    /// collection low-water mark.
    pub fn vote(&self, req: &CertRequest) -> Result<(Option<u64>, CertWork), HistoryTruncated> {
        if req.start_seq < self.low_water {
            return Err(HistoryTruncated { start_seq: req.start_seq, low_water: self.low_water });
        }
        Ok(self.probe_conflicts(&req.read_set, req.start_seq))
    }

    /// The state-change half of [`HistoryCertifier::certify`]: applies an
    /// externally merged decision. A commit must carry the next sequence
    /// number in total order — every replica applies the same decision
    /// stream, so the counters stay in lockstep; aborts consume nothing.
    pub fn apply(&mut self, req: &CertRequest, outcome: Outcome) {
        if let Outcome::Commit(seq) = outcome {
            debug_assert_eq!(seq, self.next_seq, "decision applied out of order");
            let assigned = self.commit(req);
            debug_assert_eq!(assigned, seq);
            let _ = assigned;
        }
    }

    /// Discards history at or below `stable_seq` (clamped to
    /// [`HistoryCertifier::last_committed`]), incrementally evicting the
    /// retired entries from the placement.
    pub fn gc(&mut self, stable_seq: u64) {
        let stable_seq = stable_seq.min(self.last_committed());
        while let Some((seq, _)) = self.history.front() {
            if *seq > stable_seq {
                break;
            }
            let (seq, writes) = self.history.pop_front().expect("front just checked");
            self.place.unindex_writes(seq, &writes);
        }
        self.low_water = self.low_water.max(stable_seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{TableId, TupleId};
    use crate::{IndexedCertifier, SiteId};

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
    fn reproject_rebuilds_history_on_a_new_placement() {
        fn span_of(t: TupleId) -> Option<u64> {
            Some(t.row() % 2)
        }
        let mut oracle = IndexedCertifier::new();
        oracle.certify(&req(0, 1, 0, &[], &[id(1, 2)])).expect("even row"); // seq 1, span 0
        oracle.certify(&req(0, 2, 1, &[], &[id(1, 3)])).expect("odd row"); // seq 2, span 1
        let mut local = oracle.reproject(crate::span::SpanPlacement::new(span_of, [0]));
        assert_eq!(local.last_committed(), oracle.last_committed());
        assert_eq!(local.history_len(), oracle.history_len());
        assert_eq!(local.low_water(), oracle.low_water());
        // The re-indexed placement sees the owned row's writer…
        let (v, _) = local.vote(&req(1, 3, 0, &[id(1, 2)], &[])).expect("vote");
        assert_eq!(v, Some(1), "owned span was re-indexed from the donor history");
        // …and sequencing resumes exactly where the donor left off.
        let (o, _) = local.certify(&req(1, 4, 2, &[], &[id(1, 4)])).expect("post-rejoin commit");
        assert_eq!(o, Outcome::Commit(3));
    }
}
