//! Run metrics: everything the paper's §5 plots and tables need.

use dbsm_cert::CertWork;
use dbsm_db::AbortReason;
use dbsm_gcs::GcsMetrics;
use dbsm_sim::stats::Samples;
use dbsm_sim::SimTime;
use dbsm_tpcc::TxnClass;

/// Per-class counters and latency samples.
#[derive(Debug, Clone, Default)]
pub struct ClassStats {
    /// Requests submitted.
    pub submitted: u64,
    /// Commits.
    pub committed: u64,
    /// Aborts by deliberate rollback.
    pub aborted_user: u64,
    /// Aborts by write-write conflict (waiter on a committed lock).
    pub aborted_ww: u64,
    /// Aborts by remote preemption.
    pub aborted_remote: u64,
    /// Aborts by certification.
    pub aborted_cert: u64,
    /// End-to-end latency of committed transactions, in milliseconds.
    pub latencies_ms: Samples,
}

impl ClassStats {
    /// Total aborts, any reason.
    pub fn aborted(&self) -> u64 {
        self.aborted_user + self.aborted_ww + self.aborted_remote + self.aborted_cert
    }

    /// Abort rate in percent (aborts / completed).
    pub fn abort_rate(&self) -> f64 {
        let done = self.committed + self.aborted();
        if done == 0 {
            0.0
        } else {
            self.aborted() as f64 * 100.0 / done as f64
        }
    }

    pub(crate) fn record_abort(&mut self, reason: AbortReason) {
        match reason {
            AbortReason::User => self.aborted_user += 1,
            AbortReason::WwConflict => self.aborted_ww += 1,
            AbortReason::RemotePreempt => self.aborted_remote += 1,
            AbortReason::Certification => self.aborted_cert += 1,
        }
    }
}

/// Total certification work performed across all sites in one run — the
/// observable that distinguishes the backends: the linear scan accumulates
/// `history_scanned`/`comparisons` and the indexed backend accumulates
/// `probes`. Decisions are identical either way; this is the cost ledger.
/// Price it in nanoseconds with [`CertCostModel::total_work_ns`].
///
/// [`CertCostModel::total_work_ns`]: crate::CertCostModel::total_work_ns
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CertWorkTotals {
    /// Certifications performed (update + local read-only validations).
    pub certifications: u64,
    /// Committed transactions examined by linear scans.
    pub history_scanned: u64,
    /// Ordered-merge comparison steps by linear scans.
    pub comparisons: u64,
    /// Index lookups by the indexed backend.
    pub probes: u64,
    /// Data-dependent certification nanoseconds charged inline to the
    /// delivery loop: every conflict check stalls it for this long.
    pub stall_ns: u64,
    /// Read/write-set entries that fell inside the certifying site's
    /// replicated span, summed over partial-replication certifications
    /// (zero under full replication).
    pub span_covered: u64,
    /// Read/write-set entries examined under partial replication, local or
    /// not (zero under full replication).
    pub span_total: u64,
    /// Per-span verdicts merged for cross-span transactions: each remote
    /// span owner that had to vote counts once (partial replication only).
    pub vote_rounds: u64,
    /// Update transactions whose read/write set crossed the origin site's
    /// span and therefore needed a vote round (partial replication only).
    pub cross_span_txns: u64,
}

impl CertWorkTotals {
    pub(crate) fn record(&mut self, work: CertWork) {
        self.certifications += 1;
        self.history_scanned += work.history_scanned as u64;
        self.comparisons += work.comparisons as u64;
        self.probes += work.probes as u64;
    }

    /// Accumulates one partial-replication certification's span coverage:
    /// `covered` of the request's `total` read/write-set entries were local
    /// to the certifying site's span.
    pub(crate) fn record_span(&mut self, covered: u64, total: u64) {
        self.span_covered += covered;
        self.span_total += total;
    }

    /// Mean linear-scan comparisons per certification.
    pub fn mean_comparisons(&self) -> f64 {
        if self.certifications == 0 {
            0.0
        } else {
            self.comparisons as f64 / self.certifications as f64
        }
    }

    /// Mean index probes per certification.
    pub fn mean_probes(&self) -> f64 {
        if self.certifications == 0 {
            0.0
        } else {
            self.probes as f64 / self.certifications as f64
        }
    }

    /// Mean microseconds per certification the delivery loop stalled on
    /// data-dependent conflict checks.
    pub fn mean_stall_us(&self) -> f64 {
        if self.certifications == 0 {
            0.0
        } else {
            self.stall_ns as f64 / 1e3 / self.certifications as f64
        }
    }

    /// Fraction of examined read/write-set entries that were local to the
    /// certifying site's span — 1.0 under full replication (nothing was
    /// filtered) and k/N-ish under a balanced partial placement.
    pub fn span_fraction(&self) -> f64 {
        if self.span_total == 0 {
            1.0
        } else {
            self.span_covered as f64 / self.span_total as f64
        }
    }
}

/// Total-order announcement work across all sites in one run — the
/// observable for the announcement-batching ablation (§5.3): how many
/// `SeqAnn` messages the sequencer actually spent, how many assignments
/// each carried, and how many assignments rode application fragments for
/// free. Delivery order is identical under every batching policy; this is
/// the cost ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnnWorkTotals {
    /// `SeqAnn` announcement messages sent through the reliable layer.
    pub announcements: u64,
    /// Assignments carried by those announcement messages.
    pub assigns_carried: u64,
    /// Assignments piggybacked on application fragments (zero extra
    /// messages).
    pub piggybacked: u64,
}

impl AnnWorkTotals {
    pub(crate) fn record_site(&mut self, m: &GcsMetrics) {
        self.announcements += m.ann_sent;
        self.assigns_carried += m.ann_assigns;
        self.piggybacked += m.ann_piggybacked;
    }

    /// Mean assignments per announcement message (batch size).
    pub fn mean_batch(&self) -> f64 {
        if self.announcements == 0 {
            0.0
        } else {
            self.assigns_carried as f64 / self.announcements as f64
        }
    }

    /// All assignments announced, by message or by piggyback.
    pub fn assigns_total(&self) -> u64 {
        self.assigns_carried + self.piggybacked
    }
}

/// Fault-machinery work across one run — the observable that prices each
/// fault scenario family (§5.3 and the partition/duplicate/burst families
/// beyond it): how many duplicate packets the network injected and how many
/// the GCS dedup path absorbed, how much traffic died at partition
/// boundaries, and how many view installs the membership machinery
/// performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultWorkTotals {
    /// Duplicate packet copies injected by the duplicate-delivery fault.
    pub dup_injected: u64,
    /// Duplicate fragments discarded by the GCS dedup path (includes
    /// retransmission overlap, which rides the same counter).
    pub dup_discarded: u64,
    /// Packets dropped at a partition boundary.
    pub partition_drops: u64,
    /// View installs performed, summed across all sites (a single
    /// reconfiguration of `n` surviving sites counts `n`).
    pub view_installs: u64,
}

impl FaultWorkTotals {
    pub(crate) fn record_site(&mut self, m: &GcsMetrics) {
        self.dup_discarded += m.duplicates;
        self.view_installs += m.view_changes;
    }
}

/// Wire-level certification-vote work across one run — the observable for
/// the decentralized vote round (partial replication): how many `Vote`
/// records the stacks put on the wire, how many rode outgoing data frames
/// for free, how many needed resending, and how long origin sites waited
/// from a transaction's total-order delivery to its quorum decision. All
/// zeros under full replication (no votes are cast).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VoteWireTotals {
    /// Vote records sent through the reliable layer, summed over sites.
    pub sent: u64,
    /// Vote records received (loopback self-delivery included).
    pub received: u64,
    /// Vote records that rode outgoing data frames' MTU slack instead of
    /// costing a dedicated message.
    pub piggybacked: u64,
    /// Vote records retransmitted by the heartbeat resend path.
    pub resends: u64,
    /// Update transactions decided at their origin site via the wire-vote
    /// quorum (one per update transaction under partial replication).
    pub decided: u64,
    /// Total nanoseconds origin sites spent between a transaction's
    /// total-order delivery and its covering-quorum decision.
    pub wait_ns: u64,
    /// Vote records sent per site — distinguishes a site that rejoined and
    /// resumed voting (nonzero in its latest incarnation) from one that
    /// stayed quiet.
    pub per_site_sent: Vec<u64>,
}

impl VoteWireTotals {
    pub(crate) fn record_site(&mut self, m: &GcsMetrics) {
        self.sent += m.votes_sent;
        self.received += m.votes_received;
        self.piggybacked += m.votes_piggybacked;
        self.resends += m.vote_resends;
        self.per_site_sent.push(m.votes_sent);
    }

    /// Mean milliseconds an origin site waited from total-order delivery
    /// to the quorum decision.
    pub fn mean_wait_ms(&self) -> f64 {
        if self.decided == 0 {
            0.0
        } else {
            self.wait_ns as f64 / 1e6 / self.decided as f64
        }
    }

    /// Fraction of sent votes that piggybacked on data frames.
    pub fn piggyback_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            self.piggybacked as f64 / self.sent as f64
        }
    }
}

/// Recovery-machinery work across one run — the observable that prices the
/// snapshot + delta-log rejoin path: how many state transfers live members
/// served, how many bytes crossed the wire as snapshot versus delta log, how
/// many committed entries the rejoiner replayed, and how long each restarted
/// site took from restart to serving clients again (time-to-useful).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryWorkTotals {
    /// Sites that completed the rejoin protocol (restart → view install →
    /// state adoption → serving clients).
    pub rejoins: u64,
    /// State-transfer snapshots served by live members (one per grant).
    pub snapshots_served: u64,
    /// Bytes of database snapshot shipped, priced per warehouse owned by
    /// the rejoiner (all warehouses under full replication).
    pub snapshot_bytes: u64,
    /// Bytes of delta log shipped: committed entries between the
    /// rejoiner's pre-crash commit point and the transfer cut.
    pub delta_bytes: u64,
    /// Committed entries the rejoiner replayed from the delta log.
    pub replayed_entries: u64,
    /// Total nanoseconds from restart to serving clients, summed over
    /// rejoins.
    pub ttu_ns_total: u64,
}

impl RecoveryWorkTotals {
    /// Total state-transfer bytes (snapshot + delta log).
    pub fn total_bytes(&self) -> u64 {
        self.snapshot_bytes + self.delta_bytes
    }

    /// Mean time-to-useful per rejoin, in milliseconds.
    pub fn mean_ttu_ms(&self) -> f64 {
        if self.rejoins == 0 {
            0.0
        } else {
            self.ttu_ns_total as f64 / 1e6 / self.rejoins as f64
        }
    }
}

/// Re-placement work across one run — the observable that prices re-homing
/// spans stranded by churn: how many view changes forced an election, how
/// many spans moved to a surviving adopter, how many bytes of span state
/// crossed the wire, how long each re-homed span took from view install to
/// serving again, how many in-flight vote rounds had to be re-collected
/// against the new owner, and how long stranded clients sat parked.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplacementWorkTotals {
    /// View changes that stranded at least one span and triggered a
    /// rendezvous election plus state transfer.
    pub replacements: u64,
    /// Spans re-homed onto a surviving adopter.
    pub rehomed_spans: u64,
    /// Bytes of span state shipped to adopters, priced per warehouse.
    pub transfer_bytes: u64,
    /// Total nanoseconds from view install to the adopter serving the
    /// span, summed over re-homed spans.
    pub time_to_serving_ns_total: u64,
    /// In-flight cross-span vote rounds whose adopter vote had to be
    /// re-collected under the new ownership.
    pub vote_rounds_recollected: u64,
    /// Total nanoseconds clients of stranded spans spent parked before the
    /// transfer completed and they resumed.
    pub parked_ns: u64,
}

impl ReplacementWorkTotals {
    /// Mean view-install-to-serving time per re-homed span, in
    /// milliseconds.
    pub fn mean_time_to_serving_ms(&self) -> f64 {
        if self.rehomed_spans == 0 {
            0.0
        } else {
            self.time_to_serving_ns_total as f64 / 1e6 / self.rehomed_spans as f64
        }
    }

    /// Total client parked time in milliseconds.
    pub fn parked_ms(&self) -> f64 {
        self.parked_ns as f64 / 1e6
    }
}

/// One completed rejoin: which site came back, where its retained log
/// stood, where the transfer cut was, and how long until it served clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RejoinRecord {
    /// The site that rejoined.
    pub site: u16,
    /// Commit-log entries the site retained from before the crash.
    pub kept: usize,
    /// Reference-log position of the transfer cut: entries `[kept, cut)`
    /// arrived as state transfer, not as individual commits.
    pub cut: usize,
    /// Restart to serving clients.
    pub ttu: SimTime,
}

/// Per-site resource usage over the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SiteUsage {
    /// Fraction of CPU time busy (all jobs).
    pub cpu_total: f64,
    /// Fraction of CPU time busy with protocol (real) jobs.
    pub cpu_real: f64,
    /// Storage utilisation fraction.
    pub disk: f64,
}

/// Everything measured in one experiment run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Per-class statistics, indexed by [`TxnClass::index`].
    pub per_class: Vec<ClassStats>,
    /// Certification latency samples (commit-request to outcome at the
    /// origin site), in milliseconds — Fig. 7(b).
    pub cert_latencies_ms: Samples,
    /// Certification work totals across all sites (scans vs probes).
    pub cert_work: CertWorkTotals,
    /// Announcement work totals across all sites (messages vs piggybacks).
    pub ann_work: AnnWorkTotals,
    /// Fault-machinery work: duplicates injected/absorbed, partition drops,
    /// view installs.
    pub fault_work: FaultWorkTotals,
    /// Wire-level certification-vote work: votes sent/piggybacked/resent
    /// and origin-side quorum wait (partial replication; zero otherwise).
    pub vote_wire: VoteWireTotals,
    /// Committed transactions per site, in commit order (safety check).
    pub commit_logs: Vec<Vec<(u16, u64)>>,
    /// Per-site resource usage (Fig. 6a/6b, Fig. 7c).
    pub site_usage: Vec<SiteUsage>,
    /// Total bytes put on the wire by all hosts.
    pub network_tx_bytes: u64,
    /// Simulated duration of the measured portion.
    pub elapsed: SimTime,
    /// Sites crashed by fault injection (and not yet rejoined).
    pub crashed_sites: Vec<u16>,
    /// Recovery-machinery work: snapshots served, transfer bytes, replayed
    /// entries, time-to-useful.
    pub recovery_work: RecoveryWorkTotals,
    /// One record per completed rejoin, in completion order.
    pub rejoins: Vec<RejoinRecord>,
    /// Re-placement work: spans re-homed after churn stranded them, bytes
    /// transferred, vote rounds re-collected, client parked time.
    pub replacement_work: ReplacementWorkTotals,
}

impl RunMetrics {
    /// Creates metrics for `sites` sites.
    pub fn new(sites: usize) -> Self {
        RunMetrics {
            per_class: (0..TxnClass::ALL.len()).map(|_| ClassStats::default()).collect(),
            commit_logs: vec![Vec::new(); sites],
            site_usage: vec![SiteUsage::default(); sites],
            ..RunMetrics::default()
        }
    }

    /// Stats of one class.
    pub fn class(&self, c: TxnClass) -> &ClassStats {
        &self.per_class[c.index() as usize]
    }

    /// Mutable stats of one class.
    pub fn class_mut(&mut self, c: TxnClass) -> &mut ClassStats {
        &mut self.per_class[c.index() as usize]
    }

    /// Total committed transactions.
    pub fn committed(&self) -> u64 {
        self.per_class.iter().map(|c| c.committed).sum()
    }

    /// Total aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.per_class.iter().map(|c| c.aborted()).sum()
    }

    /// Committed transactions per minute of simulated time (Fig. 5a).
    pub fn tpm(&self) -> f64 {
        let mins = self.elapsed.as_secs_f64() / 60.0;
        if mins == 0.0 {
            0.0
        } else {
            self.committed() as f64 / mins
        }
    }

    /// Overall abort rate in percent (the "All" row of Tables 1 and 2).
    pub fn abort_rate(&self) -> f64 {
        let done = self.committed() + self.aborted();
        if done == 0 {
            0.0
        } else {
            self.aborted() as f64 * 100.0 / done as f64
        }
    }

    /// Mean latency over all committed transactions, in milliseconds
    /// (Fig. 5b).
    pub fn mean_latency_ms(&self) -> f64 {
        let mut all = Samples::new();
        for c in &self.per_class {
            all.merge(&c.latencies_ms);
        }
        all.mean()
    }

    /// All committed-transaction latencies pooled (Fig. 7a ECDFs).
    pub fn pooled_latencies_ms(&self) -> Samples {
        let mut all = Samples::new();
        for c in &self.per_class {
            all.merge(&c.latencies_ms);
        }
        all
    }

    /// Network throughput in KB/s of simulated time (Fig. 6c).
    pub fn network_kbps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.network_tx_bytes as f64 / 1024.0 / secs
        }
    }

    /// Mean CPU usage across sites (total / real jobs), as fractions.
    pub fn mean_cpu_usage(&self) -> (f64, f64) {
        if self.site_usage.is_empty() {
            return (0.0, 0.0);
        }
        let n = self.site_usage.len() as f64;
        (
            self.site_usage.iter().map(|u| u.cpu_total).sum::<f64>() / n,
            self.site_usage.iter().map(|u| u.cpu_real).sum::<f64>() / n,
        )
    }

    /// Per-site rejoin cuts in the shape [`check_logs_rejoined_multi`]
    /// expects, sized to `commit_logs`. A site that never rejoined maps to
    /// an empty list; a site a plan restarted several times keeps **every**
    /// completed rejoin's cut, in completion order — the chain checker
    /// re-bases each log segment on the cut that preceded it.
    ///
    /// [`check_logs_rejoined_multi`]: dbsm_fault::check_logs_rejoined_multi
    pub fn rejoin_cuts(&self) -> Vec<Vec<dbsm_fault::RejoinCut>> {
        let mut cuts = vec![Vec::new(); self.commit_logs.len()];
        for r in &self.rejoins {
            cuts[r.site as usize].push(dbsm_fault::RejoinCut { kept: r.kept, cut: r.cut });
        }
        cuts
    }

    /// Mean disk utilisation across sites.
    pub fn mean_disk_usage(&self) -> f64 {
        if self.site_usage.is_empty() {
            return 0.0;
        }
        self.site_usage.iter().map(|u| u.disk).sum::<f64>() / self.site_usage.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_rate_math() {
        let mut m = RunMetrics::new(1);
        let c = m.class_mut(TxnClass::NewOrder);
        c.committed = 90;
        c.record_abort(AbortReason::WwConflict);
        for _ in 0..9 {
            c.record_abort(AbortReason::Certification);
        }
        assert_eq!(c.aborted(), 10);
        assert!((c.abort_rate() - 10.0).abs() < 1e-9);
        assert!((m.abort_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn tpm_uses_elapsed_time() {
        let mut m = RunMetrics::new(1);
        m.class_mut(TxnClass::PaymentShort).committed = 300;
        m.elapsed = SimTime::from_secs(120);
        assert!((m.tpm() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn pooled_latencies_merge_classes() {
        let mut m = RunMetrics::new(1);
        m.class_mut(TxnClass::NewOrder).latencies_ms.record(5.0);
        m.class_mut(TxnClass::PaymentLong).latencies_ms.record(15.0);
        let pooled = m.pooled_latencies_ms();
        assert_eq!(pooled.len(), 2);
        assert!((m.mean_latency_ms() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = RunMetrics::new(2);
        assert_eq!(m.tpm(), 0.0);
        assert_eq!(m.abort_rate(), 0.0);
        assert_eq!(m.network_kbps(), 0.0);
        assert_eq!(m.mean_cpu_usage(), (0.0, 0.0));
        assert_eq!(m.cert_work.mean_comparisons(), 0.0);
        assert_eq!(m.cert_work.mean_probes(), 0.0);
    }

    #[test]
    fn ann_work_totals_accumulate_and_average() {
        let mut t = AnnWorkTotals::default();
        let site = GcsMetrics {
            ann_sent: 4,
            ann_assigns: 12,
            ann_piggybacked: 5,
            ..GcsMetrics::default()
        };
        t.record_site(&site);
        t.record_site(&GcsMetrics::default()); // non-sequencer site: all zero
        assert_eq!(t.announcements, 4);
        assert_eq!(t.assigns_carried, 12);
        assert_eq!(t.piggybacked, 5);
        assert_eq!(t.assigns_total(), 17);
        assert!((t.mean_batch() - 3.0).abs() < 1e-12);
        assert_eq!(AnnWorkTotals::default().mean_batch(), 0.0);
    }

    #[test]
    fn fault_work_totals_accumulate_across_sites() {
        let mut t = FaultWorkTotals::default();
        t.record_site(&GcsMetrics { duplicates: 7, view_changes: 1, ..GcsMetrics::default() });
        t.record_site(&GcsMetrics { duplicates: 3, view_changes: 1, ..GcsMetrics::default() });
        assert_eq!(t.dup_discarded, 10);
        assert_eq!(t.view_installs, 2);
        assert_eq!(t.dup_injected, 0, "network-side counters are filled by the runner");
    }

    #[test]
    fn cert_work_totals_accumulate_and_average() {
        let mut t = CertWorkTotals::default();
        t.record(CertWork { history_scanned: 3, comparisons: 12, ..CertWork::default() });
        t.record(CertWork { probes: 8, ..CertWork::default() });
        assert_eq!(t.certifications, 2);
        assert_eq!(t.history_scanned, 3);
        assert_eq!(t.comparisons, 12);
        assert_eq!(t.probes, 8);
        assert!((t.mean_comparisons() - 6.0).abs() < 1e-12);
        assert!((t.mean_probes() - 4.0).abs() < 1e-12);
        assert_eq!(t.mean_stall_us(), 0.0, "nothing charged to the delivery loop yet");
        t.stall_ns = 3_000;
        assert!((t.mean_stall_us() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn span_coverage_accumulates_and_defaults_to_full() {
        let mut t = CertWorkTotals::default();
        assert_eq!(t.span_fraction(), 1.0, "full replication filters nothing");
        t.record_span(3, 10);
        t.record_span(2, 10);
        assert_eq!((t.span_covered, t.span_total), (5, 20));
        assert!((t.span_fraction() - 0.25).abs() < 1e-12);
        t.vote_rounds += 2;
        t.cross_span_txns += 1;
        assert_eq!((t.vote_rounds, t.cross_span_txns), (2, 1));
    }

    #[test]
    fn recovery_work_totals_price_the_transfer_and_average_ttu() {
        let mut t = RecoveryWorkTotals::default();
        assert_eq!(t.mean_ttu_ms(), 0.0);
        t.rejoins = 2;
        t.snapshots_served = 2;
        t.snapshot_bytes = 4 << 20;
        t.delta_bytes = 1536;
        t.replayed_entries = 2;
        t.ttu_ns_total = 3_000_000_000;
        assert_eq!(t.total_bytes(), (4 << 20) + 1536);
        assert!((t.mean_ttu_ms() - 1500.0).abs() < 1e-9);
    }

    #[test]
    fn replacement_work_totals_average_serving_time_per_span() {
        let mut t = ReplacementWorkTotals::default();
        assert_eq!(t.mean_time_to_serving_ms(), 0.0);
        assert_eq!(t.parked_ms(), 0.0);
        t.replacements = 1;
        t.rehomed_spans = 4;
        t.transfer_bytes = 8 << 20;
        t.time_to_serving_ns_total = 6_000_000_000;
        t.vote_rounds_recollected = 3;
        t.parked_ns = 2_500_000;
        assert!((t.mean_time_to_serving_ms() - 1500.0).abs() < 1e-9);
        assert!((t.parked_ms() - 2.5).abs() < 1e-12);
        assert_eq!(RunMetrics::new(2).replacement_work, ReplacementWorkTotals::default());
    }

    #[test]
    fn rejoin_cuts_keep_every_rejoin_per_site() {
        let mut m = RunMetrics::new(3);
        m.rejoins.push(RejoinRecord { site: 2, kept: 4, cut: 9, ttu: SimTime::from_secs(1) });
        m.rejoins.push(RejoinRecord { site: 2, kept: 9, cut: 20, ttu: SimTime::from_secs(1) });
        let cuts = m.rejoin_cuts();
        assert_eq!(cuts.len(), 3);
        assert!(cuts[0].is_empty());
        assert!(cuts[1].is_empty());
        assert_eq!(
            cuts[2],
            vec![
                dbsm_fault::RejoinCut { kept: 4, cut: 9 },
                dbsm_fault::RejoinCut { kept: 9, cut: 20 },
            ],
        );
    }

    #[test]
    fn vote_wire_totals_accumulate_and_average() {
        let mut t = VoteWireTotals::default();
        t.record_site(&GcsMetrics {
            votes_sent: 10,
            votes_received: 30,
            votes_piggybacked: 6,
            vote_resends: 2,
            ..GcsMetrics::default()
        });
        t.record_site(&GcsMetrics { votes_received: 10, ..GcsMetrics::default() });
        assert_eq!((t.sent, t.received, t.piggybacked, t.resends), (10, 40, 6, 2));
        assert_eq!(t.per_site_sent, vec![10, 0]);
        assert!((t.piggyback_rate() - 0.6).abs() < 1e-12);
        assert_eq!(t.mean_wait_ms(), 0.0, "no decisions recorded yet");
        t.decided = 4;
        t.wait_ns = 2_000_000;
        assert!((t.mean_wait_ms() - 0.5).abs() < 1e-12);
        assert_eq!(VoteWireTotals::default().piggyback_rate(), 0.0);
    }
}
