//! Report formatting: renders run metrics as the rows the paper's tables
//! and figure series print.

use crate::metrics::RunMetrics;
use dbsm_tpcc::TxnClass;

/// Formats Table 1/2-style abort-rate rows: one line per class plus "All".
pub fn abort_table(columns: &[(&str, &RunMetrics)]) -> String {
    let mut out = String::new();
    out.push_str(&format!("{:<22}", "Transaction"));
    for (name, _) in columns {
        out.push_str(&format!("{name:>16}"));
    }
    out.push('\n');
    for class in TxnClass::ALL {
        out.push_str(&format!("{:<22}", class.name()));
        for (_, m) in columns {
            out.push_str(&format!("{:>16.2}", m.class(class).abort_rate()));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<22}", "All"));
    for (_, m) in columns {
        out.push_str(&format!("{:>16.2}", m.abort_rate()));
    }
    out.push('\n');
    out
}

/// Formats one Fig. 5/6-style series row: clients plus a value per
/// configuration.
pub fn series_row(clients: usize, values: &[f64]) -> String {
    let mut out = format!("{clients:>8}");
    for v in values {
        out.push_str(&format!("{v:>12.1}"));
    }
    out
}

/// Header for a series: clients plus configuration names.
pub fn series_header(configs: &[&str]) -> String {
    let mut out = format!("{:>8}", "clients");
    for c in configs {
        out.push_str(&format!("{c:>12}"));
    }
    out
}

/// Formats an ECDF as `value cumulative` pairs (gnuplot-ready).
pub fn ecdf_lines(points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    for (v, f) in points {
        out.push_str(&format!("{v:>12.3} {f:>8.4}\n"));
    }
    out
}

/// One-line run summary. The `cert=` section reads
/// `comparisons/probes/stall` — means per certification of the linear
/// scan's merge comparisons, the index's probes, and the microseconds the
/// data-dependent conflict check `st`alled the delivery loop. The `span=`
/// fraction is how much of the examined read/write-set entries were local
/// to the certifying site's replicated span (1.00 under full replication)
/// and `vote=` counts the
/// partial-replication vote rounds over the cross-span transactions that
/// needed them. The `wire=` section is the decentralized vote traffic
/// ledger: votes `s`ent, `r`eceived, `p`iggybacked on data frames, and
/// retransmitted (`x`), with `wait=` the mean origin-side gap between a
/// transaction's delivery and its quorum decision — all zero under full
/// replication, where no wire votes flow. The `rec=` section is the
/// recovery ledger: completed
/// rejoins over snapshots served, snapshot+delta transfer kilobytes,
/// delta-log entries replayed, and the mean time-to-useful per rejoin —
/// all zero for runs without restarts. The `repl=` section is the
/// re-placement ledger: view changes that stranded spans over spans
/// re-homed, state-transfer kilobytes, vote rounds re-collected against
/// the new owner, mean view-install-to-serving milliseconds per span, and
/// total client parked milliseconds — all zero when churn never leaves a
/// span without a live replica.
pub fn summary_line(label: &str, m: &RunMetrics) -> String {
    format!(
        "{label}: tpm={:.0} latency={:.1}ms aborts={:.2}% cpu={:.0}%/{:.2}% disk={:.0}% net={:.0}KB/s cert={:.1}cmp/{:.1}probe/st{:.1}us ann={}x{:.1}+{}pb vc={} dup={}/{} span={:.2} vote={}/{} wire=s{}/r{}/p{}/x{} wait={:.1}ms rec={}/{}sn {}+{}KB replay={} ttu={:.0}ms repl={}/{}sp {}KB recast={} serve={:.0}ms park={:.0}ms",
        m.tpm(),
        m.mean_latency_ms(),
        m.abort_rate(),
        m.mean_cpu_usage().0 * 100.0,
        m.mean_cpu_usage().1 * 100.0,
        m.mean_disk_usage() * 100.0,
        m.network_kbps(),
        m.cert_work.mean_comparisons(),
        m.cert_work.mean_probes(),
        m.cert_work.mean_stall_us(),
        m.ann_work.announcements,
        m.ann_work.mean_batch(),
        m.ann_work.piggybacked,
        m.fault_work.view_installs,
        m.fault_work.dup_injected,
        m.fault_work.dup_discarded,
        m.cert_work.span_fraction(),
        m.cert_work.vote_rounds,
        m.cert_work.cross_span_txns,
        m.vote_wire.sent,
        m.vote_wire.received,
        m.vote_wire.piggybacked,
        m.vote_wire.resends,
        m.vote_wire.mean_wait_ms(),
        m.recovery_work.rejoins,
        m.recovery_work.snapshots_served,
        m.recovery_work.snapshot_bytes / 1024,
        m.recovery_work.delta_bytes / 1024,
        m.recovery_work.replayed_entries,
        m.recovery_work.mean_ttu_ms(),
        m.replacement_work.replacements,
        m.replacement_work.rehomed_spans,
        m.replacement_work.transfer_bytes / 1024,
        m.replacement_work.vote_rounds_recollected,
        m.replacement_work.mean_time_to_serving_ms(),
        m.replacement_work.parked_ms(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_table_has_all_classes_and_total() {
        let m = RunMetrics::new(1);
        let t = abort_table(&[("1site", &m)]);
        for class in TxnClass::ALL {
            assert!(t.contains(class.name()), "missing {class}");
        }
        assert!(t.contains("All"));
    }

    #[test]
    fn series_rows_align() {
        let h = series_header(&["1 CPU", "3 CPU"]);
        let r = series_row(500, &[2800.0, 5600.0]);
        assert_eq!(h.len(), r.len());
    }

    #[test]
    fn ecdf_lines_format() {
        let s = ecdf_lines(&[(1.0, 0.5), (2.0, 1.0)]);
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn summary_line_is_single_line() {
        let m = RunMetrics::new(1);
        assert_eq!(summary_line("x", &m).lines().count(), 1);
    }

    #[test]
    fn summary_line_reports_announcement_work() {
        let mut m = RunMetrics::new(1);
        m.ann_work.announcements = 5;
        m.ann_work.assigns_carried = 20;
        m.ann_work.piggybacked = 3;
        assert!(summary_line("x", &m).contains("ann=5x4.0+3pb"));
    }

    #[test]
    fn summary_line_reports_certification_critical_path() {
        // `st` is the certification time paid on the delivery loop.
        let mut m = RunMetrics::new(1);
        assert!(summary_line("x", &m).contains("cert=0.0cmp/0.0probe/st0.0us"));
        m.cert_work.certifications = 10;
        m.cert_work.probes = 120;
        m.cert_work.stall_ns = 34_000;
        let line = summary_line("x", &m);
        assert!(line.contains("cert=0.0cmp/12.0probe/st3.4us ann="), "{line}");
    }

    #[test]
    fn summary_line_reports_fault_work() {
        let mut m = RunMetrics::new(1);
        m.fault_work.view_installs = 2;
        m.fault_work.dup_injected = 40;
        m.fault_work.dup_discarded = 38;
        assert!(summary_line("x", &m).contains("vc=2 dup=40/38"));
    }

    #[test]
    fn summary_line_reports_recovery_work() {
        let mut m = RunMetrics::new(1);
        assert!(summary_line("x", &m).contains("rec=0/0sn 0+0KB replay=0 ttu=0ms"));
        m.recovery_work.rejoins = 1;
        m.recovery_work.snapshots_served = 1;
        m.recovery_work.snapshot_bytes = 2 << 20;
        m.recovery_work.delta_bytes = 3072;
        m.recovery_work.replayed_entries = 4;
        m.recovery_work.ttu_ns_total = 1_250_000_000;
        let line = summary_line("x", &m);
        assert!(line.contains("rec=1/1sn 2048+3KB replay=4 ttu=1250ms"), "{line}");
    }

    #[test]
    fn summary_line_reports_replacement_work() {
        let mut m = RunMetrics::new(1);
        assert!(summary_line("x", &m).contains("repl=0/0sp 0KB recast=0 serve=0ms park=0ms"));
        m.replacement_work.replacements = 1;
        m.replacement_work.rehomed_spans = 2;
        m.replacement_work.transfer_bytes = 4 << 20;
        m.replacement_work.vote_rounds_recollected = 3;
        m.replacement_work.time_to_serving_ns_total = 5_000_000_000;
        m.replacement_work.parked_ns = 8_000_000;
        let line = summary_line("x", &m);
        assert!(line.contains("repl=1/2sp 4096KB recast=3 serve=2500ms park=8ms"), "{line}");
    }

    #[test]
    fn summary_line_reports_partial_replication_work() {
        let mut m = RunMetrics::new(1);
        // Full replication (nothing recorded): span shows 1.00, votes zero.
        assert!(summary_line("x", &m).contains("span=1.00 vote=0/0"));
        m.cert_work.record_span(1, 3);
        m.cert_work.record_span(0, 3);
        m.cert_work.vote_rounds = 7;
        m.cert_work.cross_span_txns = 4;
        let line = summary_line("x", &m);
        assert!(line.contains("span=0.17 vote=7/4"), "{line}");
    }

    #[test]
    fn summary_line_reports_wire_vote_traffic() {
        let mut m = RunMetrics::new(1);
        // Full replication: no wire votes flow.
        assert!(summary_line("x", &m).contains("wire=s0/r0/p0/x0 wait=0.0ms"));
        m.vote_wire.sent = 12;
        m.vote_wire.received = 24;
        m.vote_wire.piggybacked = 9;
        m.vote_wire.resends = 2;
        m.vote_wire.decided = 4;
        m.vote_wire.wait_ns = 6_000_000;
        let line = summary_line("x", &m);
        assert!(line.contains("wire=s12/r24/p9/x2 wait=1.5ms"), "{line}");
    }
}
