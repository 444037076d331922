//! End-to-end integration tests of the assembled testbed: the replicated
//! database model under TPC-C load, with and without faults, checked for
//! the paper's safety condition and basic performance sanity.

use dbsm_testbed::core::{run_experiment, ExperimentConfig};
use dbsm_testbed::fault::{check_logs, FaultPlan};
use dbsm_testbed::sim::SimTime;
use dbsm_testbed::tpcc::TxnClass;
use std::time::Duration;

fn crashed_flags(m: &dbsm_testbed::core::RunMetrics, sites: usize) -> Vec<bool> {
    (0..sites as u16).map(|s| m.crashed_sites.contains(&s)).collect()
}

#[test]
fn centralized_run_commits_and_measures() {
    let m = run_experiment(ExperimentConfig::centralized(1, 40).with_target(400));
    assert!(m.committed() > 300, "committed {}", m.committed());
    assert!(m.tpm() > 0.0);
    assert!(m.mean_latency_ms() > 0.0);
    assert!(m.elapsed > SimTime::ZERO);
    // The mix hit every major class.
    assert!(m.class(TxnClass::NewOrder).submitted > 0);
    assert!(m.class(TxnClass::PaymentLong).submitted > 0);
}

#[test]
fn replicated_sites_commit_identical_sequences() {
    let m = run_experiment(ExperimentConfig::replicated(3, 45).with_target(400));
    assert!(m.committed() > 300);
    check_logs(&m.commit_logs, &[false; 3]).expect("identical sequences");
    // Update transactions certify: the logs must be non-trivial.
    assert!(m.commit_logs[0].len() > 100, "log {}", m.commit_logs[0].len());
    assert!(m.cert_latencies_ms.len() > 100);
}

#[test]
fn indexed_backend_is_safe_and_performant_under_load() {
    use dbsm_testbed::core::CertBackendKind;
    // The indexed certifier must uphold the DBSM safety condition across
    // replicas under real TPC-C load, and — charged honestly through
    // per_probe_ns — not fall behind the linear backend's throughput.
    let idx = run_experiment(
        ExperimentConfig::replicated(3, 150)
            .with_target(600)
            .with_cert_backend(CertBackendKind::Indexed),
    );
    check_logs(&idx.commit_logs, &[false; 3]).expect("identical sequences (indexed)");
    assert!(idx.committed() > 450, "committed {}", idx.committed());
    assert!(idx.cert_work.probes > 0);
    // Explicitly Linear: the experiment default is Indexed now, and this
    // comparison needs the paper-faithful scan on the other side.
    let lin = run_experiment(
        ExperimentConfig::replicated(3, 150)
            .with_target(600)
            .with_cert_backend(CertBackendKind::Linear),
    );
    let ratio = idx.tpm() / lin.tpm();
    assert!(
        ratio > 0.9,
        "indexed tpm {} should not trail linear tpm {} (ratio {ratio:.2})",
        idx.tpm(),
        lin.tpm()
    );
    // The load-dependent scan work disappears entirely under the index.
    assert!(lin.cert_work.history_scanned > 0);
    assert_eq!(idx.cert_work.history_scanned, 0);
    // Every conflict check runs inline on the delivery loop and is charged
    // there as stall: exactly its probes at `per_probe_ns`.
    let per_probe = dbsm_testbed::core::CertCostModel::default().per_probe_ns as u64;
    assert!(idx.cert_work.stall_ns > 0, "the delivery loop pays for certification");
    assert!(idx.cert_work.stall_ns <= idx.cert_work.probes * per_probe);
}

#[test]
fn indexed_backend_safety_holds_under_faults() {
    use dbsm_testbed::core::CertBackendKind;
    // Loss and a mid-run crash exercise retransmission, view change and the
    // gc/low-water machinery on the indexed path.
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(400)
            .with_faults(FaultPlan::random_loss(0.05))
            .with_cert_backend(CertBackendKind::Indexed),
    );
    check_logs(&m.commit_logs, &[false; 3]).expect("safety under loss (indexed)");
    assert!(m.committed() > 300);
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(600)
            .with_faults(FaultPlan::crash(2, SimTime::from_secs(15)))
            .with_cert_backend(CertBackendKind::Indexed),
    );
    assert_eq!(m.crashed_sites, vec![2]);
    check_logs(&m.commit_logs, &[false, false, true]).expect("crashed site holds a prefix");
}

#[test]
fn partial_replication_is_safe_and_shrinks_per_site_certification() {
    // The partial-replication tentpole end-to-end: span-restricted
    // certification with a vote round must uphold the DBSM safety
    // condition — identical commit sequences at every site, because the
    // merged span verdicts are exactly the full-replication verdict — while
    // each site examines only ~k/N of the read/write-set entries.
    let full = run_experiment(ExperimentConfig::replicated(6, 120).with_target(500));
    let part = run_experiment(
        ExperimentConfig::replicated(6, 120).with_target(500).with_replication_factor(2),
    );
    check_logs(&part.commit_logs, &[false; 6]).expect("identical sequences (partial)");
    assert!(part.committed() > 400, "committed {}", part.committed());
    // TPC-C's remote-warehouse touches (New-Order remote stock, Payment
    // remote customer) genuinely cross spans and pay vote rounds; every
    // cross-span transaction collects at least one remote vote.
    assert!(part.cert_work.cross_span_txns > 0, "cross-span txns: {:?}", part.cert_work);
    assert!(part.cert_work.vote_rounds >= part.cert_work.cross_span_txns);
    // Span-restricted certification filters most of the tuple space: at
    // k/N = 2/6 the local fraction sits far below full replication's 1.0.
    let frac = part.cert_work.span_fraction();
    assert!(frac < 0.75, "span fraction {frac} should reflect k/N = 1/3");
    assert!(frac > 0.05, "a site still certifies its own span: {frac}");
    assert_eq!(full.cert_work.span_total, 0, "full replication records no span filter");
    assert_eq!(full.cert_work.vote_rounds, 0);
    // The abort decisions are the same decisions: a cross-span conflict
    // aborts identically on every voting site, so abort rates agree to
    // within load noise.
    assert!(part.committed() > 0 && full.committed() > 0);
}

#[test]
fn partial_replication_is_deterministic_and_fault_checked() {
    // Same seed, same placement -> bit-identical run. A fault plan that
    // strands a warehouse with zero live replicas is accepted under the
    // relaxed default (re-placement re-homes the span onto a survivor) but
    // still rejected under strict coverage, and a plan downing every site
    // is rejected either way (satellite: FaultPlan x PlacementMap
    // cross-validation).
    use dbsm_testbed::core::PlacementMap;
    let mk = || {
        ExperimentConfig::replicated(6, 120)
            .with_target(300)
            .with_replication_factor(2)
            .with_seed(9)
    };
    let a = run_experiment(mk());
    let b = run_experiment(mk());
    assert_eq!(a.commit_logs, b.commit_logs);
    assert_eq!(a.cert_work.vote_rounds, b.cert_work.vote_rounds);
    let stranding = || {
        FaultPlan::partition(
            vec![vec![0, 1, 2, 3], vec![4, 5]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        )
    };
    assert!(mk().with_faults(stranding()).validate().is_ok(), "relaxed default re-homes");
    let strict = PlacementMap::round_robin(6, 2).with_strict_coverage();
    assert!(mk().with_placement(strict).with_faults(stranding()).validate().is_err());
    let total_outage = (0..6).fold(FaultPlan::none(), |p, s| {
        p.with(dbsm_testbed::fault::FaultSpec::Crash { site: s, at: SimTime::from_secs(1) })
    });
    assert!(mk().with_faults(total_outage).validate().is_err(), "nobody left to adopt");
}

#[test]
fn replacement_rehomes_stranded_spans_and_degrades_gracefully() {
    // The re-placement tentpole end-to-end. At rf 2 over 6 sites a single
    // crash strands nothing — every span keeps a live replica and clients
    // re-route to it — so throughput degrades gracefully instead of
    // collapsing. Crashing an adjacent pair removes both replicas of the
    // spans homed on the pair: the survivors elect an adopter by
    // rendezvous hash, ship span state, re-collect in-flight vote rounds,
    // and the run completes with the safety condition intact.
    use dbsm_testbed::core::report::summary_line;
    let mk = |faults: FaultPlan| {
        ExperimentConfig::replicated(6, 120)
            .with_target(600)
            .with_replication_factor(2)
            .with_seed(11)
            .with_faults(faults)
    };
    let base = run_experiment(mk(FaultPlan::none()));
    assert_eq!(base.replacement_work, Default::default(), "no churn, no re-placement");

    let one = run_experiment(mk(FaultPlan::crash(5, SimTime::from_secs(10))));
    assert_eq!(one.replacement_work.rehomed_spans, 0, "rf 2 survives one crash in place");
    let ratio = one.tpm() / base.tpm();
    assert!(
        ratio >= 0.6,
        "one crash must degrade gracefully: tpm {} vs baseline {} (ratio {ratio:.2})",
        one.tpm(),
        base.tpm()
    );
    check_logs(&one.commit_logs, &crashed_flags(&one, 6)).expect("safety under one crash");

    let pair = || {
        FaultPlan::crash(0, SimTime::from_secs(10))
            .with(dbsm_testbed::fault::FaultSpec::Crash { site: 1, at: SimTime::from_secs(12) })
    };
    let two = run_experiment(mk(pair()));
    assert!(two.replacement_work.replacements >= 1, "{:?}", two.replacement_work);
    assert!(two.replacement_work.rehomed_spans >= 1, "{:?}", two.replacement_work);
    assert!(two.replacement_work.transfer_bytes > 0);
    assert!(two.replacement_work.time_to_serving_ns_total > 0);
    check_logs(&two.commit_logs, &crashed_flags(&two, 6)).expect("safety across re-homing");
    assert!(two.committed() > 300, "committed {}", two.committed());
    // Re-placed runs stay bit-identical for a seed.
    let again = run_experiment(mk(pair()));
    assert_eq!(two.commit_logs, again.commit_logs);
    assert_eq!(two.replacement_work, again.replacement_work);
    println!("replacement smoke: {}", summary_line("rf2-pair-crash", &two));
}

#[test]
fn runs_are_deterministic_for_a_seed() {
    let a = run_experiment(ExperimentConfig::replicated(3, 30).with_target(200).with_seed(7));
    let b = run_experiment(ExperimentConfig::replicated(3, 30).with_target(200).with_seed(7));
    assert_eq!(a.commit_logs, b.commit_logs);
    assert_eq!(a.committed(), b.committed());
    assert_eq!(a.elapsed, b.elapsed);
    let c = run_experiment(ExperimentConfig::replicated(3, 30).with_target(200).with_seed(8));
    assert_ne!(a.commit_logs, c.commit_logs, "different seed, different run");
}

#[test]
fn safety_holds_under_random_loss() {
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(300)
            .with_faults(FaultPlan::random_loss(0.05)),
    );
    check_logs(&m.commit_logs, &[false; 3]).expect("safety under random loss");
    assert!(m.committed() > 200);
}

#[test]
fn safety_holds_under_bursty_loss() {
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(300)
            .with_faults(FaultPlan::bursty_loss(0.05, 5)),
    );
    check_logs(&m.commit_logs, &[false; 3]).expect("safety under bursty loss");
}

#[test]
fn safety_holds_under_clock_drift() {
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(300)
            .with_faults(FaultPlan::clock_drift(1, 1.1)),
    );
    let crashed = crashed_flags(&m, 3);
    check_logs(&m.commit_logs, &crashed).expect("safety under clock drift");
}

#[test]
fn safety_holds_under_scheduling_latency() {
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(300)
            .with_faults(FaultPlan::sched_latency(Duration::from_millis(2))),
    );
    let crashed = crashed_flags(&m, 3);
    check_logs(&m.commit_logs, &crashed).expect("safety under scheduling latency");
}

#[test]
fn crash_leaves_survivors_consistent_and_live() {
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(600)
            .with_faults(FaultPlan::crash(2, SimTime::from_secs(15))),
    );
    assert_eq!(m.crashed_sites, vec![2]);
    check_logs(&m.commit_logs, &[false, false, true]).expect("crashed site holds a prefix");
    // Survivors kept committing after the crash: their logs are longer than
    // the dead site's.
    assert!(m.commit_logs[0].len() > m.commit_logs[2].len());
}

#[test]
fn partition_then_merge_drives_real_view_changes_and_stays_safe() {
    // The tentpole scenario: a partition longer than the failure-detector
    // timeout splits {0,1} from {2}. The primary component excludes site 2
    // through a real flush/install round and keeps committing; site 2 halts
    // as a non-primary survivor (counted as crashed); the heal merges the
    // network back without resurrecting it. Safety must hold throughout.
    let plan = FaultPlan::partition(
        vec![vec![0, 1], vec![2]],
        SimTime::from_secs(10),
        SimTime::from_secs(12),
    );
    let m = run_experiment(ExperimentConfig::replicated(3, 45).with_target(400).with_faults(plan));
    assert_eq!(m.crashed_sites, vec![2], "the minority segment halted");
    check_logs(&m.commit_logs, &[false, false, true]).expect("safety across the partition");
    assert!(m.committed() > 300, "primary component kept committing: {}", m.committed());
    assert!(
        m.commit_logs[0].len() > m.commit_logs[2].len(),
        "survivors moved past the halted site"
    );
    assert!(
        m.fault_work.view_installs >= 2,
        "both survivors installed the post-partition view: {:?}",
        m.fault_work
    );
    assert!(m.fault_work.partition_drops > 0, "traffic died at the partition boundary");
}

#[test]
fn short_partition_merges_back_without_membership_change() {
    // A partition shorter than the failure timeout: nobody is suspected, the
    // merge re-joins the segments, and NAK recovery patches the gap — no
    // view change, no casualties, identical logs.
    let plan = FaultPlan::partition(
        vec![vec![0, 1], vec![2]],
        SimTime::from_secs(10),
        SimTime::from_millis(10_300),
    );
    let m = run_experiment(ExperimentConfig::replicated(3, 45).with_target(300).with_faults(plan));
    assert!(m.crashed_sites.is_empty(), "no site halted: {:?}", m.crashed_sites);
    check_logs(&m.commit_logs, &[false; 3]).expect("safety across the short split");
    assert_eq!(m.fault_work.view_installs, 0, "merge happened below the membership radar");
    assert!(m.committed() > 200);
}

#[test]
fn duplicate_delivery_is_absorbed_without_burning_sequence_numbers() {
    let m = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(300)
            .with_faults(FaultPlan::duplicate_delivery(0.25, 3)),
    );
    assert!(m.fault_work.dup_injected > 0, "the fault actually fired: {:?}", m.fault_work);
    assert!(m.fault_work.dup_discarded > 0, "the GCS dedup path absorbed copies");
    // Identical logs at every site prove no duplicate stole a global
    // sequence number or delivered twice.
    check_logs(&m.commit_logs, &[false; 3]).expect("safety under duplicate delivery");
    assert!(m.committed() > 200);
}

#[test]
fn correlated_bursts_are_safe_and_recovered() {
    let m =
        run_experiment(ExperimentConfig::replicated(3, 45).with_target(300).with_faults(
            FaultPlan::correlated_burst(vec![0, 1, 2], Duration::from_millis(10), 0.15),
        ));
    check_logs(&m.commit_logs, &[false; 3]).expect("safety under correlated bursts");
    assert!(m.committed() > 200, "committed {}", m.committed());
}

#[test]
fn random_loss_inflates_the_latency_tail() {
    let base = run_experiment(ExperimentConfig::replicated(3, 45).with_target(400));
    let lossy = run_experiment(
        ExperimentConfig::replicated(3, 45)
            .with_target(400)
            .with_faults(FaultPlan::random_loss(0.05)),
    );
    let mut b = base.pooled_latencies_ms();
    let mut l = lossy.pooled_latencies_ms();
    let (b99, l99) = (b.percentile(99.0).expect("samples"), l.percentile(99.0).expect("samples"));
    assert!(l99 > b99, "p99 {l99} vs fault-free {b99}");
}

#[test]
fn payment_aborts_dominate_the_breakdown() {
    // Table 1's structure: payment's warehouse hot-spot makes it the most
    // abort-prone class, far above neworder. The effect needs saturation
    // (lock hold times inflate with queueing), as in the paper's Table 1
    // operating points.
    let m = run_experiment(ExperimentConfig::centralized(1, 700).with_target(2500));
    let payment =
        m.class(TxnClass::PaymentLong).abort_rate() + m.class(TxnClass::PaymentShort).abort_rate();
    let neworder = m.class(TxnClass::NewOrder).abort_rate();
    assert!(payment > neworder, "payment {payment:.2}% should exceed neworder {neworder:.2}%");
    // Stock-level is relaxed: never aborts.
    assert_eq!(m.class(TxnClass::StockLevel).abort_rate(), 0.0);
}

#[test]
fn replication_tracks_matching_cpu_centralized_throughput() {
    // Fig. 5a's headline: 3 sites x 1 CPU ≈ 1 site x 3 CPU.
    let clients = 150;
    let three_cpu = run_experiment(ExperimentConfig::centralized(3, clients).with_target(600));
    let three_sites = run_experiment(ExperimentConfig::replicated(3, clients).with_target(600));
    let ratio = three_sites.tpm() / three_cpu.tpm();
    assert!(
        ratio > 0.75 && ratio < 1.25,
        "replicated/centralized tpm ratio {ratio:.2} (tpm {} vs {})",
        three_sites.tpm(),
        three_cpu.tpm()
    );
}

#[test]
fn network_traffic_scales_with_sites() {
    let three = run_experiment(ExperimentConfig::replicated(3, 45).with_target(300));
    let six = run_experiment(ExperimentConfig::replicated(6, 48).with_target(300));
    assert!(six.network_tx_bytes > three.network_tx_bytes);
    assert!(three.network_kbps() > 0.0);
}

#[test]
fn more_cpus_raise_the_saturation_point() {
    // At a load that saturates one CPU, three CPUs commit more per minute.
    let clients = 900;
    let one = run_experiment(ExperimentConfig::centralized(1, clients).with_target(1200));
    let three = run_experiment(ExperimentConfig::centralized(3, clients).with_target(1200));
    assert!(three.tpm() > one.tpm() * 1.2, "3 CPU {} vs 1 CPU {}", three.tpm(), one.tpm());
}

#[test]
fn disk_usage_grows_with_load() {
    let light = run_experiment(ExperimentConfig::centralized(6, 30).with_target(300));
    let heavy = run_experiment(ExperimentConfig::centralized(6, 300).with_target(900));
    assert!(heavy.mean_disk_usage() > light.mean_disk_usage());
}

#[test]
fn protocol_cpu_stays_in_the_papers_band() {
    // Fig. 7c: protocol (real-job) CPU is a small share, ~1-2%.
    let m = run_experiment(ExperimentConfig::replicated(3, 90).with_target(500));
    let (_total, real) = m.mean_cpu_usage();
    assert!(real > 0.0, "protocol CPU must be visible");
    assert!(real < 0.15, "protocol CPU {real:.3} unexpectedly high");
}

#[test]
fn crash_restart_runs_repeat_exactly_for_a_seed() {
    // A rejoining site aborts the requests its first incarnation left
    // undecided. Each abort wakes a client, so the abort order steers the
    // rest of the run: it must follow the request keys, not the iteration
    // order of a randomly seeded hash map, or two same-seed runs in one
    // process diverge after the rejoin. 300 clients at 1 s think keep
    // dozens of requests in flight when site 2 crashes.
    use dbsm_testbed::core::report::summary_line;
    let cfg = || {
        let mut cfg = ExperimentConfig::replicated(3, 300)
            .with_target(4_000)
            .with_seed(5)
            .with_faults(FaultPlan::crash_restart(2, SimTime::from_secs(4), SimTime::from_secs(7)));
        cfg.think_mean = Duration::from_secs(1);
        cfg.max_sim = Duration::from_secs(120);
        cfg
    };
    let a = run_experiment(cfg());
    let b = run_experiment(cfg());
    assert_eq!(a.recovery_work.rejoins, 1, "the run outlasts the rejoin: {:?}", a.rejoins);
    assert_eq!(summary_line("rejoin", &a), summary_line("rejoin", &b));
    assert_eq!(a.commit_logs, b.commit_logs);
}

#[test]
fn crashed_then_restarted_site_rejoins_and_commits() {
    use dbsm_testbed::fault::check_logs_rejoined_multi;
    // Site 2 crashes at 15 s and restarts at 30 s: its fresh incarnation
    // must announce itself, catch up via snapshot + delta-log state
    // transfer, re-enter the view and resume committing.
    // 24 clients at 1 s think complete ~24 txns/s, so the 1000-txn target
    // keeps the run alive well past the 20 s restart.
    let mut cfg = ExperimentConfig::replicated(3, 24)
        .with_target(1000)
        .with_faults(FaultPlan::crash_restart(2, SimTime::from_secs(10), SimTime::from_secs(20)));
    cfg.think_mean = Duration::from_secs(1);
    cfg.max_sim = Duration::from_secs(300);
    let m = run_experiment(cfg);
    assert!(m.committed() > 700, "committed {}", m.committed());
    // Exactly one rejoin, served by exactly one snapshot, priced in bytes.
    assert_eq!(m.recovery_work.rejoins, 1, "rejoins {:?}", m.rejoins);
    assert_eq!(m.recovery_work.snapshots_served, 1);
    assert!(m.recovery_work.snapshot_bytes > 0);
    assert!(m.recovery_work.mean_ttu_ms() > 0.0);
    let r = m.rejoins[0];
    assert_eq!(r.site, 2);
    assert!(r.kept <= r.cut, "kept {} cut {}", r.kept, r.cut);
    assert_eq!(
        m.recovery_work.replayed_entries,
        (r.cut - r.kept) as u64,
        "delta log covers exactly the missed entries"
    );
    // The rejoined site committed new transactions past the transfer cut.
    assert!(!m.crashed_sites.contains(&2), "site 2 is live again");
    assert!(
        m.commit_logs[2].len() > r.kept,
        "post-rejoin commits: log {} kept {}",
        m.commit_logs[2].len(),
        r.kept
    );
    // And the full chain rule holds: pre-crash prefix, transferred gap,
    // post-rejoin continuation from the cut.
    let crashed = crashed_flags(&m, 3);
    check_logs_rejoined_multi(&m.commit_logs, &crashed, &m.rejoin_cuts())
        .expect("rejoined log chains through the cut");
    // CI's recovery smoke step greps this line into the step summary.
    println!(
        "recovery smoke: site 2 rejoined via {} KB transfer, replayed {} entries, \
         time-to-useful {:.0} ms",
        m.recovery_work.total_bytes() / 1024,
        m.recovery_work.replayed_entries,
        m.recovery_work.mean_ttu_ms()
    );
}

#[test]
fn kill_and_replace_completes_with_chain_checked_logs() {
    use dbsm_testbed::fault::check_logs_rejoined_multi;
    // Rolling kill-and-replace: each of the three sites is killed in turn
    // and restarts after a short downtime, staggered so a majority always
    // survives. Every site must come back through the rejoin path.
    // Kills at 8/23/38 s, each site back 5 s later; the 1500-txn target
    // keeps traffic flowing past the last rejoin.
    let mut cfg = ExperimentConfig::replicated(3, 24).with_target(1500).with_faults(
        FaultPlan::kill_and_replace(
            3,
            SimTime::from_secs(8),
            Duration::from_secs(15),
            Duration::from_secs(5),
        ),
    );
    cfg.think_mean = Duration::from_secs(1);
    cfg.max_sim = Duration::from_secs(300);
    let m = run_experiment(cfg);
    assert!(m.committed() > 1000, "committed {}", m.committed());
    assert_eq!(m.recovery_work.rejoins, 3, "all sites rejoined: {:?}", m.rejoins);
    assert_eq!(m.recovery_work.snapshots_served, 3);
    assert!(m.crashed_sites.is_empty(), "no site left behind: {:?}", m.crashed_sites);
    let crashed = crashed_flags(&m, 3);
    check_logs_rejoined_multi(&m.commit_logs, &crashed, &m.rejoin_cuts())
        .expect("every replaced site chains through its cut");
}

#[test]
fn voter_crash_mid_vote_round_is_safe_and_survivors_recollect() {
    use dbsm_testbed::fault::check_logs_rejoined_multi;
    // A span owner dies with vote rounds in flight: the in-flight
    // transactions it voted on (or should have) must still decide at the
    // survivors — every span it owned has a second replica under rf 2, so
    // the surviving owners' votes still form a covering quorum — and the
    // DBSM safety condition must hold with the dead site holding a prefix.
    let m = run_experiment(
        ExperimentConfig::replicated(6, 120)
            .with_target(600)
            .with_replication_factor(2)
            .with_faults(FaultPlan::crash(5, SimTime::from_secs(10))),
    );
    assert_eq!(m.crashed_sites, vec![5], "the voter died: {:?}", m.crashed_sites);
    assert!(m.committed() > 400, "survivors kept committing: {}", m.committed());
    assert!(
        m.commit_logs[0].len() > m.commit_logs[5].len(),
        "survivors decided vote rounds past the dead voter"
    );
    // Wire votes actually flowed, before and after the crash.
    assert!(m.vote_wire.sent > 0, "wire votes cast: {:?}", m.vote_wire);
    assert!(m.vote_wire.decided > 0, "origins collected covering quorums");
    let crashed = crashed_flags(&m, 6);
    check_logs_rejoined_multi(&m.commit_logs, &crashed, &m.rejoin_cuts())
        .expect("crashed voter holds a prefix, survivors agree");
}

#[test]
fn partition_heal_during_vote_rounds_recovers_the_lost_votes() {
    // A 300 ms split — below the failure-detector timeout — isolates span
    // owner 5 with vote rounds in flight: votes multicast across the
    // boundary die at the partition, cross-span transactions needing site
    // 5's verdict stall, and after the heal the piggybacked resend path
    // must recover every lost vote with no membership change. All six
    // logs end identical.
    let plan = FaultPlan::partition(
        vec![vec![0, 1, 2, 3, 4], vec![5]],
        SimTime::from_secs(10),
        SimTime::from_millis(10_300),
    );
    let m = run_experiment(
        ExperimentConfig::replicated(6, 120)
            .with_target(600)
            .with_replication_factor(2)
            .with_faults(plan),
    );
    assert!(m.crashed_sites.is_empty(), "nobody halted: {:?}", m.crashed_sites);
    assert_eq!(m.fault_work.view_installs, 0, "heal happened below the membership radar");
    assert!(m.fault_work.partition_drops > 0, "traffic (votes included) died at the boundary");
    assert!(m.vote_wire.sent > 0 && m.vote_wire.decided > 0, "{:?}", m.vote_wire);
    check_logs(&m.commit_logs, &[false; 6]).expect("identical sequences across the heal");
    assert!(m.committed() > 400, "committed {}", m.committed());
}

#[test]
fn rejoined_voter_resumes_voting_past_its_cut() {
    use dbsm_testbed::fault::check_logs_rejoined_multi;
    // Crash-restart a span owner under rf 2: while it is down the
    // survivors decide vote rounds without it; after snapshot + delta-log
    // transfer and `finish_rejoin` the fresh incarnation must resume
    // casting wire votes — its per-site sent counter belongs to the new
    // Gcs instance, so a nonzero count is post-rejoin voting by
    // construction — and its log must chain through the transfer cut.
    let mut cfg = ExperimentConfig::replicated(6, 60)
        .with_target(1500)
        .with_replication_factor(2)
        .with_faults(FaultPlan::crash_restart(5, SimTime::from_secs(8), SimTime::from_secs(16)));
    cfg.think_mean = Duration::from_secs(1);
    cfg.max_sim = Duration::from_secs(300);
    let m = run_experiment(cfg);
    assert_eq!(m.recovery_work.rejoins, 1, "rejoins {:?}", m.rejoins);
    assert!(!m.crashed_sites.contains(&5), "site 5 is live again");
    let r = m.rejoins[0];
    assert_eq!(r.site, 5);
    assert!(
        m.commit_logs[5].len() > r.kept,
        "post-rejoin commits: log {} kept {}",
        m.commit_logs[5].len(),
        r.kept
    );
    // The fresh incarnation's own vote counter: votes cast after rejoin.
    assert_eq!(m.vote_wire.per_site_sent.len(), 6, "all six bridges reported");
    assert!(
        m.vote_wire.per_site_sent[5] > 0,
        "rejoined voter cast wire votes past its cut: {:?}",
        m.vote_wire.per_site_sent
    );
    let crashed = crashed_flags(&m, 6);
    check_logs_rejoined_multi(&m.commit_logs, &crashed, &m.rejoin_cuts())
        .expect("rejoined voter chains through its cut");
}

#[test]
fn partial_placement_rejoin_transfers_only_the_sites_spans() {
    use dbsm_testbed::fault::check_logs_rejoined_multi;
    // Under a 2-of-6 placement the rejoiner re-requests only its spans'
    // rows: the snapshot is priced per owned warehouse, a fraction of the
    // full-replication transfer.
    let restart = FaultPlan::crash_restart(5, SimTime::from_secs(8), SimTime::from_secs(16));
    let mut cfg = ExperimentConfig::replicated(6, 60)
        .with_target(1500)
        .with_replication_factor(2)
        .with_faults(restart.clone());
    cfg.think_mean = Duration::from_secs(1);
    cfg.max_sim = Duration::from_secs(300);
    let m = run_experiment(cfg);
    assert_eq!(m.recovery_work.rejoins, 1, "rejoins {:?}", m.rejoins);
    let crashed = crashed_flags(&m, 6);
    check_logs_rejoined_multi(&m.commit_logs, &crashed, &m.rejoin_cuts())
        .expect("partial-placement rejoin chains through the cut");
    // Full replication ships all warehouses; the 2-of-6 span ships ~1/3.
    let mut full = ExperimentConfig::replicated(6, 60).with_target(1500).with_faults(restart);
    full.think_mean = Duration::from_secs(1);
    full.max_sim = Duration::from_secs(300);
    let f = run_experiment(full);
    assert_eq!(f.recovery_work.rejoins, 1);
    assert!(
        m.recovery_work.snapshot_bytes * 2 < f.recovery_work.snapshot_bytes,
        "span-restricted snapshot {} vs full {}",
        m.recovery_work.snapshot_bytes,
        f.recovery_work.snapshot_bytes
    );
}
