//! Ablation benchmarks over the design choices DESIGN.md calls out:
//! locking policy (multi-version vs conservative 2PL), sequencer buffer
//! share (the §5.3 mitigation), announcement batching, uniform delivery,
//! the certification backend (linear scan vs indexed write history),
//! partial replication, wire votes and re-placement under churn.
//! Each runs a small end-to-end experiment; Criterion reports the
//! wall-clock cost of simulating it, and the printed side-channel reports
//! the system-level metric of interest.

use criterion::{criterion_group, criterion_main, Criterion};
use dbsm_bench::cert_json::{merge_and_write, CertBenchRow};
use dbsm_core::{run_experiment, AnnBatchPolicy, CertBackendKind, ExperimentConfig};
use dbsm_db::CcPolicy;
use dbsm_fault::{FaultPlan, FaultSpec};
use dbsm_gcs::GcsConfig;
use dbsm_sim::SimTime;
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

fn small(sites: usize, clients: usize) -> ExperimentConfig {
    ExperimentConfig::replicated(sites, clients).with_target(300)
}

fn bench_locking_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_locking");
    g.sample_size(10);
    for (name, policy) in
        [("multiversion", CcPolicy::MultiVersion), ("conservative_2pl", CcPolicy::Conservative2pl)]
    {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = ExperimentConfig::centralized(1, 60).with_target(300);
                cfg.policy = policy;
                let m = run_experiment(cfg);
                black_box((m.committed(), m.abort_rate()))
            })
        });
    }
    g.finish();
}

fn bench_sequencer_share(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sequencer_share");
    g.sample_size(10);
    for (name, boost) in [("fair_share", 1.0), ("boosted_sequencer", 4.0)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = small(3, 60).with_faults(FaultPlan::random_loss(0.05));
                let mut gcs = GcsConfig::lan(3);
                gcs.sequencer_share_boost = boost;
                cfg.gcs = Some(gcs);
                let m = run_experiment(cfg);
                black_box(m.cert_latencies_ms.clone().percentile(99.0))
            })
        });
    }
    g.finish();
}

fn bench_ann_batching(c: &mut Criterion) {
    // The §5.3 sweep at the paper-scale operating point: 2000 clients over 3
    // sites, each announcement policy crossed with packet-loss rates. Loss
    // stalls stability and backs the sequencer's send queue up, which is
    // exactly when per-message announcements amplify the collapse — and when
    // the adaptive policy widens its window and piggybacks. Criterion times
    // the simulation; the system-level comparison (tpm, latency, and the
    // announcements-vs-piggybacks `ann_work` ledger) rides the black box.
    let mut g = c.benchmark_group("ablation_ann_batching");
    g.sample_size(10);
    let policies = [
        ("immediate", AnnBatchPolicy::Immediate),
        ("batched_2ms", AnnBatchPolicy::Fixed(Duration::from_millis(2))),
        ("adaptive", AnnBatchPolicy::adaptive_lan()),
    ];
    for (name, policy) in policies {
        for loss_pct in [0u32, 1, 5] {
            let id = format!("clients_2000_{name}_loss_{loss_pct}pct");
            let mut printed = false;
            g.bench_function(&id, |b| {
                b.iter(|| {
                    let mut cfg = ExperimentConfig::replicated(3, 2000)
                        .with_target(600)
                        .with_ann_policy(policy);
                    if loss_pct > 0 {
                        cfg = cfg.with_faults(FaultPlan::random_loss(loss_pct as f64 / 100.0));
                    }
                    let m = run_experiment(cfg);
                    if !printed {
                        printed = true;
                        println!("    {}", dbsm_core::report::summary_line(&id, &m));
                    }
                    black_box((
                        m.tpm(),
                        m.mean_latency_ms(),
                        m.ann_work.announcements,
                        m.ann_work.mean_batch(),
                        m.ann_work.piggybacked,
                    ))
                })
            });
        }
    }
    g.finish();
}

fn bench_uniform_delivery(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_uniform_delivery");
    g.sample_size(10);
    for (name, uniform) in [("optimistic", false), ("uniform", true)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut cfg = small(3, 60);
                let mut gcs = GcsConfig::lan(3);
                gcs.uniform_delivery = uniform;
                cfg.gcs = Some(gcs);
                let m = run_experiment(cfg);
                black_box(m.mean_latency_ms())
            })
        });
    }
    g.finish();
}

fn bench_fault_plans(c: &mut Criterion) {
    // Prices every fault-scenario family at the paper-scale operating point
    // (2000 clients over 3 sites): what does each fault family cost in
    // throughput and latency, and what does the fault machinery itself do
    // (view installs, duplicate absorption, partition drops)? Criterion
    // times the simulation; the printed summary lines carry the
    // system-level ledger. Note the partition rows run with uniform (safe)
    // delivery — the runner forces it for partition plans.
    let mut g = c.benchmark_group("ablation_fault_plans");
    g.sample_size(10);
    let plans: Vec<(&str, FaultPlan)> = vec![
        ("none", FaultPlan::none()),
        ("random_loss_5pct", FaultPlan::random_loss(0.05)),
        ("bursty_loss_5pct", FaultPlan::bursty_loss(0.05, 5)),
        ("clock_drift_1.05", FaultPlan::clock_drift(1, 1.05)),
        ("crash_at_1s", FaultPlan::crash(2, SimTime::from_secs(1))),
        (
            "partition_2s",
            FaultPlan::partition(
                vec![vec![0, 1], vec![2]],
                SimTime::from_secs(1),
                SimTime::from_secs(3),
            ),
        ),
        (
            "partition_300ms",
            FaultPlan::partition(
                vec![vec![0, 1], vec![2]],
                SimTime::from_secs(1),
                SimTime::from_millis(1_300),
            ),
        ),
        ("duplicates_10pct_x2", FaultPlan::duplicate_delivery(0.10, 2)),
        (
            "correlated_burst_10pct",
            FaultPlan::correlated_burst(vec![0, 1, 2], Duration::from_millis(10), 0.10),
        ),
    ];
    for (name, plan) in plans {
        let id = format!("clients_2000_{name}");
        let mut printed = false;
        g.bench_function(&id, |b| {
            b.iter(|| {
                let cfg = ExperimentConfig::replicated(3, 2000)
                    .with_target(600)
                    .with_faults(plan.clone());
                let m = run_experiment(cfg);
                if !printed {
                    printed = true;
                    println!("    {}", dbsm_core::report::summary_line(&id, &m));
                }
                black_box((
                    m.tpm(),
                    m.mean_latency_ms(),
                    m.fault_work.view_installs,
                    m.fault_work.dup_injected,
                    m.fault_work.partition_drops,
                ))
            })
        });
    }
    g.finish();
}

fn bench_recovery(c: &mut Criterion) {
    // Prices the rejoin machinery at the paper-scale operating point (2000
    // clients over 3 sites): crash rate (how many sites are killed and
    // replaced, staggered so a majority always survives) crossed with the
    // restart delay (how long a dead site stays down, which sets the delta
    // log it must replay on top of the snapshot). Criterion times the
    // simulation; the printed summary lines carry the `rec=` recovery
    // ledger (rejoins/snapshots, transfer kilobytes, replayed entries,
    // mean time-to-useful). One sample per point — each run simulates
    // enough load to outlast the last restart plus its state transfer. The
    // kills are staggered 10s apart: under this load a join grant takes a
    // few seconds to find an order-clean point, and killing the next site
    // before the previous grant lands would strand the survivor in a
    // minority.
    let mut g = c.benchmark_group("ablation_recovery");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(1));
    for kills in [1usize, 2] {
        for (delay_name, downtime) in
            [("1s", Duration::from_secs(1)), ("3s", Duration::from_secs(3))]
        {
            let id = format!("clients_2000_kill{kills}_down{delay_name}");
            let mut printed = false;
            g.bench_function(&id, |b| {
                b.iter(|| {
                    let plan = FaultPlan::kill_and_replace(
                        kills,
                        SimTime::from_secs(1),
                        Duration::from_secs(10),
                        downtime,
                    );
                    let mut cfg =
                        ExperimentConfig::replicated(3, 2000).with_target(3_000).with_faults(plan);
                    cfg.max_sim = Duration::from_secs(120);
                    let m = run_experiment(cfg);
                    if !printed {
                        printed = true;
                        println!("    {}", dbsm_core::report::summary_line(&id, &m));
                    }
                    black_box((
                        m.tpm(),
                        m.recovery_work.rejoins,
                        m.recovery_work.total_bytes(),
                        m.recovery_work.mean_ttu_ms(),
                    ))
                })
            });
        }
    }
    // The double-restart point: one site flaps twice (crash, 10s down,
    // back, 10s up, crash again). Each incarnation must come back through
    // its own snapshot + delta-log transfer, and the chain checker's
    // multi-cut rule is what prices it — two rejoins, two transfer cuts.
    {
        let id = "clients_2000_flap2_period10s".to_string();
        let mut printed = false;
        g.bench_function(&id, |b| {
            b.iter(|| {
                let plan =
                    FaultPlan::flapping_crash(2, SimTime::from_secs(1), Duration::from_secs(10), 2);
                let mut cfg =
                    ExperimentConfig::replicated(3, 2000).with_target(3_000).with_faults(plan);
                cfg.max_sim = Duration::from_secs(120);
                let m = run_experiment(cfg);
                if !printed {
                    printed = true;
                    println!("    {}", dbsm_core::report::summary_line(&id, &m));
                }
                black_box((m.tpm(), m.recovery_work.rejoins, m.recovery_work.mean_ttu_ms()))
            })
        });
    }
    g.finish();
}

fn bench_cert_backend(c: &mut Criterion) {
    // The certification ablation: the paper-faithful linear scan against
    // the indexed write history, with client counts from the paper's 2000
    // up to 10000. More clients keep a wider conflict window open, which is
    // where the linear scan's O(window) cost and the index's O(request)
    // probes diverge. Decisions are bit-identical across backends; what
    // moves is the scan-vs-probe work ledger and the delivery-loop stall,
    // reported per row in the summary line and persisted as
    // machine-readable BENCH_cert.json so the perf trajectory survives
    // across PRs.
    let rows: RefCell<Vec<CertBenchRow>> = RefCell::new(Vec::new());
    {
        let mut g = c.benchmark_group("ablation_cert_backend");
        g.sample_size(10);
        for clients in [2000usize, 5000, 10000] {
            for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
                let id = format!("clients_{clients}_{}", kind.name());
                let mut recorded = false;
                g.bench_function(&id, |b| {
                    b.iter(|| {
                        let cfg = ExperimentConfig::replicated(3, clients)
                            .with_target(600)
                            .with_cert_backend(kind);
                        let m = run_experiment(cfg.clone());
                        if !recorded {
                            recorded = true;
                            println!("    {}", dbsm_core::report::summary_line(&id, &m));
                            rows.borrow_mut().push(CertBenchRow::from_metrics(
                                kind.name(),
                                &cfg,
                                &m,
                            ));
                        }
                        black_box((
                            m.tpm(),
                            m.mean_latency_ms(),
                            m.cert_work.mean_comparisons(),
                            m.cert_work.mean_probes(),
                        ))
                    })
                });
            }
        }
        g.finish();
    }
    let rows = rows.into_inner();
    // Merge into the across-PR artifact: rows this invocation re-ran (even
    // under a narrowed `cargo bench -- <filter>`) replace their old
    // versions, rows it didn't run are preserved, and a config-hash
    // mismatch (schema bump, changed seed/sites/target) fails loudly
    // instead of mixing incomparable sweeps. A filtered-out group (zero
    // rows) does not touch the file at all.
    if !rows.is_empty() {
        let path = merge_and_write("ablation_cert_sharding", &rows).expect("merge BENCH_cert.json");
        println!("merged {} fresh rows into {}", rows.len(), path.display());
    }
}

fn bench_partial_replication(c: &mut Criterion) {
    // The partial-replication question: at a fixed total data set (clients,
    // hence warehouses, held constant), what does dropping the replication
    // factor from full to k buy per site? Each site then indexes only the
    // warehouses it replicates (~k/N of the rows), certifies against that
    // span, and pays a vote round only for the cross-span minority — so
    // per-site certification work should shrink ∝ k/N while
    // aggregate throughput grows with the site count. The sweep crosses
    // sites {3, 6, 9, 12} with replication factor {full, 2, 3}; duplicate
    // points (rf 3 at 3 sites IS full replication) are skipped. Rows land
    // in BENCH_cert.json keyed by (sites, replication_factor) alongside
    // the backend sweep's rows.
    let rows: RefCell<Vec<CertBenchRow>> = RefCell::new(Vec::new());
    {
        let mut g = c.benchmark_group("ablation_partial_replication");
        g.sample_size(1);
        g.measurement_time(Duration::from_secs(1));
        let clients = 12_000usize;
        for sites in [3usize, 6, 9, 12] {
            // `factor >= sites` materializes no placement: that point is
            // the full-replication baseline the partial rows compare to.
            let mut factors = vec![2, 3, sites];
            factors.sort_unstable();
            factors.dedup();
            factors.retain(|f| *f <= sites);
            for factor in factors {
                let label = if factor >= sites { "full".to_string() } else { format!("{factor}") };
                let id = format!("sites_{sites}_rf_{label}");
                let mut recorded = false;
                g.bench_function(&id, |b| {
                    b.iter(|| {
                        // One full population turnover puts the window in
                        // steady state; 3 CPUs per site keep 12k clients
                        // below the saturation knee, and the snapshot
                        // window outlasts every in-flight request.
                        let mut cfg = ExperimentConfig::replicated(sites, clients)
                            .with_target(20_000)
                            .with_cert_backend(CertBackendKind::Indexed)
                            .with_replication_factor(factor);
                        cfg.history_window = 1 << 17;
                        cfg.cpus_per_site = 3;
                        let m = run_experiment(cfg.clone());
                        if !recorded {
                            recorded = true;
                            println!("    {}", dbsm_core::report::summary_line(&id, &m));
                            rows.borrow_mut().push(CertBenchRow::from_metrics("indexed", &cfg, &m));
                        }
                        black_box((m.tpm(), m.cert_work.span_fraction(), m.cert_work.vote_rounds))
                    })
                });
            }
        }
        g.finish();
    }
    let rows = rows.into_inner();
    if !rows.is_empty() {
        let path = merge_and_write("ablation_cert_sharding", &rows).expect("merge BENCH_cert.json");
        println!("merged {} fresh rows into {}", rows.len(), path.display());
    }
}

fn bench_vote_wire(c: &mut Criterion) {
    // The decentralized-vote question: with certification verdicts
    // multicast as wire-level votes (piggybacked on outgoing data frames
    // where MTU slack allows) instead of modeled as a fixed RTT, what does
    // the vote round actually cost? The sweep crosses sites {3, 6, 9, 12}
    // with replication factor {2, 3} (rf >= sites points are full
    // replication — no wire votes — and are skipped). Rows land in
    // BENCH_cert.json keyed by (sites, replication_factor), carrying the
    // wire ledger: votes sent/received, piggyback rate, resends, and the
    // mean origin-side wait from delivery to quorum decision.
    let rows: RefCell<Vec<CertBenchRow>> = RefCell::new(Vec::new());
    {
        let mut g = c.benchmark_group("ablation_vote_wire");
        g.sample_size(1);
        g.measurement_time(Duration::from_secs(1));
        let clients = 12_000usize;
        for sites in [3usize, 6, 9, 12] {
            for factor in [2usize, 3] {
                if factor >= sites {
                    continue; // full replication: no wire votes to measure
                }
                let id = format!("sites_{sites}_rf_{factor}");
                let mut recorded = false;
                g.bench_function(&id, |b| {
                    b.iter(|| {
                        // Same steady-state budget, snapshot window and CPU
                        // configuration as the partial-replication sweep, so
                        // the two sweeps' rows are directly comparable.
                        let mut cfg = ExperimentConfig::replicated(sites, clients)
                            .with_target(20_000)
                            .with_cert_backend(CertBackendKind::Indexed)
                            .with_replication_factor(factor);
                        cfg.history_window = 1 << 17;
                        cfg.cpus_per_site = 3;
                        let m = run_experiment(cfg.clone());
                        if !recorded {
                            recorded = true;
                            println!("    {}", dbsm_core::report::summary_line(&id, &m));
                            rows.borrow_mut().push(CertBenchRow::from_metrics("indexed", &cfg, &m));
                        }
                        black_box((
                            m.tpm(),
                            m.vote_wire.sent,
                            m.vote_wire.piggyback_rate(),
                            m.vote_wire.mean_wait_ms(),
                        ))
                    })
                });
            }
        }
        g.finish();
    }
    let rows = rows.into_inner();
    if !rows.is_empty() {
        let path = merge_and_write("ablation_cert_sharding", &rows).expect("merge BENCH_cert.json");
        println!("merged {} fresh rows into {}", rows.len(), path.display());
    }
}

fn bench_replacement(c: &mut Criterion) {
    // Re-placement under churn: at 6 sites the sweep crosses replication
    // factor {2, 3} with crash counts {0, 1, 2}. Zero crashes is the
    // baseline; one crash (site 5) removes one replica of its spans but
    // strands nothing — clients re-route to the surviving replica; two
    // crashes take the ADJACENT pair {0, 1}, which under round-robin
    // placement at rf 2 removes BOTH replicas of the spans homed on the
    // pair, forcing the survivors to elect adopters and re-home those
    // spans through state transfer. At rf 3 the same pair crash leaves a
    // third replica alive, so its rows price pure degradation with no
    // re-homing — the rf axis separates the two effects. Rows land in
    // BENCH_cert.json under synthetic backend labels `churn{n}` (so they
    // never collide with the partial-replication sweep's rows at the same
    // (sites, rf) point), carrying the schema-v5 re-placement ledger.
    let rows: RefCell<Vec<CertBenchRow>> = RefCell::new(Vec::new());
    {
        let mut g = c.benchmark_group("ablation_replacement");
        g.sample_size(1);
        g.measurement_time(Duration::from_secs(1));
        let sites = 6usize;
        let clients = 12_000usize;
        for factor in [2usize, 3] {
            for crashes in [0usize, 1, 2] {
                let id = format!("rf_{factor}_crash_{crashes}");
                let backend = format!("churn{crashes}");
                let mut recorded = false;
                g.bench_function(&id, |b| {
                    b.iter(|| {
                        let plan = match crashes {
                            0 => FaultPlan::none(),
                            1 => FaultPlan::crash(5, SimTime::from_secs(3)),
                            _ => FaultPlan::crash(0, SimTime::from_secs(3))
                                .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(5) }),
                        };
                        // Same steady-state budget, snapshot window and CPU
                        // configuration as the partial-replication sweep, so
                        // the churn0 rows match its no-fault rows.
                        let mut cfg = ExperimentConfig::replicated(sites, clients)
                            .with_target(20_000)
                            .with_cert_backend(CertBackendKind::Indexed)
                            .with_replication_factor(factor)
                            .with_faults(plan);
                        cfg.history_window = 1 << 17;
                        cfg.cpus_per_site = 3;
                        let m = run_experiment(cfg.clone());
                        // A vote round stalled past its re-collect cap would
                        // park its clients forever and commits would collapse
                        // well below the no-crash baseline's ~15k — a
                        // genuine hang, not churn-degraded throughput.
                        assert!(
                            m.committed() >= 5_000,
                            "{id}: run stalled at {} commits",
                            m.committed()
                        );
                        if !recorded {
                            recorded = true;
                            println!("    {}", dbsm_core::report::summary_line(&id, &m));
                            rows.borrow_mut().push(CertBenchRow::from_metrics(&backend, &cfg, &m));
                        }
                        black_box((
                            m.tpm(),
                            m.replacement_work.replacements,
                            m.replacement_work.rehomed_spans,
                            m.replacement_work.mean_time_to_serving_ms(),
                        ))
                    })
                });
            }
        }
        g.finish();
    }
    let rows = rows.into_inner();
    if !rows.is_empty() {
        let path = merge_and_write("ablation_cert_sharding", &rows).expect("merge BENCH_cert.json");
        println!("merged {} fresh rows into {}", rows.len(), path.display());
    }
}

criterion_group!(
    benches,
    bench_locking_policy,
    bench_sequencer_share,
    bench_ann_batching,
    bench_uniform_delivery,
    bench_fault_plans,
    bench_recovery,
    bench_cert_backend,
    bench_partial_replication,
    bench_vote_wire,
    bench_replacement,
);
criterion_main!(benches);
