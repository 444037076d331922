//! The benchmark's workloads: closed-loop TPC-C at 10 s mean think time on
//! fixed cluster shapes. NOTES.md records why each one was chosen.

use dbsm_core::{ExperimentConfig, FaultPlan};
use dbsm_sim::{derive_seed_indexed, SimTime};

/// The site a crash-restart workload crashes and restarts.
pub const RESTARTED: u16 = 2;

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Replicas.
    pub sites: usize,
    /// CPUs per site.
    pub cpus: usize,
    /// Emulated clients, split over the sites.
    pub clients: usize,
    /// Replicas per warehouse span; `sites` means full replication.
    pub replication: usize,
    /// Crash site [`RESTARTED`] at 20 s and restart it at 35 s of simulated
    /// time.
    pub crash_restart: bool,
    /// Completed transactions that end the measured window of one run.
    pub target: u64,
    /// Independent cluster runs, on seeds derived from `--seed`, whose
    /// outcomes are pooled into one set of simulated metrics.
    pub runs: usize,
}

/// Every workload, those `BENCHMARK.json` lists first. NOTES.md says why the
/// others are not listed.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "paper3",
        sites: 3,
        cpus: 1,
        clients: 1_500,
        replication: 3,
        crash_restart: false,
        target: 10_000,
        runs: 32,
    },
    Workload {
        name: "central3",
        sites: 1,
        cpus: 3,
        clients: 1_500,
        replication: 1,
        crash_restart: false,
        target: 10_000,
        runs: 96,
    },
    Workload {
        name: "contended3",
        sites: 3,
        cpus: 1,
        clients: 10_000,
        replication: 3,
        crash_restart: false,
        target: 10_000,
        runs: 3,
    },
    Workload {
        name: "partial12",
        sites: 12,
        cpus: 1,
        clients: 3_000,
        replication: 2,
        crash_restart: false,
        target: 10_000,
        runs: 2,
    },
    Workload {
        name: "rejoin3",
        sites: 3,
        cpus: 1,
        clients: 1_500,
        replication: 3,
        crash_restart: true,
        target: 13_000,
        runs: 8,
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        ALL.iter().copied().find(|w| w.name == name)
    }

    /// Seed of run `index`, derived from the benchmark's `--seed`.
    pub fn run_seed(&self, seed: u64, index: usize) -> u64 {
        derive_seed_indexed(seed, self.name, index as u64)
    }

    /// The experiment configuration of one run.
    pub fn config(&self, run_seed: u64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::replicated(self.sites, self.clients);
        cfg.cpus_per_site = self.cpus;
        cfg = cfg
            .with_target(self.target)
            .with_seed(run_seed)
            .with_replication_factor(self.replication);
        if self.crash_restart {
            cfg = cfg.with_faults(FaultPlan::crash_restart(
                RESTARTED,
                SimTime::from_secs(20),
                SimTime::from_secs(35),
            ));
        }
        cfg
    }
}
