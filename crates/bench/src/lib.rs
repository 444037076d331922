//! # dbsm-bench — reproduction harness for every table and figure
//!
//! One binary per table/figure of the paper's evaluation (§4.2 validation
//! and §5 experiments), plus Criterion micro-benchmarks of the real-code hot
//! paths (`cargo bench`).
//!
//! Binaries accept `--full` to run at the paper's scale (2000 clients,
//! 10 000 transactions); the default is a scaled-down grid that finishes in
//! seconds and preserves the qualitative shape.
//!
//! | target | reproduces |
//! |---|---|
//! | `fig3_validation` | Fig. 3a–c: flooding bandwidth and RTT, real vs CSRT |
//! | `fig4_qq` | Fig. 4: Q-Q latency validation vs a concurrent executor |
//! | `fig5_performance` | Fig. 5a–c: tpm, latency, abort rate vs clients |
//! | `fig6_resources` | Fig. 6a–c: CPU, disk, network usage vs clients |
//! | `fig7_faults` | Fig. 7a–c: latency ECDFs + protocol CPU under loss |
//! | `table1_aborts` | Table 1: abort rates per class and configuration |
//! | `table2_fault_aborts` | Table 2: abort rates under loss faults |
//!
//! The certification ablation groups additionally write their results as
//! a machine-readable `BENCH_cert.json` artifact — see [`cert_json`].

use dbsm_core::{run_experiment, ExperimentConfig, RunMetrics};

pub mod cert_json;

/// Scale of a harness run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast, shape-preserving grid (default).
    Quick,
    /// The paper's full scale (2000 clients, 10 000 transactions).
    Full,
}

impl Scale {
    /// Parses `--full` from the process arguments.
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// The client-count grid for Fig. 5/6 sweeps.
    pub fn client_grid(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![50, 100, 200, 300, 450],
            Scale::Full => vec![100, 250, 500, 750, 1000, 1250, 1500, 1750, 2000],
        }
    }

    /// Transactions per run.
    pub fn target(self) -> u64 {
        match self {
            Scale::Quick => 1200,
            Scale::Full => 10_000,
        }
    }

    /// Scales a paper client count down for quick runs.
    pub fn clients(self, paper: usize) -> usize {
        match self {
            Scale::Quick => (paper / 5).max(20),
            Scale::Full => paper,
        }
    }
}

/// The five configurations of Fig. 5/6, in the paper's legend order.
pub fn fig5_configs(clients: usize, target: u64) -> Vec<(&'static str, ExperimentConfig)> {
    vec![
        ("1 CPU", ExperimentConfig::centralized(1, clients).with_target(target)),
        ("3 CPU", ExperimentConfig::centralized(3, clients).with_target(target)),
        ("6 CPU", ExperimentConfig::centralized(6, clients).with_target(target)),
        ("3 Sites", ExperimentConfig::replicated(3, clients).with_target(target)),
        ("6 Sites", ExperimentConfig::replicated(6, clients).with_target(target)),
    ]
}

/// Runs one configuration and prints a progress line to stderr.
pub fn run_logged(label: &str, clients: usize, cfg: ExperimentConfig) -> RunMetrics {
    eprintln!("  running {label} @ {clients} clients...");
    run_experiment(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert!(Scale::Quick.client_grid().len() < Scale::Full.client_grid().len());
        assert!(Scale::Quick.target() < Scale::Full.target());
        assert_eq!(Scale::Full.clients(750), 750);
        assert!(Scale::Quick.clients(750) < 750);
    }

    #[test]
    fn fig5_has_five_configs() {
        let cfgs = fig5_configs(100, 500);
        assert_eq!(cfgs.len(), 5);
        assert_eq!(cfgs[4].1.sites, 6);
    }
}
