//! Experiment configuration: every knob the paper's §5 varies.

use crate::placement::{PlacementError, PlacementMap, PlacementStrategy};
use dbsm_cert::{CertBackendKind, CertWork};
use dbsm_db::{CcPolicy, StorageConfig};
use dbsm_fault::{FaultPlan, PlanError};
use dbsm_gcs::{AnnBatchPolicy, GcsConfig};
use std::fmt;
use std::time::Duration;

/// Configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Number of replicas (1 = centralized baseline).
    pub sites: usize,
    /// CPUs per site (the paper's centralized baselines use 1, 3 and 6).
    pub cpus_per_site: usize,
    /// Emulated clients, split equally across sites.
    pub clients: usize,
    /// Stop after this many completed transactions (the paper runs 10 000).
    pub target_txns: u64,
    /// Hard cap on simulated time.
    pub max_sim: Duration,
    /// Master seed for every stochastic component.
    pub seed: u64,
    /// Mean think time between client requests.
    pub think_mean: Duration,
    /// Storage configuration per site.
    pub storage: StorageConfig,
    /// Concurrency-control policy.
    pub policy: CcPolicy,
    /// Group-communication configuration; `None` uses
    /// [`GcsConfig::lan`] for the configured number of sites.
    pub gcs: Option<GcsConfig>,
    /// Faults to inject (§5.3).
    pub faults: FaultPlan,
    /// Validate read-only transactions against recently committed
    /// write-sets (on, as in the prototype; stock-level is always exempt).
    pub certify_read_only: bool,
    /// Per-table read-set size beyond which certification upgrades to a
    /// table-level entry (§3.3).
    pub table_lock_threshold: usize,
    /// Committed write-sets retained by the certifier before garbage
    /// collection.
    pub history_window: u64,
    /// Which certification backend every site runs: the indexed write
    /// history (default) or the paper-faithful linear scan. Both reach
    /// bit-identical decisions; they differ only in certification cost.
    pub cert_backend: CertBackendKind,
    /// Relative CPU speed (the CSRT's processor-speed scaling, §2.3);
    /// both simulated processing and real-code costs scale by it.
    pub cpu_speed: f64,
    /// Overrides the segment's one-way latency (wide-area what-if runs);
    /// `None` keeps the 50 µs LAN default.
    pub wan_latency: Option<Duration>,
    /// Partial-replication placement: which sites replicate each warehouse.
    /// `None` — or a map whose [`PlacementMap::is_full`] — runs classic
    /// full replication; a genuine k-of-N map routes clients to owner
    /// sites, restricts each site's certification to its span, and commits
    /// cross-span transactions through a vote round.
    pub placement: Option<PlacementMap>,
}

impl ExperimentConfig {
    /// A centralized (1-site) baseline with `cpus` processors.
    pub fn centralized(cpus: usize, clients: usize) -> Self {
        ExperimentConfig {
            sites: 1,
            cpus_per_site: cpus,
            clients,
            target_txns: 10_000,
            max_sim: Duration::from_secs(600),
            seed: 42,
            think_mean: Duration::from_secs(10),
            storage: StorageConfig::raid5_fibre(),
            policy: CcPolicy::MultiVersion,
            gcs: None,
            faults: FaultPlan::none(),
            certify_read_only: true,
            table_lock_threshold: 256,
            history_window: 4096,
            cert_backend: CertBackendKind::Indexed,
            cpu_speed: 1.0,
            wan_latency: None,
            placement: None,
        }
    }

    /// A replicated configuration with `sites` single-CPU replicas
    /// (the paper's 3-site and 6-site setups).
    pub fn replicated(sites: usize, clients: usize) -> Self {
        ExperimentConfig { sites, cpus_per_site: 1, ..ExperimentConfig::centralized(1, clients) }
    }

    /// Caps the run length (useful for fast tests and examples).
    pub fn with_target(mut self, txns: u64) -> Self {
        self.target_txns = txns;
        self
    }

    /// Sets the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the certification backend.
    pub fn with_cert_backend(mut self, backend: CertBackendKind) -> Self {
        self.cert_backend = backend;
        self
    }

    /// Sets the partial-replication placement map.
    pub fn with_placement(mut self, placement: PlacementMap) -> Self {
        self.placement = Some(placement);
        self
    }

    /// Convenience: replicates each warehouse on `k` of the configured
    /// sites under the round-robin strategy. `k >= sites` clears the map —
    /// that is full replication, which runs the classic unrestricted path
    /// (set after [`ExperimentConfig::replicated`] fixes the site count).
    pub fn with_replication_factor(mut self, k: usize) -> Self {
        self.placement = if k >= self.sites {
            None
        } else {
            Some(PlacementMap::new(self.sites, k, PlacementStrategy::RoundRobin))
        };
        self
    }

    /// Selects the sequencer announcement batching policy, materializing the
    /// default GCS configuration if none was set explicitly.
    pub fn with_ann_policy(mut self, policy: AnnBatchPolicy) -> Self {
        let mut gcs = self.gcs_config();
        gcs.ann_policy = policy;
        self.gcs = Some(gcs);
        self
    }

    /// The effective GCS configuration.
    ///
    /// Plans containing a [`dbsm_fault::FaultSpec::Partition`] always run
    /// with **uniform (safe) delivery**, overriding
    /// [`GcsConfig::uniform_delivery`]: optimistic delivery acts on
    /// orderings that only a minority may have seen, and across a
    /// primary-component change the next sequencer can legitimately re-make
    /// them — a minority site that already acted on the old ordering would
    /// have committed a divergent history. Uniform delivery (content *and*
    /// ordering stable before delivery) closes that window; the membership
    /// machinery's primary-component rule handles the rest.
    ///
    /// Plans containing a [`dbsm_fault::FaultSpec::Restart`] run uniform for
    /// the same reason: the rejoin chain check requires a halted site's
    /// commits to be a strict prefix of the survivors' log, and only uniform
    /// delivery guarantees a site crashed mid-protocol never delivered an
    /// ordering the primary component later re-made.
    pub fn gcs_config(&self) -> GcsConfig {
        let mut gcs = self.gcs.clone().unwrap_or_else(|| GcsConfig::lan(self.sites));
        if self.faults.has_partition() || self.faults.has_restart() {
            gcs.uniform_delivery = true;
        }
        gcs
    }

    /// Checks the configuration: the fault plan against the site count,
    /// the placement map (when set) against the site count, and the fault
    /// plan against the placement via [`FaultPlan::validate_coverage`] —
    /// only fault schedules leaving some instant with *zero live sites
    /// cluster-wide* are rejected, since a span stranded by the loss of its
    /// whole replica set now re-homes to an elected survivor instead of
    /// becoming unroutable. A placement pinned with
    /// [`PlacementMap::with_strict_coverage`] opts back into the static
    /// pre-churn rule ([`FaultPlan::validate_coverage_strict`]): any
    /// stranded replica set rejects the run.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.faults.validate(self.sites)?;
        let Some(placement) = &self.placement else { return Ok(()) };
        placement.validate(self.sites)?;
        if placement.is_full() {
            return Ok(());
        }
        let warehouses = dbsm_tpcc::schema::warehouses_for_clients(self.clients);
        let replica_sets: Vec<Vec<u16>> = (0..warehouses as u64)
            .map(|w| placement.replicas(w).iter().map(|&s| s as u16).collect())
            .collect();
        if placement.strict_coverage {
            self.faults.validate_coverage_strict(self.sites, &replica_sets)?;
        } else {
            self.faults.validate_coverage(self.sites, &replica_sets)?;
        }
        Ok(())
    }
}

/// Why an [`ExperimentConfig`] was rejected by
/// [`ExperimentConfig::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// The fault plan is malformed, or strands a placement span
    /// ([`FaultPlan::validate_coverage`]).
    Fault(PlanError),
    /// The placement map is malformed.
    Placement(PlacementError),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Fault(e) => write!(f, "{e}"),
            ConfigError::Placement(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<PlanError> for ConfigError {
    fn from(e: PlanError) -> Self {
        ConfigError::Fault(e)
    }
}

impl From<PlacementError> for ConfigError {
    fn from(e: PlacementError) -> Self {
        ConfigError::Placement(e)
    }
}

/// CPU cost constants for the certification real code under synthetic
/// profiling (the wall-clock mode measures instead). Calibrated so protocol
/// CPU lands in the paper's ≈1–2 % band (Fig. 7c).
///
/// Every backend is priced from the same [`CertWork`] record: the linear
/// scan reports merge `comparisons`, the indexed backend reports index
/// `probes`, and each dimension carries its own per-unit cost — a hash probe
/// plus binary search is dearer than one merge step, but the indexed backend
/// performs O(request) of them instead of O(window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CertCostModel {
    /// Fixed cost of building + marshalling a request.
    pub marshal_fixed: Duration,
    /// Marshalling cost per byte, nanoseconds.
    pub marshal_per_byte_ns: f64,
    /// Fixed cost of unmarshalling + certifying.
    pub certify_fixed: Duration,
    /// Cost per ordered-merge comparison step (linear backend).
    pub per_comparison_ns: f64,
    /// Cost per index probe — hash lookup plus interval binary search
    /// (indexed backend).
    pub per_probe_ns: f64,
    /// Latency of the verdict exchange for *read-only* cross-span
    /// validations under partial replication: a read-only transaction is
    /// never broadcast, so its cross-span check cannot ride the wire-vote
    /// machinery and instead waits out one modelled LAN round trip (probe
    /// out, verdicts back). Update transactions pay real wire-vote latency
    /// instead ([`dbsm_gcs::Gcs::cast_vote`]); span-local reads pay
    /// nothing.
    pub vote_rtt: Duration,
    /// Snapshot size per warehouse for rejoin state transfer: a restarted
    /// site receives this many bytes per warehouse it replicates (every
    /// warehouse under full replication, only its spans' warehouses under
    /// partial placement).
    pub snapshot_bytes_per_warehouse: u64,
    /// Delta-log bytes per committed entry between the rejoiner's pre-crash
    /// commit point and the transfer cut (marshalled write-set plus framing).
    pub delta_bytes_per_entry: u64,
    /// Effective state-transfer bandwidth in bytes per second — the donor
    /// streams the snapshot and delta log alongside regular traffic, so this
    /// sits below raw link speed.
    pub transfer_bytes_per_sec: f64,
}

impl Default for CertCostModel {
    fn default() -> Self {
        CertCostModel {
            marshal_fixed: Duration::from_micros(15),
            marshal_per_byte_ns: 2.0,
            certify_fixed: Duration::from_micros(20),
            per_comparison_ns: 60.0,
            per_probe_ns: 90.0,
            vote_rtt: Duration::from_micros(120),
            snapshot_bytes_per_warehouse: 2 << 20,
            delta_bytes_per_entry: 768,
            transfer_bytes_per_sec: 12.5e6,
        }
    }
}

impl CertCostModel {
    /// Cost of marshalling `bytes`.
    pub fn marshal(&self, bytes: usize) -> Duration {
        self.marshal_fixed + Duration::from_nanos((self.marshal_per_byte_ns * bytes as f64) as u64)
    }

    /// Wall-clock time to stream `bytes` of rejoin state transfer at the
    /// configured bandwidth.
    pub fn transfer_delay(&self, bytes: u64) -> Duration {
        Duration::from_secs_f64(bytes as f64 / self.transfer_bytes_per_sec)
    }

    /// The data-dependent part of one certification that performed `work`:
    /// the merge comparisons and index probes it actually executed. This is
    /// the *stall* a certification inflicts on the delivery loop that runs
    /// it inline.
    pub fn certify_data(&self, work: CertWork) -> Duration {
        Duration::from_nanos((self.per_comparison_ns * work.comparisons as f64) as u64)
            + Duration::from_nanos((self.per_probe_ns * work.probes as f64) as u64)
    }

    /// Cost of one certification that performed `work`: the
    /// fixed unmarshal/setup cost plus [`CertCostModel::certify_data`].
    pub fn certify(&self, work: CertWork) -> Duration {
        self.certify_fixed + self.certify_data(work)
    }

    /// Total conflict-check nanoseconds a run's [`CertWorkTotals`]
    /// represent — the data-dependent work the certifier performed. The
    /// fixed per-request unmarshal cost is identical across backends and is
    /// deliberately excluded: this view exists to compare backends, and a
    /// constant both sides pay would only dilute the comparison.
    ///
    /// [`CertWorkTotals`]: crate::CertWorkTotals
    pub fn total_work_ns(&self, t: &crate::CertWorkTotals) -> f64 {
        self.per_comparison_ns * t.comparisons as f64 + self.per_probe_ns * t.probes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_have_paper_defaults() {
        let c = ExperimentConfig::centralized(3, 500);
        assert_eq!(c.sites, 1);
        assert_eq!(c.cpus_per_site, 3);
        assert_eq!(c.target_txns, 10_000);
        let r = ExperimentConfig::replicated(6, 2000);
        assert_eq!(r.sites, 6);
        assert_eq!(r.cpus_per_site, 1);
        assert_eq!(r.gcs_config().n_nodes, 6);
    }

    #[test]
    fn cost_model_scales() {
        let m = CertCostModel::default();
        assert!(m.marshal(1000) > m.marshal(10));
        let comparisons = |n| CertWork { comparisons: n, ..CertWork::default() };
        let probes = |n| CertWork { probes: n, ..CertWork::default() };
        assert!(m.certify(comparisons(500)) > m.certify(comparisons(0)));
        assert!(m.certify(probes(500)) > m.certify(probes(0)));
        // A handful of probes is far cheaper than a long scan: the honest
        // pricing that makes the indexed backend pay off under load.
        assert!(m.certify(probes(24)) < m.certify(comparisons(1000)));
    }

    #[test]
    fn ann_policy_selector_materializes_gcs_config() {
        let c = ExperimentConfig::replicated(3, 30);
        assert_eq!(c.gcs_config().ann_policy, AnnBatchPolicy::Immediate, "paper-faithful default");
        let c = c.with_ann_policy(AnnBatchPolicy::adaptive_lan());
        assert_eq!(c.gcs_config().ann_policy, AnnBatchPolicy::adaptive_lan());
        assert_eq!(c.gcs_config().n_nodes, 3, "materialized config keeps the site count");
    }

    #[test]
    fn partition_plans_force_uniform_delivery() {
        use dbsm_sim::SimTime;
        let plan = FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(5),
            SimTime::from_secs(6),
        );
        let c = ExperimentConfig::replicated(3, 30);
        assert!(!c.gcs_config().uniform_delivery, "optimistic by default");
        let c = c.with_faults(plan);
        assert!(c.gcs_config().uniform_delivery, "partition plans run uniform");
        assert!(c.validate().is_ok());
        // Even an explicitly optimistic GCS config is overridden.
        let mut c = c;
        c.gcs = Some(GcsConfig::lan(3));
        assert!(c.gcs_config().uniform_delivery);
    }

    #[test]
    fn restart_plans_force_uniform_delivery() {
        use dbsm_sim::SimTime;
        let plan = FaultPlan::crash_restart(2, SimTime::from_secs(5), SimTime::from_secs(8));
        let c = ExperimentConfig::replicated(3, 30);
        assert!(!c.gcs_config().uniform_delivery, "optimistic by default");
        let c = c.with_faults(plan);
        assert!(c.gcs_config().uniform_delivery, "restart plans run uniform");
        assert!(c.validate().is_ok());
        // Even an explicitly optimistic GCS config is overridden.
        let mut c = c;
        c.gcs = Some(GcsConfig::lan(3));
        assert!(c.gcs_config().uniform_delivery);
    }

    #[test]
    fn transfer_delay_prices_bytes_at_the_configured_bandwidth() {
        let m = CertCostModel::default();
        // 12.5 MB at 12.5 MB/s = 1 s.
        assert_eq!(m.transfer_delay(12_500_000), Duration::from_secs(1));
        assert_eq!(m.transfer_delay(0), Duration::ZERO);
        // A 3-warehouse snapshot plus a 100-entry delta log.
        let bytes = 3 * m.snapshot_bytes_per_warehouse + 100 * m.delta_bytes_per_entry;
        let d = m.transfer_delay(bytes);
        assert!(d > Duration::from_millis(400) && d < Duration::from_secs(2), "{d:?}");
    }

    #[test]
    fn validate_rejects_malformed_plans() {
        use dbsm_sim::SimTime;
        let bad = FaultPlan::partition(
            vec![vec![0, 1], vec![1, 2]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(ExperimentConfig::replicated(3, 30).with_faults(bad).validate().is_err());
    }

    #[test]
    fn replication_factor_builder_materializes_a_placement() {
        let c = ExperimentConfig::replicated(6, 60).with_replication_factor(2);
        let p = c.placement.expect("partial placement set");
        assert_eq!((p.sites, p.replication_factor), (6, 2));
        assert!(!p.is_full());
        assert!(c.validate().is_ok());
        // k >= sites degenerates to the classic full-replication path.
        assert!(ExperimentConfig::replicated(6, 60).with_replication_factor(6).placement.is_none());
        assert!(ExperimentConfig::replicated(6, 60).with_replication_factor(9).placement.is_none());
    }

    #[test]
    fn validate_rejects_placements_stranded_by_faults() {
        use dbsm_sim::SimTime;
        // 60 clients -> 6 warehouses round-robin over 6 sites at rf=2:
        // warehouse span w lives on sites {w, w+1 mod 6}. A majority
        // partition {0,1,2,3} strands spans 4 and 5 entirely on {4,5} —
        // legal by default (the primary component re-homes them), rejected
        // only when the placement pins the strict pre-churn rule.
        let plan = FaultPlan::partition(
            vec![vec![0, 1, 2, 3], vec![4, 5]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        let relaxed = ExperimentConfig::replicated(6, 60)
            .with_replication_factor(2)
            .with_faults(plan.clone());
        assert!(relaxed.validate().is_ok(), "stranded spans re-home by default");
        let strict = ExperimentConfig::replicated(6, 60)
            .with_placement(PlacementMap::round_robin(6, 2).with_strict_coverage())
            .with_faults(plan.clone());
        let err = strict.validate().unwrap_err();
        assert!(err.to_string().contains("zero live replicas"), "{err}");
        // Crashing every site is unservable under either rule.
        let outage = (0..6).fold(FaultPlan::none(), |p, s| {
            p.with(dbsm_fault::FaultSpec::Crash { site: s, at: SimTime::from_secs(1) })
        });
        let dead =
            ExperimentConfig::replicated(6, 60).with_replication_factor(2).with_faults(outage);
        let err = dead.validate().unwrap_err();
        assert!(err.to_string().contains("zero live replicas"), "{err}");
        // Full replication shrugs off the stranding partition.
        assert!(ExperimentConfig::replicated(6, 60).with_faults(plan).validate().is_ok());
        // And a mismatched map is caught before the fault cross-check.
        let c = ExperimentConfig::replicated(6, 60).with_placement(PlacementMap::round_robin(3, 2));
        assert!(matches!(
            c.validate(),
            Err(ConfigError::Placement(PlacementError::MismatchedSites { .. }))
        ));
    }

    #[test]
    fn backend_selector_defaults_to_indexed() {
        // Flipped from Linear after re-validating the deterministic smoke
        // test and paper-scale ablations under the index. The
        // paper-faithful scan stays selectable.
        let c = ExperimentConfig::centralized(1, 10);
        assert_eq!(c.cert_backend, CertBackendKind::Indexed);
        let c = c.with_cert_backend(CertBackendKind::Linear);
        assert_eq!(c.cert_backend, CertBackendKind::Linear);
    }
}
