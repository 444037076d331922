//! Fault plans: declarative descriptions of the fault loads of §5.3, plus
//! the scenario families the paper's catalogue motivates but does not
//! exercise — partitions with merges, duplicate delivery, and correlated
//! loss bursts.

use dbsm_sim::SimTime;
use std::fmt;
use std::time::Duration;

/// Which sites a fault applies to.
///
/// # Examples
///
/// ```
/// use dbsm_fault::Target;
///
/// assert!(Target::All.includes(5));
/// assert!(Target::Site(2).includes(2));
/// assert!(!Target::Site(2).includes(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Every site.
    All,
    /// One site by index.
    Site(u16),
}

impl Target {
    /// True if the target includes `site`.
    pub fn includes(&self, site: u16) -> bool {
        match self {
            Target::All => true,
            Target::Site(s) => *s == site,
        }
    }
}

/// One fault, as catalogued by the paper (§5.3) or added on top of it
/// (partition/merge, duplicate delivery, correlated bursts — the scenarios
/// Sutra & Shapiro and Cecchet et al. identify as where middleware
/// replication actually breaks).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Clock drift: scheduled events are postponed (scaled up) and measured
    /// durations scaled down by `rate`.
    ClockDrift {
        /// Affected sites.
        target: Target,
        /// Drift rate (> 1.0 = slow clock).
        rate: f64,
    },
    /// Scheduling latency: a random delay in `[0, max)` added to events
    /// scheduled in the future.
    SchedLatency {
        /// Affected sites.
        target: Target,
        /// Maximum injected delay.
        max: Duration,
    },
    /// Random loss: each message is discarded on reception with probability
    /// `p` (models transmission errors).
    RandomLoss {
        /// Affected sites.
        target: Target,
        /// Per-message drop probability.
        p: f64,
    },
    /// Bursty loss: alternating receive/discard periods (models congestion).
    /// The burst schedule advances per packet at each receiver, so bursts
    /// decorrelate across sites — use [`FaultSpec::CorrelatedBurst`] for
    /// bursts that hit several sites in the same instant.
    BurstyLoss {
        /// Affected sites.
        target: Target,
        /// Long-run fraction of messages dropped.
        fraction: f64,
        /// Mean burst length in messages.
        mean_burst: u32,
    },
    /// Crash: the site stops completely at the given instant.
    Crash {
        /// The crashing site.
        site: u16,
        /// Crash instant.
        at: SimTime,
    },
    /// Restart: a previously crashed (or partition-halted) site comes back
    /// at the given instant with empty volatile state, announces itself to
    /// the live primary component, and catches up through a snapshot +
    /// delta-log state transfer before a view install re-admits it.
    ///
    /// A restart must follow a crash or halt of the same site
    /// ([`FaultPlan::validate`] enforces it, mirroring the partition
    /// `heal_at > at` rule); restarting into an ongoing partition is legal —
    /// the join request is simply retried until the network heals.
    Restart {
        /// The restarting site.
        site: u16,
        /// Restart instant.
        at: SimTime,
    },
    /// Network partition: at `at` the network splits into the given
    /// isolated segments (sites in different groups cannot exchange any
    /// packet); at `heal_at` the segments merge back.
    ///
    /// A partition longer than the group's failure-detector timeout drives
    /// real view changes: the primary component (a strict majority of the
    /// current view) excludes the unreachable sites and continues, while
    /// non-primary segments halt rather than risk split-brain — their sites
    /// count as crashed for the safety check. A partition shorter than the
    /// timeout merges back without any membership change, recovering lost
    /// traffic through NAK retransmission.
    ///
    /// Groups must be non-empty and pairwise disjoint; sites not listed in
    /// any group are isolated from everyone while the partition lasts.
    Partition {
        /// The partition segments, as lists of site indices.
        groups: Vec<Vec<u16>>,
        /// Split instant.
        at: SimTime,
        /// Merge (heal) instant; must lie after `at`.
        heal_at: SimTime,
    },
    /// Byzantine-ish duplicate delivery: each packet arriving at any site is
    /// redelivered (1..=`max_copies` extra copies) with probability `p`.
    /// The group-communication dedup path must absorb the copies without
    /// burning global sequence numbers or disturbing the delivery order.
    DuplicateDelivery {
        /// Per-packet redelivery probability.
        p: f64,
        /// Maximum extra copies per duplicated packet.
        max_copies: u8,
    },
    /// Correlated loss bursts: simulated time is sliced into `window`-long
    /// slots and each slot independently becomes a total blackout with
    /// probability `p` — *simultaneously* at every listed site (one shared
    /// schedule), unlike the per-link [`FaultSpec::BurstyLoss`].
    CorrelatedBurst {
        /// The sites hit by the shared burst schedule.
        sites: Vec<u16>,
        /// Blackout slot length.
        window: Duration,
        /// Probability that any given slot is a blackout.
        p: f64,
    },
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// A partition needs at least two groups to split anything.
    PartitionTooFewGroups {
        /// Number of groups supplied.
        groups: usize,
    },
    /// A partition group is empty.
    PartitionEmptyGroup {
        /// Index of the offending group.
        group: usize,
    },
    /// A site is listed in more than one partition group.
    PartitionOverlap {
        /// The doubly listed site.
        site: u16,
    },
    /// A partition's heal instant does not lie after its split instant.
    PartitionHealNotAfterSplit {
        /// Split instant.
        at: SimTime,
        /// Offending heal instant.
        heal_at: SimTime,
    },
    /// A site index is outside the experiment's `0..sites` range.
    UnknownSite {
        /// Which scenario family referenced it.
        what: &'static str,
        /// The out-of-range site.
        site: u16,
    },
    /// A probability is outside `[0, 1]`.
    BadProbability {
        /// Which scenario family carried it.
        what: &'static str,
        /// The offending value.
        p: f64,
    },
    /// A correlated burst lists no sites.
    NoBurstSites,
    /// A correlated burst lists the same site twice.
    DuplicateBurstSite {
        /// The doubly listed site.
        site: u16,
    },
    /// A parameter that must be strictly positive is zero (or, for the
    /// bursty-loss fraction, outside the open interval `(0, 1)`).
    NotPositive {
        /// Which parameter.
        what: &'static str,
    },
    /// `DuplicateDelivery::max_copies` is zero.
    ZeroCopies,
    /// Under a partial-replication placement, a partition's surviving
    /// primary component holds no replica of some span (warehouse): its
    /// transactions would become unroutable for the rest of the run.
    PartitionUncoveredSpan {
        /// The stranded span (warehouse index).
        span: u64,
    },
    /// Under a partial-replication placement, the plan crashes every
    /// replica of some span (warehouse).
    CrashUncoveredSpan {
        /// The stranded span (warehouse index).
        span: u64,
    },
    /// A restart of a site the plan never crashes or halts: there is
    /// nothing to recover.
    RestartWithoutCrash {
        /// The site with no prior crash or halt.
        site: u16,
    },
    /// A restart scheduled at or before every crash of its site — the site
    /// would not be down yet when asked to come back.
    RestartNotAfterCrash {
        /// The restarting site.
        site: u16,
        /// Offending restart instant.
        at: SimTime,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::PartitionTooFewGroups { groups } => {
                write!(f, "partition needs at least two groups, got {groups}")
            }
            PlanError::PartitionEmptyGroup { group } => {
                write!(f, "partition group {group} is empty")
            }
            PlanError::PartitionOverlap { site } => {
                write!(f, "site {site} appears in two partition groups")
            }
            PlanError::PartitionHealNotAfterSplit { at, heal_at } => {
                write!(f, "partition heal at {heal_at} does not follow the split at {at}")
            }
            PlanError::UnknownSite { what, site } => {
                write!(f, "{what} references site {site} outside the experiment")
            }
            PlanError::BadProbability { what, p } => {
                write!(f, "{what} probability {p} out of range")
            }
            PlanError::NoBurstSites => write!(f, "correlated burst lists no sites"),
            PlanError::DuplicateBurstSite { site } => {
                write!(f, "correlated burst lists site {site} twice")
            }
            PlanError::NotPositive { what } => write!(f, "{what} must be positive"),
            PlanError::ZeroCopies => write!(f, "duplicate delivery needs max_copies >= 1"),
            PlanError::PartitionUncoveredSpan { span } => {
                write!(f, "partition leaves warehouse span {span} with zero live replicas in the primary component")
            }
            PlanError::CrashUncoveredSpan { span } => {
                write!(f, "crashes leave warehouse span {span} with zero live replicas")
            }
            PlanError::RestartWithoutCrash { site } => {
                write!(f, "restart of site {site} which the plan never crashes or halts")
            }
            PlanError::RestartNotAfterCrash { site, at } => {
                write!(f, "restart of site {site} at {at} does not follow any crash of it")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// A set of faults to inject into one experiment run.
///
/// # Examples
///
/// Compose a plan from the builder helpers and validate it against the
/// experiment's site count before running:
///
/// ```
/// use dbsm_fault::{FaultPlan, FaultSpec};
/// use dbsm_sim::SimTime;
///
/// let plan = FaultPlan::partition(
///     vec![vec![0, 1], vec![2]],
///     SimTime::from_secs(10),
///     SimTime::from_secs(12),
/// )
/// .with(FaultSpec::DuplicateDelivery { p: 0.05, max_copies: 2 });
/// assert_eq!(plan.specs.len(), 2);
/// plan.validate(3)?;
/// assert!(plan.validate(2).is_err(), "site 2 does not exist in a 2-site run");
/// # Ok::<(), dbsm_fault::PlanError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The faults.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// The paper's "Random loss" scenario: `p` loss at every site.
    pub fn random_loss(p: f64) -> Self {
        FaultPlan::none().with(FaultSpec::RandomLoss { target: Target::All, p })
    }

    /// The paper's "Bursty loss" scenario: `fraction` loss in bursts of
    /// average `mean_burst` messages at every site.
    pub fn bursty_loss(fraction: f64, mean_burst: u32) -> Self {
        FaultPlan::none().with(FaultSpec::BurstyLoss { target: Target::All, fraction, mean_burst })
    }

    /// A crash of `site` at `at`.
    pub fn crash(site: u16, at: SimTime) -> Self {
        FaultPlan::none().with(FaultSpec::Crash { site, at })
    }

    /// A crash of `site` at `at` followed by a restart (snapshot +
    /// delta-log rejoin) at `restart_at`.
    ///
    /// ```
    /// use dbsm_fault::FaultPlan;
    /// use dbsm_sim::SimTime;
    ///
    /// let plan = FaultPlan::crash_restart(1, SimTime::from_secs(5), SimTime::from_secs(20));
    /// plan.validate(3).expect("restart follows the crash");
    /// assert!(plan.has_restart());
    /// assert_eq!(plan.crashed_by(SimTime::from_secs(10)), vec![1]);
    /// assert!(plan.crashed_by(SimTime::from_secs(20)).is_empty(), "restarted by then");
    /// ```
    pub fn crash_restart(site: u16, at: SimTime, restart_at: SimTime) -> Self {
        FaultPlan::none()
            .with(FaultSpec::Crash { site, at })
            .with(FaultSpec::Restart { site, at: restart_at })
    }

    /// A flapping crash: the same site dies and rejoins `count` times. Flap
    /// `i` crashes at `at + i·2·period` and restarts one `period` later, so
    /// the site alternates `period`-long dead and recovering phases. With
    /// `count >= 2` this is the plan the multi-rejoin chain checker
    /// (`check_logs_rejoined_multi`) was built for — one site accumulating
    /// several rejoin cuts in a single run — which no stock plan exercised
    /// before.
    ///
    /// ```
    /// use dbsm_fault::FaultPlan;
    /// use dbsm_sim::SimTime;
    /// use std::time::Duration;
    ///
    /// let plan = FaultPlan::flapping_crash(1, SimTime::from_secs(5), Duration::from_secs(10), 2);
    /// plan.validate(3).expect("each restart follows its crash");
    /// assert!(plan.has_restart());
    /// // Down during each flap, back up in between.
    /// assert_eq!(plan.crashed_by(SimTime::from_secs(10)), vec![1]);
    /// assert!(plan.crashed_by(SimTime::from_secs(20)).is_empty());
    /// assert_eq!(plan.crashed_by(SimTime::from_secs(30)), vec![1]);
    /// assert!(plan.crashed_by(SimTime::from_secs(40)).is_empty());
    /// ```
    pub fn flapping_crash(site: u16, at: SimTime, period: Duration, count: u32) -> Self {
        let mut plan = FaultPlan::none();
        let period_ns = period.as_nanos() as u64;
        for i in 0..count as u64 {
            let crash = SimTime::from_nanos(at.as_nanos() + i * 2 * period_ns);
            let restart = SimTime::from_nanos(crash.as_nanos() + period_ns);
            plan = plan
                .with(FaultSpec::Crash { site, at: crash })
                .with(FaultSpec::Restart { site, at: restart });
        }
        plan
    }

    /// A flapping partition: the same split re-forms `count` times. Flap
    /// `i` splits at `at + i·2·period` and heals one `period` later, so the
    /// network alternates `period`-long partitioned and healed phases —
    /// the membership machinery is forced through repeated
    /// exclude/halt/rejoin cycles instead of the single one a plain
    /// [`FaultPlan::partition`] exercises.
    pub fn flapping_partition(
        groups: Vec<Vec<u16>>,
        at: SimTime,
        period: Duration,
        count: u32,
    ) -> Self {
        let mut plan = FaultPlan::none();
        let period_ns = period.as_nanos() as u64;
        for i in 0..count as u64 {
            let split = SimTime::from_nanos(at.as_nanos() + i * 2 * period_ns);
            let heal = SimTime::from_nanos(split.as_nanos() + period_ns);
            plan = plan.with(FaultSpec::Partition {
                groups: groups.clone(),
                at: split,
                heal_at: heal,
            });
        }
        plan
    }

    /// The rolling kill-and-replace chaos plan: every one of the `sites`
    /// replicas is crashed once and restarted `downtime` later, one site
    /// at a time, `stagger` apart (site `s` crashes at
    /// `first_at + s·stagger`). Choose `stagger` comfortably larger than
    /// `downtime` plus the expected catch-up time so at most one site is
    /// down or rejoining at any instant — the survivors then always hold a
    /// primary component and the run never halts.
    pub fn kill_and_replace(
        sites: usize,
        first_at: SimTime,
        stagger: Duration,
        downtime: Duration,
    ) -> Self {
        let mut plan = FaultPlan::none();
        for s in 0..sites {
            let at =
                SimTime::from_nanos(first_at.as_nanos() + s as u64 * stagger.as_nanos() as u64);
            let back = SimTime::from_nanos(at.as_nanos() + downtime.as_nanos() as u64);
            plan = plan
                .with(FaultSpec::Crash { site: s as u16, at })
                .with(FaultSpec::Restart { site: s as u16, at: back });
        }
        plan
    }

    /// Clock drift on one site.
    pub fn clock_drift(site: u16, rate: f64) -> Self {
        FaultPlan::none().with(FaultSpec::ClockDrift { target: Target::Site(site), rate })
    }

    /// Scheduling latency on every site.
    pub fn sched_latency(max: Duration) -> Self {
        FaultPlan::none().with(FaultSpec::SchedLatency { target: Target::All, max })
    }

    /// A network partition into `groups` at `at`, healing (merging) at
    /// `heal_at`.
    ///
    /// ```
    /// use dbsm_fault::FaultPlan;
    /// use dbsm_sim::SimTime;
    ///
    /// let plan =
    ///     FaultPlan::partition(vec![vec![0, 1], vec![2]], SimTime::from_secs(5), SimTime::from_secs(8));
    /// assert!(plan.has_partition());
    /// plan.validate(3).expect("well-formed split of 3 sites");
    /// ```
    pub fn partition(groups: Vec<Vec<u16>>, at: SimTime, heal_at: SimTime) -> Self {
        FaultPlan::none().with(FaultSpec::Partition { groups, at, heal_at })
    }

    /// Duplicate delivery at every site: each arriving packet is redelivered
    /// (1..=`max_copies` extra copies) with probability `p`.
    pub fn duplicate_delivery(p: f64, max_copies: u8) -> Self {
        FaultPlan::none().with(FaultSpec::DuplicateDelivery { p, max_copies })
    }

    /// Correlated loss bursts on `sites`: every `window`-long slot of
    /// simulated time blacks out all of them simultaneously with
    /// probability `p`.
    pub fn correlated_burst(sites: Vec<u16>, window: Duration, p: f64) -> Self {
        FaultPlan::none().with(FaultSpec::CorrelatedBurst { sites, window, p })
    }

    /// Sites down at `t` according to this plan's crash/restart schedule (a
    /// crash scheduled *exactly* at `t` counts; so does a restart), sorted
    /// and deduplicated — a site crashed twice is still one crashed site,
    /// and a site restarted after its latest crash is no longer down.
    ///
    /// ```
    /// use dbsm_fault::{FaultPlan, FaultSpec};
    /// use dbsm_sim::SimTime;
    ///
    /// let plan = FaultPlan::crash(2, SimTime::from_secs(5))
    ///     .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(9) });
    /// assert!(plan.crashed_by(SimTime::from_secs(4)).is_empty());
    /// assert_eq!(plan.crashed_by(SimTime::from_secs(5)), vec![2], "boundary is inclusive");
    /// assert_eq!(plan.crashed_by(SimTime::from_secs(9)), vec![1, 2], "sorted by site");
    /// ```
    pub fn crashed_by(&self, t: SimTime) -> Vec<u16> {
        let mut sites: Vec<u16> = self
            .specs
            .iter()
            .filter_map(|s| match s {
                FaultSpec::Crash { site, at } if *at <= t => Some(*site),
                _ => None,
            })
            .filter(|&site| self.down_at(site, t))
            .collect();
        sites.sort_unstable();
        sites.dedup();
        sites
    }

    /// True when `site` is down at `t`: its latest crash at or before `t`
    /// is not followed by a restart at or before `t`.
    pub fn down_at(&self, site: u16, t: SimTime) -> bool {
        let latest = |want_restart: bool| {
            self.specs
                .iter()
                .filter_map(|s| match s {
                    FaultSpec::Crash { site: c, at } if !want_restart && *c == site && *at <= t => {
                        Some(*at)
                    }
                    FaultSpec::Restart { site: r, at }
                        if want_restart && *r == site && *at <= t =>
                    {
                        Some(*at)
                    }
                    _ => None,
                })
                .max()
        };
        match (latest(false), latest(true)) {
            (Some(crash), Some(restart)) => restart < crash,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// True if any spec is a [`FaultSpec::Partition`] — the experiment
    /// runner switches such runs to uniform (safe) delivery, because
    /// optimistic delivery may act on orderings a primary-component change
    /// re-makes.
    pub fn has_partition(&self) -> bool {
        self.specs.iter().any(|s| matches!(s, FaultSpec::Partition { .. }))
    }

    /// True if any spec is a [`FaultSpec::Restart`] — such runs also force
    /// uniform (safe) delivery, because a rejoin installs a view across
    /// which optimistic delivery could act on a re-made ordering.
    pub fn has_restart(&self) -> bool {
        self.specs.iter().any(|s| matches!(s, FaultSpec::Restart { .. }))
    }

    /// Checks the plan against an experiment with `sites` sites.
    ///
    /// Partition groups must be ≥ 2, non-empty, pairwise disjoint and made
    /// of existing sites, with `heal_at > at`; probabilities must lie in
    /// `[0, 1]`; correlated bursts need a non-empty duplicate-free site
    /// list and a positive window; duplicate delivery needs at least one
    /// allowed copy.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError`] found.
    pub fn validate(&self, sites: usize) -> Result<(), PlanError> {
        let known = |what: &'static str, site: u16| {
            if (site as usize) < sites {
                Ok(())
            } else {
                Err(PlanError::UnknownSite { what, site })
            }
        };
        let prob = |what: &'static str, p: f64| {
            if (0.0..=1.0).contains(&p) && p.is_finite() {
                Ok(())
            } else {
                Err(PlanError::BadProbability { what, p })
            }
        };
        for spec in &self.specs {
            match spec {
                FaultSpec::Partition { groups, at, heal_at } => {
                    if groups.len() < 2 {
                        return Err(PlanError::PartitionTooFewGroups { groups: groups.len() });
                    }
                    let mut seen = std::collections::HashSet::new();
                    for (gi, group) in groups.iter().enumerate() {
                        if group.is_empty() {
                            return Err(PlanError::PartitionEmptyGroup { group: gi });
                        }
                        for &site in group {
                            known("partition", site)?;
                            if !seen.insert(site) {
                                return Err(PlanError::PartitionOverlap { site });
                            }
                        }
                    }
                    if heal_at <= at {
                        return Err(PlanError::PartitionHealNotAfterSplit {
                            at: *at,
                            heal_at: *heal_at,
                        });
                    }
                }
                FaultSpec::DuplicateDelivery { p, max_copies } => {
                    prob("duplicate delivery", *p)?;
                    if *max_copies == 0 {
                        return Err(PlanError::ZeroCopies);
                    }
                }
                FaultSpec::CorrelatedBurst { sites: burst_sites, window, p } => {
                    if burst_sites.is_empty() {
                        return Err(PlanError::NoBurstSites);
                    }
                    let mut seen = std::collections::HashSet::new();
                    for &site in burst_sites {
                        known("correlated burst", site)?;
                        if !seen.insert(site) {
                            return Err(PlanError::DuplicateBurstSite { site });
                        }
                    }
                    if window.is_zero() {
                        return Err(PlanError::NotPositive { what: "burst window" });
                    }
                    prob("correlated burst", *p)?;
                }
                FaultSpec::RandomLoss { target, p } => {
                    prob("random loss", *p)?;
                    if let Target::Site(site) = target {
                        known("random loss target", *site)?;
                    }
                }
                FaultSpec::BurstyLoss { target, fraction, mean_burst } => {
                    // BurstyLoss::new panics outside the open interval.
                    if !(fraction.is_finite() && *fraction > 0.0 && *fraction < 1.0) {
                        return Err(PlanError::BadProbability {
                            what: "bursty loss fraction",
                            p: *fraction,
                        });
                    }
                    if *mean_burst == 0 {
                        return Err(PlanError::NotPositive { what: "mean burst length" });
                    }
                    if let Target::Site(site) = target {
                        known("bursty loss target", *site)?;
                    }
                }
                FaultSpec::Crash { site, .. } => known("crash", *site)?,
                FaultSpec::Restart { site, at } => {
                    known("restart", *site)?;
                    // A restart must recover *something*: a crash of the same
                    // site strictly before it, or a partition (started before
                    // it) that halts the site — any non-majority segment, or
                    // no segment at all, halts under the primary-component
                    // rule. This mirrors the `heal_at > at` partition check.
                    let crashes: Vec<SimTime> = self
                        .specs
                        .iter()
                        .filter_map(|s| match s {
                            FaultSpec::Crash { site: c, at } if c == site => Some(*at),
                            _ => None,
                        })
                        .collect();
                    if crashes.iter().any(|c| c < at) {
                        continue;
                    }
                    if !crashes.is_empty() {
                        return Err(PlanError::RestartNotAfterCrash { site: *site, at: *at });
                    }
                    let halted_by_partition = self.specs.iter().any(|s| match s {
                        FaultSpec::Partition { groups, at: split, .. } if split < at => {
                            let minority = groups
                                .iter()
                                .find(|g| g.contains(site))
                                .is_none_or(|g| g.len() * 2 <= sites);
                            minority && groups.iter().any(|g| g.len() * 2 > sites)
                        }
                        _ => false,
                    });
                    if !halted_by_partition {
                        return Err(PlanError::RestartWithoutCrash { site: *site });
                    }
                }
                FaultSpec::ClockDrift { target, .. } | FaultSpec::SchedLatency { target, .. } => {
                    if let Target::Site(site) = target {
                        known("drift/latency target", *site)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the plan against a partial-replication placement:
    /// `replica_sets[span]` lists the sites replicating warehouse `span`.
    /// Rejects only plans whose faults would leave some span with zero
    /// *surviving sites cluster-wide* — truly unservable, because there is
    /// nobody left to re-home the span to. A plan that merely strands a
    /// span's own replica set is legal: the surviving sites detect the
    /// stranding at the view change and re-place the span onto an elected
    /// survivor (rendezvous hash + state transfer), so every transaction
    /// homed there becomes routable again after the transfer.
    ///
    /// * Crashes that take down *every* site at some instant are rejected
    ///   ([`PlanError::CrashUncoveredSpan`] naming the first replicated
    ///   span) — no survivor exists to adopt anything.
    /// * Partitions never reject here: a primary component can always adopt
    ///   stranded spans, and plans with no majority group halt the whole
    ///   system — a legitimate total-outage scenario.
    ///
    /// The pre-re-placement rule (any stranded replica set rejects) lives on
    /// as [`FaultPlan::validate_coverage_strict`] for oracle tests and
    /// placements that opt out of re-homing. Call after
    /// [`FaultPlan::validate`]; full replication never needs this check.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError::CrashUncoveredSpan`] when some crash instant
    /// leaves zero live sites while spans are replicated.
    pub fn validate_coverage(
        &self,
        sites: usize,
        replica_sets: &[Vec<u16>],
    ) -> Result<(), PlanError> {
        let crash_instants = self.specs.iter().filter_map(|s| match s {
            FaultSpec::Crash { at, .. } => Some(*at),
            _ => None,
        });
        for t in crash_instants {
            if sites > 0 && (0..sites as u16).all(|s| self.down_at(s, t)) {
                if let Some(span) = replica_sets.iter().position(|r| !r.is_empty()) {
                    return Err(PlanError::CrashUncoveredSpan { span: span as u64 });
                }
            }
        }
        Ok(())
    }

    /// The strict coverage rule partial replication enforced before
    /// re-placement existed: rejects any plan whose faults strand a span's
    /// *replica set*, even though survivors elsewhere could adopt it —
    ///
    /// * a partition whose surviving *primary component* (the group holding
    ///   a strict majority of `sites`; minority segments halt under the
    ///   PR 4 primary-component rule) contains no replica of the span;
    /// * crashes that take down every replica of the span.
    ///
    /// Plans with no majority group halt the whole system — a legitimate
    /// total-outage scenario — and are not rejected here. Oracle tests pin
    /// this behavior via `PlacementMap::with_strict_coverage`.
    ///
    /// # Errors
    ///
    /// Returns the first [`PlanError::PartitionUncoveredSpan`] or
    /// [`PlanError::CrashUncoveredSpan`] found.
    pub fn validate_coverage_strict(
        &self,
        sites: usize,
        replica_sets: &[Vec<u16>],
    ) -> Result<(), PlanError> {
        // Crash coverage is checked instant by instant: at every crash
        // time, the set of simultaneously down sites (crashed, not yet
        // restarted — [`FaultPlan::down_at`]) must leave each span a live
        // replica. A replica crashed and restarted before another replica's
        // crash does not strand the span; without restarts this degenerates
        // to the old "every replica ever crashed" rule, since at the latest
        // crash instant every crashed site is still down.
        let crash_instants: Vec<SimTime> = self
            .specs
            .iter()
            .filter_map(|s| match s {
                FaultSpec::Crash { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        for &t in &crash_instants {
            for (span, replicas) in replica_sets.iter().enumerate() {
                if !replicas.is_empty() && replicas.iter().all(|&r| self.down_at(r, t)) {
                    return Err(PlanError::CrashUncoveredSpan { span: span as u64 });
                }
            }
        }
        for spec in &self.specs {
            let FaultSpec::Partition { groups, .. } = spec else { continue };
            // Sites missing from every group are isolated singletons, so a
            // listed group is primary iff it holds a strict majority of all
            // `sites`.
            let Some(primary) = groups.iter().find(|g| g.len() * 2 > sites) else { continue };
            for (span, replicas) in replica_sets.iter().enumerate() {
                if !replicas.is_empty() && !replicas.iter().any(|r| primary.contains(r)) {
                    return Err(PlanError::PartitionUncoveredSpan { span: span as u64 });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::random_loss(0.05)
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(10) });
        assert_eq!(plan.specs.len(), 2);
        assert!(!plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn target_matching() {
        assert!(Target::All.includes(3));
        assert!(Target::Site(3).includes(3));
        assert!(!Target::Site(3).includes(4));
    }

    #[test]
    fn crashed_by_filters_on_time() {
        let plan = FaultPlan::crash(1, SimTime::from_secs(5))
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(50) });
        assert_eq!(plan.crashed_by(SimTime::from_secs(10)), vec![1]);
        assert_eq!(plan.crashed_by(SimTime::from_secs(60)), vec![1, 2]);
        assert!(plan.crashed_by(SimTime::ZERO).is_empty());
    }

    #[test]
    fn crash_exactly_at_t_counts_as_crashed() {
        let plan = FaultPlan::crash(0, SimTime::from_secs(7));
        assert!(plan.crashed_by(SimTime::from_nanos(7_000_000_000 - 1)).is_empty());
        assert_eq!(plan.crashed_by(SimTime::from_secs(7)), vec![0], "boundary inclusive");
    }

    #[test]
    fn multiple_crashes_of_one_site_dedup_and_sort() {
        let plan = FaultPlan::crash(2, SimTime::from_secs(3))
            .with(FaultSpec::Crash { site: 0, at: SimTime::from_secs(4) })
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(5) });
        assert_eq!(plan.crashed_by(SimTime::from_secs(3)), vec![2]);
        assert_eq!(plan.crashed_by(SimTime::from_secs(4)), vec![0, 2], "sorted by site id");
        assert_eq!(plan.crashed_by(SimTime::from_secs(99)), vec![0, 2], "site 2 listed once");
    }

    #[test]
    fn partition_validation_accepts_disjoint_covering_split() {
        let plan = FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert!(plan.has_partition());
        assert_eq!(plan.validate(3), Ok(()));
        // Partial splits are allowed: unlisted sites are isolated.
        let partial = FaultPlan::partition(
            vec![vec![0], vec![1]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert_eq!(partial.validate(3), Ok(()));
    }

    #[test]
    fn partition_validation_rejects_malformed_groups() {
        let overlap = FaultPlan::partition(
            vec![vec![0, 1], vec![1, 2]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert_eq!(overlap.validate(3), Err(PlanError::PartitionOverlap { site: 1 }));
        let empty = FaultPlan::partition(
            vec![vec![0, 1], vec![]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert_eq!(empty.validate(3), Err(PlanError::PartitionEmptyGroup { group: 1 }));
        let lonely =
            FaultPlan::partition(vec![vec![0, 1, 2]], SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(lonely.validate(3), Err(PlanError::PartitionTooFewGroups { groups: 1 }));
        let unknown = FaultPlan::partition(
            vec![vec![0], vec![7]],
            SimTime::from_secs(1),
            SimTime::from_secs(2),
        );
        assert_eq!(unknown.validate(3), Err(PlanError::UnknownSite { what: "partition", site: 7 }));
        let unhealed = FaultPlan::partition(
            vec![vec![0], vec![1]],
            SimTime::from_secs(2),
            SimTime::from_secs(2),
        );
        assert!(matches!(unhealed.validate(3), Err(PlanError::PartitionHealNotAfterSplit { .. })));
    }

    #[test]
    fn duplicate_and_burst_validation() {
        assert_eq!(FaultPlan::duplicate_delivery(0.1, 2).validate(3), Ok(()));
        assert_eq!(FaultPlan::duplicate_delivery(0.1, 0).validate(3), Err(PlanError::ZeroCopies));
        assert!(matches!(
            FaultPlan::duplicate_delivery(1.5, 2).validate(3),
            Err(PlanError::BadProbability { .. })
        ));
        let burst = FaultPlan::correlated_burst(vec![0, 1, 2], Duration::from_millis(10), 0.2);
        assert_eq!(burst.validate(3), Ok(()));
        assert_eq!(
            FaultPlan::correlated_burst(vec![], Duration::from_millis(10), 0.2).validate(3),
            Err(PlanError::NoBurstSites)
        );
        assert_eq!(
            FaultPlan::correlated_burst(vec![1, 1], Duration::from_millis(10), 0.2).validate(3),
            Err(PlanError::DuplicateBurstSite { site: 1 })
        );
        assert_eq!(
            FaultPlan::correlated_burst(vec![0], Duration::ZERO, 0.2).validate(3),
            Err(PlanError::NotPositive { what: "burst window" })
        );
        assert_eq!(
            FaultPlan::correlated_burst(vec![0, 9], Duration::from_millis(1), 0.2).validate(3),
            Err(PlanError::UnknownSite { what: "correlated burst", site: 9 })
        );
    }

    #[test]
    fn classic_specs_validate_too() {
        assert_eq!(FaultPlan::random_loss(0.05).validate(3), Ok(()));
        assert!(matches!(
            FaultPlan::random_loss(1.2).validate(3),
            Err(PlanError::BadProbability { .. })
        ));
        assert_eq!(FaultPlan::bursty_loss(0.05, 5).validate(3), Ok(()));
        assert!(
            matches!(
                FaultPlan::bursty_loss(0.0, 5).validate(3),
                Err(PlanError::BadProbability { .. })
            ),
            "fraction 0 would panic in BurstyLoss::new"
        );
        assert!(
            matches!(
                FaultPlan::bursty_loss(1.0, 5).validate(3),
                Err(PlanError::BadProbability { .. })
            ),
            "fraction 1 would panic in BurstyLoss::new"
        );
        assert_eq!(
            FaultPlan::bursty_loss(0.05, 0).validate(3),
            Err(PlanError::NotPositive { what: "mean burst length" })
        );
        let far_loss =
            FaultPlan::none().with(FaultSpec::RandomLoss { target: Target::Site(9), p: 0.1 });
        assert_eq!(
            far_loss.validate(3),
            Err(PlanError::UnknownSite { what: "random loss target", site: 9 })
        );
        let far_burst = FaultPlan::none().with(FaultSpec::BurstyLoss {
            target: Target::Site(9),
            fraction: 0.1,
            mean_burst: 5,
        });
        assert_eq!(
            far_burst.validate(3),
            Err(PlanError::UnknownSite { what: "bursty loss target", site: 9 })
        );
        assert_eq!(
            FaultPlan::crash(5, SimTime::from_secs(1)).validate(3),
            Err(PlanError::UnknownSite { what: "crash", site: 5 })
        );
        assert_eq!(FaultPlan::clock_drift(2, 1.05).validate(3), Ok(()));
        assert_eq!(
            FaultPlan::clock_drift(4, 1.05).validate(3),
            Err(PlanError::UnknownSite { what: "drift/latency target", site: 4 })
        );
    }

    #[test]
    fn restart_requires_a_prior_crash_or_halt() {
        // Well-formed: crash then restart.
        let ok = FaultPlan::crash_restart(1, SimTime::from_secs(5), SimTime::from_secs(20));
        assert_eq!(ok.validate(3), Ok(()));
        assert!(ok.has_restart());
        assert!(!FaultPlan::crash(1, SimTime::from_secs(5)).has_restart());
        // No crash or halt anywhere: nothing to recover.
        let orphan =
            FaultPlan::none().with(FaultSpec::Restart { site: 1, at: SimTime::from_secs(20) });
        assert_eq!(orphan.validate(3), Err(PlanError::RestartWithoutCrash { site: 1 }));
        // Crash of a *different* site does not license the restart.
        let wrong_site = FaultPlan::crash(0, SimTime::from_secs(5))
            .with(FaultSpec::Restart { site: 1, at: SimTime::from_secs(20) });
        assert_eq!(wrong_site.validate(3), Err(PlanError::RestartWithoutCrash { site: 1 }));
        // Restart at or before the crash instant: the site is not down yet.
        for restart_at in [SimTime::from_secs(5), SimTime::from_secs(3)] {
            let early = FaultPlan::crash_restart(1, SimTime::from_secs(5), restart_at);
            assert_eq!(
                early.validate(3),
                Err(PlanError::RestartNotAfterCrash { site: 1, at: restart_at }),
                "restart at {restart_at}"
            );
        }
        // Restart of an out-of-range site is caught like any other target.
        let far = FaultPlan::crash_restart(7, SimTime::from_secs(1), SimTime::from_secs(2));
        assert_eq!(far.validate(3), Err(PlanError::UnknownSite { what: "crash", site: 7 }));
    }

    #[test]
    fn restart_accepts_partition_halted_sites() {
        // Site 2 lands in the minority segment of a majority-keeping split:
        // it halts, so a later restart has something to recover.
        let halted = FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        )
        .with(FaultSpec::Restart { site: 2, at: SimTime::from_secs(12) });
        assert_eq!(halted.validate(3), Ok(()));
        // An unlisted site is isolated — also a halt source.
        let isolated = FaultPlan::partition(
            vec![vec![0, 1, 2], vec![3]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        )
        .with(FaultSpec::Restart { site: 4, at: SimTime::from_secs(12) });
        assert_eq!(isolated.validate(5), Ok(()));
        // A member of the *majority* segment never halts: restarting it is
        // rejected.
        let survivor = FaultPlan::partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        )
        .with(FaultSpec::Restart { site: 0, at: SimTime::from_secs(12) });
        assert_eq!(survivor.validate(3), Err(PlanError::RestartWithoutCrash { site: 0 }));
        // A split with no majority halts everyone, but there is no primary
        // component left to rejoin — rejected.
        let outage = FaultPlan::partition(
            vec![vec![0, 1], vec![2, 3]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        )
        .with(FaultSpec::Restart { site: 2, at: SimTime::from_secs(12) });
        assert_eq!(outage.validate(4), Err(PlanError::RestartWithoutCrash { site: 2 }));
    }

    #[test]
    fn crashed_by_and_down_at_honour_restarts() {
        let plan = FaultPlan::crash_restart(1, SimTime::from_secs(5), SimTime::from_secs(20))
            .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(30) });
        assert!(!plan.down_at(1, SimTime::from_secs(4)));
        assert!(plan.down_at(1, SimTime::from_secs(5)), "crash boundary inclusive");
        assert_eq!(plan.crashed_by(SimTime::from_secs(10)), vec![1]);
        assert!(!plan.down_at(1, SimTime::from_secs(20)), "restart boundary inclusive");
        assert!(plan.crashed_by(SimTime::from_secs(25)).is_empty());
        // The second crash downs the site again, for good this time.
        assert!(plan.down_at(1, SimTime::from_secs(30)));
        assert_eq!(plan.crashed_by(SimTime::from_secs(99)), vec![1]);
        // Other sites are unaffected.
        assert!(!plan.down_at(0, SimTime::from_secs(10)));
    }

    #[test]
    fn flapping_partition_expands_to_alternating_phases() {
        let plan = FaultPlan::flapping_partition(
            vec![vec![0, 1], vec![2]],
            SimTime::from_secs(10),
            Duration::from_secs(2),
            3,
        );
        assert_eq!(plan.specs.len(), 3);
        assert!(plan.has_partition());
        assert_eq!(plan.validate(3), Ok(()));
        let phases: Vec<(u64, u64)> = plan
            .specs
            .iter()
            .map(|s| match s {
                FaultSpec::Partition { at, heal_at, .. } => (at.as_nanos(), heal_at.as_nanos()),
                other => panic!("unexpected spec {other:?}"),
            })
            .collect();
        let sec = 1_000_000_000;
        assert_eq!(phases, vec![(10 * sec, 12 * sec), (14 * sec, 16 * sec), (18 * sec, 20 * sec)]);
        // Zero flaps is the empty plan.
        assert!(FaultPlan::flapping_partition(
            vec![vec![0], vec![1]],
            SimTime::ZERO,
            Duration::from_secs(1),
            0
        )
        .is_empty());
    }

    #[test]
    fn kill_and_replace_rolls_over_every_site() {
        let plan = FaultPlan::kill_and_replace(
            3,
            SimTime::from_secs(10),
            Duration::from_secs(30),
            Duration::from_secs(5),
        );
        assert_eq!(plan.specs.len(), 6);
        assert_eq!(plan.validate(3), Ok(()));
        assert!(plan.has_restart());
        for s in 0..3u16 {
            let crash_at = SimTime::from_secs(10 + 30 * s as u64);
            let back_at = SimTime::from_secs(15 + 30 * s as u64);
            assert!(plan.specs.contains(&FaultSpec::Crash { site: s, at: crash_at }), "site {s}");
            assert!(plan.specs.contains(&FaultSpec::Restart { site: s, at: back_at }), "site {s}");
            assert!(plan.down_at(s, crash_at));
            assert!(!plan.down_at(s, back_at));
        }
        // At most one site is down at every crash instant (stagger > downtime).
        for t in [10u64, 40, 70] {
            assert_eq!(plan.crashed_by(SimTime::from_secs(t)).len(), 1);
        }
    }

    #[test]
    fn coverage_accepts_crashes_healed_by_restarts() {
        // Both replicas of span 1 crash, but never simultaneously: site 0
        // is restarted before site 2 goes down.
        let plan = FaultPlan::crash_restart(0, SimTime::from_secs(1), SimTime::from_secs(5))
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(10) });
        let replicas = vec![vec![0, 1], vec![0, 2]];
        assert_eq!(plan.validate_coverage_strict(3, &replicas), Ok(()));
        // Restarted too late: both are down together at t=10, so the strict
        // rule rejects — but site 1 survives to adopt the span, so the
        // relaxed (re-placement) rule accepts.
        let late = FaultPlan::crash_restart(0, SimTime::from_secs(1), SimTime::from_secs(20))
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(10) });
        assert_eq!(
            late.validate_coverage_strict(3, &replicas),
            Err(PlanError::CrashUncoveredSpan { span: 1 })
        );
        assert_eq!(late.validate_coverage(3, &replicas), Ok(()));
        // The rolling kill-and-replace plan keeps every span covered.
        let rolling = FaultPlan::kill_and_replace(
            3,
            SimTime::from_secs(10),
            Duration::from_secs(30),
            Duration::from_secs(5),
        );
        assert_eq!(rolling.validate_coverage_strict(3, &replicas), Ok(()));
    }

    #[test]
    fn relaxed_coverage_rejects_only_total_outages() {
        let replicas = vec![vec![0, 1], vec![0, 2]];
        // Every site down at t=3: nobody left to re-home anything.
        let outage = FaultPlan::crash(0, SimTime::from_secs(1))
            .with(FaultSpec::Crash { site: 1, at: SimTime::from_secs(2) })
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(3) });
        assert_eq!(
            outage.validate_coverage(3, &replicas),
            Err(PlanError::CrashUncoveredSpan { span: 0 })
        );
        // A restart breaking the simultaneity makes it legal again.
        let healed = outage.clone().with(FaultSpec::Restart { site: 0, at: SimTime::from_secs(2) });
        assert_eq!(healed.validate_coverage(3, &replicas), Ok(()));
        // Stranding partitions are always legal relaxed: the primary
        // component adopts the span.
        let strand = FaultPlan::partition(
            vec![vec![0, 1, 2], vec![3, 4]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        );
        let minority_only = vec![vec![0, 1], vec![3, 4]];
        assert_eq!(strand.validate_coverage(5, &minority_only), Ok(()));
        // An empty placement never strands even under total outage.
        assert_eq!(outage.validate_coverage(3, &[]), Ok(()));
    }

    #[test]
    fn flapping_crash_expands_to_alternating_phases() {
        let plan = FaultPlan::flapping_crash(1, SimTime::from_secs(10), Duration::from_secs(5), 3);
        assert_eq!(plan.specs.len(), 6);
        assert!(plan.has_restart());
        assert_eq!(plan.validate(3), Ok(()));
        // Down during [10,15), [20,25), [30,35); up in between and after.
        for (t, down) in [(9, false), (12, true), (17, false), (22, true), (27, false), (40, false)]
        {
            assert_eq!(plan.down_at(1, SimTime::from_secs(t)), down, "t={t}");
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = PlanError::PartitionOverlap { site: 3 };
        assert!(e.to_string().contains("site 3"));
        let e = PlanError::BadProbability { what: "duplicate delivery", p: 2.0 };
        assert!(e.to_string().contains("duplicate delivery"));
        let e = PlanError::PartitionUncoveredSpan { span: 7 };
        assert!(e.to_string().contains("span 7"));
        let e = PlanError::CrashUncoveredSpan { span: 2 };
        assert!(e.to_string().contains("span 2"));
        let e = PlanError::RestartWithoutCrash { site: 4 };
        assert!(e.to_string().contains("site 4"));
        let e = PlanError::RestartNotAfterCrash { site: 1, at: SimTime::from_secs(3) };
        assert!(e.to_string().contains("site 1"));
    }

    #[test]
    fn coverage_accepts_placements_alive_in_the_primary_component() {
        // 5 sites, warehouses replicated on pairs; the majority group
        // {0,1,2} holds a replica of every span.
        let plan = FaultPlan::partition(
            vec![vec![0, 1, 2], vec![3, 4]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        );
        let replicas = vec![vec![0, 3], vec![1, 4], vec![2, 3]];
        assert_eq!(plan.validate_coverage_strict(5, &replicas), Ok(()));
    }

    #[test]
    fn coverage_rejects_partitions_stranding_a_span() {
        // Span 1 lives only on the minority side: under the strict rule its
        // clients would hang, so the plan is rejected.
        let plan = FaultPlan::partition(
            vec![vec![0, 1, 2], vec![3, 4]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        );
        let replicas = vec![vec![0, 1], vec![3, 4]];
        assert_eq!(
            plan.validate_coverage_strict(5, &replicas),
            Err(PlanError::PartitionUncoveredSpan { span: 1 })
        );
        // No majority group: total outage, legitimate, not rejected here.
        let halt = FaultPlan::partition(
            vec![vec![0, 1], vec![2, 3]],
            SimTime::from_secs(5),
            SimTime::from_secs(8),
        );
        assert_eq!(halt.validate_coverage_strict(5, &replicas), Ok(()));
    }

    #[test]
    fn coverage_rejects_crashing_every_replica_of_a_span() {
        let plan = FaultPlan::crash(0, SimTime::from_secs(1))
            .with(FaultSpec::Crash { site: 2, at: SimTime::from_secs(2) });
        let replicas = vec![vec![0, 1], vec![0, 2]];
        assert_eq!(
            plan.validate_coverage_strict(3, &replicas),
            Err(PlanError::CrashUncoveredSpan { span: 1 })
        );
        // The relaxed rule re-homes span 1 onto the surviving site 1.
        assert_eq!(plan.validate_coverage(3, &replicas), Ok(()));
        // One surviving replica is enough even for strict.
        let single = FaultPlan::crash(0, SimTime::from_secs(1));
        assert_eq!(single.validate_coverage_strict(3, &replicas), Ok(()));
        // Full replication (or an empty placement) is never stranded.
        assert_eq!(plan.validate_coverage_strict(3, &[]), Ok(()));
    }
}
