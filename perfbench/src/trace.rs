//! The traced run's sampler: a probe scheduled on the cluster's simulation
//! every 100 ms of simulated time that reads the public counters of the
//! kernel, the network and every site's group-communication stack, plus the
//! wall clock. Counts are later cut at the end of the measured window
//! (`RunMetrics::elapsed`), which separates the window from the drain tail.

use dbsm_core::Cluster;
use dbsm_gcs::GcsMetrics;
use dbsm_sim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Simulated time between two samples.
pub const PERIOD: Duration = Duration::from_millis(100);

/// Counters read at one instant, summed over sites where per-site.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Simulated seconds.
    pub t: f64,
    /// Wall seconds since the run started.
    pub wall: f64,
    /// Events executed, the sampler's own excluded.
    pub events: f64,
    /// Bytes put on the wire.
    pub tx_bytes: f64,
    /// Packets dropped, any cause.
    pub drops: f64,
    /// GCS data fragments sent for the first time.
    pub frags: f64,
    /// GCS fragments retransmitted.
    pub retrans: f64,
    /// GCS NAKs sent.
    pub naks: f64,
    /// Nanoseconds senders spent blocked by flow control.
    pub blocked_ns: f64,
    /// Sequencer announcement messages.
    pub ann_sent: f64,
    /// Assignments those announcements carried.
    pub ann_assigns: f64,
    /// Certification votes sent.
    pub votes_sent: f64,
    /// Certification votes received.
    pub votes_received: f64,
    /// Votes piggybacked on data fragments.
    pub votes_piggybacked: f64,
    /// View changes installed.
    pub view_changes: f64,
    /// Messages delivered in total order.
    pub delivered: f64,
}

/// Sums per-site counters that a restarted site's fresh protocol
/// incarnation resets to zero: a drop below the last value read is taken
/// as a reset, and the value before it is kept as an offset.
#[derive(Debug, Default)]
struct Monotone {
    last: Vec<u64>,
    offset: Vec<u64>,
}

impl Monotone {
    fn total(&mut self, values: impl Iterator<Item = u64>) -> f64 {
        let mut sum = 0u64;
        for (i, v) in values.enumerate() {
            if i == self.last.len() {
                self.last.push(0);
                self.offset.push(0);
            }
            if v < self.last[i] {
                self.offset[i] += self.last[i];
            }
            self.last[i] = v;
            sum += self.offset[i] + v;
        }
        sum as f64
    }
}

/// The per-site GCS counters the sampler sums, in [`Sample`] order.
const GCS_COUNTERS: [fn(&GcsMetrics) -> u64; 11] = [
    |m| m.frags_sent,
    |m| m.retrans_sent,
    |m| m.naks_sent,
    |m| m.blocked_ns,
    |m| m.ann_sent,
    |m| m.ann_assigns,
    |m| m.votes_sent,
    |m| m.votes_received,
    |m| m.votes_piggybacked,
    |m| m.view_changes,
    |m| m.delivered,
];

struct Probe {
    cluster: Cluster,
    sites: usize,
    start: Instant,
    samples: Vec<Sample>,
    counters: Vec<Monotone>,
}

impl Probe {
    fn read(&mut self) {
        let sim = self.cluster.sim();
        let fired = self.samples.len() as u64 + 1;
        let net = self.cluster.network().stats();
        let per_site: Vec<GcsMetrics> =
            (0..self.sites).filter_map(|s| self.cluster.gcs_metrics(s)).collect();
        let g: Vec<f64> = GCS_COUNTERS
            .iter()
            .zip(self.counters.iter_mut())
            .map(|(read, acc)| acc.total(per_site.iter().map(read)))
            .collect();
        self.samples.push(Sample {
            t: sim.now().as_secs_f64(),
            wall: self.start.elapsed().as_secs_f64(),
            events: (sim.events_executed() - fired) as f64,
            tx_bytes: net.total_tx_bytes() as f64,
            drops: net.total_drops() as f64,
            frags: g[0],
            retrans: g[1],
            naks: g[2],
            blocked_ns: g[3],
            ann_sent: g[4],
            ann_assigns: g[5],
            votes_sent: g[6],
            votes_received: g[7],
            votes_piggybacked: g[8],
            view_changes: g[9],
            delivered: g[10],
        });
    }
}

/// Samples collected by [`attach`]; read them after the run.
pub struct Trace {
    probe: Rc<RefCell<Probe>>,
}

impl Trace {
    /// The samples, in time order.
    pub fn samples(&self) -> Vec<Sample> {
        self.probe.borrow().samples.clone()
    }

    /// Events the run executed in total, the sampler's own excluded.
    pub fn total_events(&self) -> f64 {
        let probe = self.probe.borrow();
        (probe.cluster.sim().events_executed() - probe.samples.len() as u64) as f64
    }
}

/// Schedules the sampler on `cluster`'s simulation from time zero up to
/// `until`. Call right before `Cluster::run`: the wall clock starts here.
pub fn attach(cluster: &Cluster, sites: usize, until: SimTime) -> Trace {
    let probe = Rc::new(RefCell::new(Probe {
        cluster: cluster.clone(),
        sites,
        start: Instant::now(),
        samples: Vec::new(),
        counters: GCS_COUNTERS.iter().map(|_| Monotone::default()).collect(),
    }));
    schedule(probe.clone(), SimTime::ZERO, until);
    Trace { probe }
}

fn schedule(probe: Rc<RefCell<Probe>>, at: SimTime, until: SimTime) {
    let sim = probe.borrow().cluster.sim().clone();
    sim.schedule_at(at, move || {
        probe.borrow_mut().read();
        let next = at + PERIOD;
        if next <= until {
            schedule(probe, next, until);
        }
    });
}

/// `(simulated time, counter)` pairs of one counter.
pub fn series(samples: &[Sample], counter: impl Fn(&Sample) -> f64) -> Vec<(f64, f64)> {
    samples.iter().map(|s| (s.t, counter(s))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restarted_site_counters_keep_counting() {
        let mut acc = Monotone::default();
        assert_eq!(acc.total([5, 7].into_iter()), 12.0);
        assert_eq!(acc.total([9, 8].into_iter()), 17.0);
        // Site 1 restarts: its fresh counter reads 2, its old 8 is kept.
        assert_eq!(acc.total([9, 2].into_iter()), 19.0);
        assert_eq!(acc.total([10, 3].into_iter()), 21.0);
    }
}
