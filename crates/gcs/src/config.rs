//! Configuration of the group-communication stack.

use crate::types::NodeId;
use std::time::Duration;

/// The four CSRT calibration parameters (§4.1): "fixed and variable CPU
/// overhead when a message is sent and received", determined in the paper by
/// a network flooding benchmark. Charged by the simulation bridge; unused by
/// the native bridge (real cycles are spent there).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadModel {
    /// Fixed CPU cost per send.
    pub send_fixed: Duration,
    /// CPU cost per sent byte, in nanoseconds.
    pub send_per_byte_ns: f64,
    /// Fixed CPU cost per receive.
    pub recv_fixed: Duration,
    /// CPU cost per received byte, in nanoseconds.
    pub recv_per_byte_ns: f64,
}

impl OverheadModel {
    /// Values calibrated against the paper's test system (1 GHz PIII): a
    /// single process saturates around 500–600 Mbit/s of 4 KB UDP writes
    /// (Fig. 3a), which decomposes to ≈18 µs fixed + ≈9 ns/byte on send and
    /// slightly more on receive.
    pub fn pentium3_1ghz() -> Self {
        OverheadModel {
            send_fixed: Duration::from_micros(18),
            send_per_byte_ns: 9.0,
            recv_fixed: Duration::from_micros(20),
            recv_per_byte_ns: 10.0,
        }
    }

    /// Cost of sending a packet of `bytes`.
    pub fn send_cost(&self, bytes: usize) -> Duration {
        self.send_fixed + Duration::from_nanos((self.send_per_byte_ns * bytes as f64) as u64)
    }

    /// Cost of receiving a packet of `bytes`.
    pub fn recv_cost(&self, bytes: usize) -> Duration {
        self.recv_fixed + Duration::from_nanos((self.recv_per_byte_ns * bytes as f64) as u64)
    }
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel::pentium3_1ghz()
    }
}

/// Sequencer announcement batching policy: how long the sequencer may hold
/// freshly made assignments before flushing them in one `SeqAnn` through the
/// reliable layer.
///
/// The flush window is consulted with the sequencer's current *backlog* —
/// assignments already waiting plus send-queue occupancy, i.e. the work
/// queued besides the assignment that triggered the consult. `Immediate` is
/// the paper-faithful prototype behaviour (one announcement per application
/// message); `Adaptive` flushes in one hop when idle and widens the window
/// toward `max` as backlog grows, so one announcement carries many
/// assignments exactly when announcement traffic would otherwise compete
/// with data for the sequencer's buffer share (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnnBatchPolicy {
    /// Announce every assignment as soon as it is made.
    Immediate,
    /// Hold assignments for a fixed window regardless of load.
    Fixed(Duration),
    /// Backlog-proportional window: `min` per unit of backlog, capped at
    /// `max`; zero backlog flushes immediately.
    Adaptive {
        /// Window granted per unit of backlog (also the smallest armed
        /// window).
        min: Duration,
        /// Hard ceiling on the flush window.
        max: Duration,
    },
}

impl AnnBatchPolicy {
    /// Adaptive defaults calibrated for the LAN configuration: 500 µs per
    /// backlog unit, capped at 2 ms (the fixed window the ablation bench
    /// established as helpful under load). At the paper's 2000-client
    /// operating point the sequencer's unstable buffer keeps a handful of
    /// fragments in flight, so the window sits at the cap under load and
    /// collapses to an immediate flush at idle.
    pub fn adaptive_lan() -> Self {
        AnnBatchPolicy::Adaptive { min: Duration::from_micros(500), max: Duration::from_millis(2) }
    }

    /// The flush window to wait given `backlog` units of pending sequencer
    /// work; `None` means flush immediately.
    pub fn window(self, backlog: usize) -> Option<Duration> {
        match self {
            AnnBatchPolicy::Immediate => None,
            AnnBatchPolicy::Fixed(d) => (!d.is_zero()).then_some(d),
            AnnBatchPolicy::Adaptive { min, max } => {
                let ns = min.as_nanos().saturating_mul(backlog as u128).min(max.as_nanos());
                (ns > 0).then(|| Duration::from_nanos(ns as u64))
            }
        }
    }
}

/// Tunables of the group-communication prototype (§3.4).
#[derive(Debug, Clone, PartialEq)]
pub struct GcsConfig {
    /// Number of nodes in the universe (initial view = all of them).
    pub n_nodes: usize,
    /// Maximum packet size on the wire, including protocol headers. The
    /// paper restricts packets to "a safe value" below the problematic
    /// 1000-byte boundary it found in SSFNet; we default to 1000 bytes.
    pub max_packet: usize,
    /// Stability gossip period.
    pub gossip_period: Duration,
    /// Heartbeat emission period.
    pub heartbeat_period: Duration,
    /// Failure-detector timeout: a silent member is suspected after this.
    pub failure_timeout: Duration,
    /// Gap age before the first NAK is sent.
    pub nak_delay: Duration,
    /// Spacing between repeated NAKs for the same gap.
    pub nak_retry: Duration,
    /// Total buffering available to the group, in fragments. Flow control
    /// grants each member an equal share ("the group protocol enforces
    /// fairness by ensuring that each process can only own a share of total
    /// available buffering", §5.3).
    pub total_buffer_frags: usize,
    /// Extra buffer share multiplier for the sequencer — the paper's
    /// "allocating a dedicated sequencer process" mitigation is modelled by
    /// granting the sequencer role a larger share. 1.0 = fair share.
    pub sequencer_share_boost: f64,
    /// Fixed sequencer override; `None` picks the view's lowest-id member.
    pub dedicated_sequencer: Option<NodeId>,
    /// Rate-based flow control during dissemination: bytes per second.
    pub send_rate_bytes_per_sec: f64,
    /// Token-bucket burst, in bytes.
    pub rate_burst_bytes: usize,
    /// Sequencer announcement batching policy.
    pub ann_policy: AnnBatchPolicy,
    /// Deliver only stable (received-by-all) messages — uniform total order.
    /// Costs latency; off by default, as in the prototype.
    pub uniform_delivery: bool,
    /// CPU cost charged per protocol event handled (synthetic profiling).
    pub proc_cost: Duration,
    /// CSRT send/receive overhead parameters (used by the simulation bridge).
    pub overhead: OverheadModel,
}

impl GcsConfig {
    /// Defaults for an `n`-member group on a LAN, calibrated to the paper's
    /// environment.
    pub fn lan(n_nodes: usize) -> Self {
        GcsConfig {
            n_nodes,
            max_packet: 1000,
            gossip_period: Duration::from_millis(25),
            heartbeat_period: Duration::from_millis(100),
            failure_timeout: Duration::from_millis(500),
            nak_delay: Duration::from_millis(5),
            nak_retry: Duration::from_millis(30),
            total_buffer_frags: 1536,
            sequencer_share_boost: 1.0,
            dedicated_sequencer: None,
            send_rate_bytes_per_sec: 8_000_000.0, // ~64 Mbit/s of goodput
            rate_burst_bytes: 64 * 1024,
            ann_policy: AnnBatchPolicy::Immediate,
            uniform_delivery: false,
            proc_cost: Duration::from_micros(2),
            overhead: OverheadModel::pentium3_1ghz(),
        }
    }

    /// Fair buffer share for one member, in fragments.
    pub fn buffer_share(&self, is_sequencer: bool) -> usize {
        let base = (self.total_buffer_frags / self.n_nodes.max(1)).max(4);
        if is_sequencer {
            ((base as f64) * self.sequencer_share_boost).round() as usize
        } else {
            base
        }
    }

    /// Maximum fragment payload bytes.
    pub fn frag_payload(&self) -> usize {
        use crate::wire::{DATA_OVERHEAD, ENVELOPE_OVERHEAD};
        self.max_packet
            .checked_sub(ENVELOPE_OVERHEAD + DATA_OVERHEAD)
            .expect("max_packet smaller than protocol headers")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_costs_compose() {
        let o = OverheadModel::pentium3_1ghz();
        assert_eq!(o.send_cost(0), Duration::from_micros(18));
        assert_eq!(o.send_cost(1000), Duration::from_micros(27));
        assert!(o.recv_cost(100) > o.send_cost(100));
    }

    #[test]
    fn buffer_share_splits_fairly() {
        let mut c = GcsConfig::lan(3);
        assert_eq!(c.buffer_share(false), 512);
        c.sequencer_share_boost = 2.0;
        assert_eq!(c.buffer_share(true), 1024);
        assert_eq!(c.buffer_share(false), 512);
    }

    #[test]
    fn frag_payload_subtracts_headers() {
        let c = GcsConfig::lan(3);
        assert_eq!(c.frag_payload(), 1000 - 12 - 18);
    }

    #[test]
    fn ann_policy_windows() {
        assert_eq!(AnnBatchPolicy::Immediate.window(0), None);
        assert_eq!(AnnBatchPolicy::Immediate.window(100), None);
        let d = Duration::from_millis(2);
        assert_eq!(AnnBatchPolicy::Fixed(d).window(0), Some(d));
        assert_eq!(AnnBatchPolicy::Fixed(Duration::ZERO).window(9), None);
        let a = AnnBatchPolicy::Adaptive { min: Duration::from_micros(100), max: d };
        // Idle: one-hop flush, exactly like Immediate.
        assert_eq!(a.window(0), None);
        // Window widens with backlog...
        assert_eq!(a.window(1), Some(Duration::from_micros(100)));
        assert_eq!(a.window(5), Some(Duration::from_micros(500)));
        // ...up to the hard ceiling.
        assert_eq!(a.window(1_000_000), Some(d));
    }

    #[test]
    #[should_panic(expected = "smaller than protocol headers")]
    fn tiny_max_packet_rejected() {
        let mut c = GcsConfig::lan(3);
        c.max_packet = 4;
        let _ = c.frag_payload();
    }
}
