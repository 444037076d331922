//! The group-communication stack (§3.4): view-synchronous reliable multicast
//! with window-based receiver-initiated recovery, scalable stability
//! detection, rate+window flow control, membership with flush/consensus view
//! changes under a primary-component rule, and fixed-sequencer total order.
//!
//! [`Gcs`] is a single-threaded state machine driven through
//! [`ProtocolRuntime`]; it is the *real code* the testbed exists to test.
//! Design choices called out by the paper are implemented faithfully, in
//! particular the ones behind its §5.3 findings:
//!
//! * each process owns only a *share* of the total buffer space;
//! * sequencer announcements travel through the same reliable layer and
//!   therefore consume the sequencer's share;
//! * stability (and hence garbage collection) advances only over the
//!   *contiguous* prefix received by *all* operational processes.
//!
//! Membership follows the **primary-component** rule: only a strict
//! majority of the current view may install the next one. A node that loses
//! contact with a majority (the small side of a partition, an isolated
//! sequencer) halts via [`Upcall::Excluded`] rather than forming a rump
//! view — the split-brain alternative would commit divergent histories. In
//! uniform-delivery mode the delivery gate covers the *order* too: a
//! message delivers only when both its content and the fragment that
//! carried its sequence assignment are stable, so no minority can act on an
//! ordering the primary component may re-make.
//!
//! Halting is no longer terminal: a crashed or excluded site may restart as
//! a fresh [`Gcs::rejoin`] instance, which announces itself with `JoinReq`
//! until the live primary component's lowest member grants admission at an
//! order-clean point ([`Upcall::ServeJoin`] at the granter primes the
//! application-level snapshot + delta-log state transfer) and a member-add
//! view install readmits it ([`Upcall::Rejoined`] at the joiner).

use crate::config::GcsConfig;
use crate::runtime::{ProtocolRuntime, TimerId, TimerKind};
use crate::stability::Stability;
use crate::types::{NodeId, NodeSet, View};
use crate::wire::{
    decode_seq_ann, encode_seq_ann, Envelope, Message, PayloadKind, SeqAssign, WireVote,
    ENVELOPE_OVERHEAD, SEQ_ASSIGN_WIRE, WIRE_VOTE_WIRE,
};
use bytes::{Bytes, BytesMut};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

/// Events the stack hands to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Upcall {
    /// A message delivered in total order.
    Deliver {
        /// Originating node.
        origin: NodeId,
        /// Global (total-order) sequence number. Consecutive at every node,
        /// except for deterministically skipped orphans after a crash.
        global_seq: u64,
        /// The application payload.
        payload: Bytes,
    },
    /// A new view was installed.
    ViewChange(View),
    /// This node was excluded from the view (e.g. falsely suspected under
    /// clock drift); it must halt. Survivors stay consistent.
    Excluded,
    /// This node (the lowest live member) admitted `joiner` and must serve
    /// its snapshot + delta-log state transfer. Emitted at the grant's
    /// order-clean point, *before* the member-add [`Upcall::ViewChange`]:
    /// the application's committed state at this instant is exactly what
    /// the joiner must receive — every global sequence number below the
    /// granted order base has been delivered here, and none above.
    ServeJoin {
        /// The rejoining node.
        joiner: NodeId,
    },
    /// Emitted at a rejoining node (built with [`Gcs::rejoin`]) once a
    /// grant was adopted: the stack is live in the new view, and the
    /// application must install the transferred state before acting on
    /// the deliveries that follow.
    Rejoined,
    /// A certification vote from `voter` (possibly this node, via loopback)
    /// surfaced by the reliable vote stream. Votes from one voter arrive in
    /// cast order; the application collects a covering quorum per
    /// transaction and decides by merging.
    Vote {
        /// The site that cast the vote.
        voter: NodeId,
        /// The verdict.
        vote: WireVote,
    },
}

/// Protocol counters (diagnostics for the fault-injection analysis, §5.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcsMetrics {
    /// Application messages submitted.
    pub app_sent: u64,
    /// Messages delivered in total order.
    pub delivered: u64,
    /// Data fragments transmitted (first time).
    pub frags_sent: u64,
    /// Data fragments received (non-duplicate).
    pub frags_received: u64,
    /// Duplicate fragments discarded.
    pub duplicates: u64,
    /// Retransmitted fragments sent.
    pub retrans_sent: u64,
    /// NAKs sent.
    pub naks_sent: u64,
    /// NAKs received.
    pub naks_received: u64,
    /// Gossip messages sent.
    pub gossip_sent: u64,
    /// Completed view changes.
    pub view_changes: u64,
    /// Cumulative nanoseconds the sender spent blocked by flow control with
    /// traffic pending — the paper's "whole system blocked temporarily
    /// waiting for garbage collection".
    pub blocked_ns: u64,
    /// Peak pending (flow-control-blocked) queue length.
    pub pending_peak: usize,
    /// `SeqAnn` announcement messages submitted to the reliable layer
    /// (sequencer only).
    pub ann_sent: u64,
    /// Assignments carried by those announcement messages.
    pub ann_assigns: u64,
    /// Assignments piggybacked on outgoing application fragments instead of
    /// costing a `SeqAnn` message of their own (sequencer only).
    pub ann_piggybacked: u64,
    /// Certification votes transmitted (first time, standalone or
    /// piggybacked).
    pub votes_sent: u64,
    /// Certification votes received from peers (non-duplicate, surfaced in
    /// stream order).
    pub votes_received: u64,
    /// Votes carried in the MTU slack of outgoing data fragments instead of
    /// costing a standalone `Vote` message.
    pub votes_piggybacked: u64,
    /// Votes retransmitted by the heartbeat-driven reliability arm.
    pub vote_resends: u64,
}

#[derive(Debug, Clone)]
struct FragRecord {
    total: u16,
    idx: u16,
    kind: PayloadKind,
    /// Piggybacked sequencer assignments; part of the fragment's identity so
    /// retransmissions (own buffer and peers' retained caches) carry them.
    ann: Vec<SeqAssign>,
    /// Piggybacked certification votes; like `ann`, fragment identity.
    votes: Vec<WireVote>,
    payload: Bytes,
}

#[derive(Debug, Default)]
struct Assembler {
    first_seq: u64,
    total: u16,
    kind: PayloadKind,
    frags: Vec<Bytes>,
}

impl Assembler {
    /// Feeds the next in-order fragment; returns a complete message as
    /// `(first_seq, kind, payload)` when assembly finishes.
    fn feed(&mut self, seq: u64, rec: &FragRecord) -> Option<(u64, PayloadKind, Bytes)> {
        if rec.idx == 0 {
            self.first_seq = seq;
            self.total = rec.total;
            self.kind = rec.kind;
            self.frags.clear();
        } else if self.frags.len() != rec.idx as usize || self.total != rec.total {
            // Stream corruption would indicate a protocol bug: fragments
            // arrive in contiguous order by construction.
            debug_assert!(false, "fragment sequence corrupted");
            self.frags.clear();
            return None;
        }
        self.frags.push(rec.payload.clone());
        if self.frags.len() == self.total as usize {
            let payload = if self.frags.len() == 1 {
                self.frags.pop().expect("one fragment")
            } else {
                let mut b = BytesMut::with_capacity(self.frags.iter().map(Bytes::len).sum());
                for f in self.frags.drain(..) {
                    b.extend_from_slice(&f);
                }
                b.freeze()
            };
            Some((self.first_seq, self.kind, payload))
        } else {
            None
        }
    }
}

#[derive(Debug)]
struct RecvStream {
    /// All fragments `1..=contiguous` received and processed.
    contiguous: u64,
    /// Out-of-order fragments beyond the contiguous prefix.
    ooo: BTreeMap<u64, FragRecord>,
    /// Contiguously received but not-yet-stable fragments, kept so peers can
    /// be served retransmissions when the original sender is gone.
    retained: BTreeMap<u64, FragRecord>,
    /// Highest fragment known to exist in this stream (from data/heartbeats).
    highest_known: u64,
    /// When the current head gap was first noticed (ns); None = no gap.
    gap_since: Option<u64>,
    /// Last NAK emission for this stream (ns).
    last_nak: u64,
    /// Hard upper bound on delivery: set while flushing for streams of
    /// excluded members (ack snapshot, then the agreed cut).
    freeze_at: Option<u64>,
    asm: Assembler,
}

impl RecvStream {
    fn new() -> Self {
        RecvStream {
            contiguous: 0,
            ooo: BTreeMap::new(),
            retained: BTreeMap::new(),
            highest_known: 0,
            gap_since: None,
            last_nak: 0,
            freeze_at: None,
            asm: Assembler::default(),
        }
    }

    fn delivery_limit(&self) -> u64 {
        self.freeze_at.unwrap_or(u64::MAX)
    }
}

#[derive(Debug)]
struct SendState {
    /// Next fragment sequence number to assign (1-based).
    next_frag: u64,
    /// Own unstable fragments (for retransmission).
    buffer: BTreeMap<u64, FragRecord>,
    /// Messages admitted by the application but not yet transmitted
    /// (window/rate/flush blocked).
    pending: VecDeque<(PayloadKind, Bytes)>,
    /// Token bucket for rate-based flow control.
    tokens: f64,
    last_refill: u64,
    rate_timer: Option<TimerId>,
    /// Start of the current blocked period, if any.
    blocked_since: Option<u64>,
}

impl SendState {
    fn sent(&self) -> u64 {
        self.next_frag - 1
    }
}

/// An applied sequencer assignment awaiting delivery, remembering which
/// fragment carried it: uniform delivery must wait until the *order* is
/// stable too — an assignment known only to a minority (e.g. the sequencer
/// alone across a partition) may be re-made differently by the primary
/// component's next sequencer.
#[derive(Debug, Clone, Copy)]
struct AppliedAssign {
    origin: NodeId,
    msg_seq: u64,
    /// Stream that carried the assignment (the sequencer's `SeqAnn`
    /// fragment or the application fragment it piggybacked on).
    carrier: NodeId,
    /// The carrier's fragment sequence number within that stream.
    carrier_seq: u64,
}

#[derive(Debug)]
struct TotalOrder {
    /// Applied assignments for not-yet-delivered messages.
    by_gseq: BTreeMap<u64, AppliedAssign>,
    /// Reverse index of `by_gseq`.
    assigned: HashSet<(u16, u64)>,
    /// Reliably delivered application messages awaiting total-order delivery.
    store: HashMap<(u16, u64), StoredMsg>,
    /// Next global sequence number to deliver.
    next_deliver: u64,
    /// Highest global sequence number applied anywhere (from SeqAnn).
    max_applied: u64,
    /// Sequencer-local assignment counter.
    assign_counter: u64,
    /// Assignments made but not yet announced (batching mode).
    pending_ann: Vec<SeqAssign>,
    /// `(sender, msg_seq)` keys of `pending_ann`, for O(1) dedup on push.
    pending_keys: HashSet<(u16, u64)>,
    ann_timer: Option<TimerId>,
    /// Global sequence numbers that can never be delivered (their message
    /// died with its sender) — skipped deterministically by every survivor.
    skipped: HashSet<u64>,
}

#[derive(Debug)]
struct StoredMsg {
    payload: Bytes,
    /// Sequence number of the message's last fragment (for uniform mode).
    last_frag: u64,
}

/// Certification-vote exchange state: a lightweight reliable stream per
/// voter, independent of the data windows so verdicts never compete with
/// application traffic for the buffer share.
///
/// Sender side: votes get a monotone per-voter sequence number, sit in
/// `pending` until they either ride the MTU slack of an outgoing data
/// fragment or flush as a standalone [`Message::Vote`], and stay in
/// `outbox` until every current view member has cumulatively acked them
/// ([`Message::VoteAck`]); the heartbeat timer retransmits the unacked
/// suffix. Receiver side: per-voter contiguity tracking surfaces votes in
/// cast order exactly once.
#[derive(Debug)]
struct VoteState {
    /// Next vote sequence number to assign (1-based).
    next_seq: u64,
    /// Cast but not yet transmitted votes.
    pending: Vec<WireVote>,
    /// Transmitted votes not yet acked by every view member, keyed by seq.
    outbox: BTreeMap<u64, WireVote>,
    /// Per-peer cumulative ack of *our* vote stream.
    acked: Vec<u64>,
    /// Per-voter highest contiguously received vote sequence number.
    in_up_to: Vec<u64>,
    /// Per-voter out-of-order votes beyond the contiguous prefix.
    in_ooo: Vec<BTreeMap<u64, WireVote>>,
}

impl VoteState {
    fn new(n: usize) -> Self {
        VoteState {
            next_seq: 1,
            pending: Vec::new(),
            outbox: BTreeMap::new(),
            acked: vec![0; n],
            in_up_to: vec![0; n],
            in_ooo: (0..n).map(|_| BTreeMap::new()).collect(),
        }
    }
}

/// A grant issued to a rejoiner, retained so lost `JoinGrant`/`ViewInstall`
/// packets can be healed by resends (driven by `JoinReq` retries and a short
/// resend timer).
#[derive(Debug, Clone)]
struct GrantRecord {
    joiner: NodeId,
    new_view: u64,
    members: NodeSet,
    cut: Vec<u64>,
    order_base: u64,
    skipped: Vec<u64>,
    sequencer: NodeId,
}

#[derive(Debug)]
enum Phase {
    Stable,
    Flushing {
        new_view: u64,
        proposed: NodeSet,
        /// Coordinator only: received vectors collected so far.
        acks: HashMap<u16, Vec<u64>>,
        /// An install we received but whose cut we have not reached.
        pending_install: Option<(u64, NodeSet, Vec<u64>)>,
        /// Cut already sent (coordinator resends it instead of FlushReq).
        sent_install: Option<(NodeSet, Vec<u64>)>,
    },
}

/// The group-communication protocol instance of one node.
///
/// Drive it with [`Gcs::on_start`], [`Gcs::on_packet`], [`Gcs::on_timer`]
/// and [`Gcs::broadcast`]; collect [`Upcall`]s with [`Gcs::drain_upcalls`]
/// after every call. See the crate docs for a complete example.
#[derive(Debug)]
pub struct Gcs {
    me: NodeId,
    cfg: GcsConfig,
    view: View,
    phase: Phase,
    send: SendState,
    recv: Vec<RecvStream>,
    stab: Stability,
    to: TotalOrder,
    last_heard: Vec<u64>,
    suspected: NodeSet,
    upcalls: VecDeque<Upcall>,
    metrics: GcsMetrics,
    halted: bool,
    /// True while this instance is a rejoiner waiting for a `JoinGrant`.
    joining: bool,
    /// A joiner latched for admission at the next order-clean point (only
    /// ever set at the lowest live member).
    pending_join: Option<NodeId>,
    /// The last grant issued, kept for loss-healing resends.
    last_grant: Option<GrantRecord>,
    /// Remaining scheduled re-multicasts of the last grant's install.
    grant_resends: u8,
    /// Sticky sequencer: the role moves only when its holder leaves the
    /// membership, so a rejoiner (possibly the lowest-numbered node) never
    /// races a live sequencer.
    seq_node: NodeId,
    /// Certification-vote exchange state.
    votes: VoteState,
}

impl Gcs {
    /// Creates a node `me` of an `cfg.n_nodes`-member group. All nodes start
    /// in view 0 containing everyone.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the universe or the universe exceeds 64.
    pub fn new(me: NodeId, cfg: GcsConfig) -> Self {
        assert!((me.0 as usize) < cfg.n_nodes, "node id outside universe");
        let view = View::initial(cfg.n_nodes);
        let n = cfg.n_nodes;
        let seq_node = match cfg.dedicated_sequencer {
            Some(s) if view.members.contains(s) => s,
            _ => view.members.min().expect("nonempty universe"),
        };
        Gcs {
            me,
            view,
            phase: Phase::Stable,
            send: SendState {
                next_frag: 1,
                buffer: BTreeMap::new(),
                pending: VecDeque::new(),
                tokens: cfg.rate_burst_bytes as f64,
                last_refill: 0,
                rate_timer: None,
                blocked_since: None,
            },
            recv: (0..n).map(|_| RecvStream::new()).collect(),
            stab: Stability::new(me, n, view.members),
            to: TotalOrder {
                by_gseq: BTreeMap::new(),
                assigned: HashSet::new(),
                store: HashMap::new(),
                next_deliver: 1,
                max_applied: 0,
                assign_counter: 1,
                pending_ann: Vec::new(),
                pending_keys: HashSet::new(),
                ann_timer: None,
                skipped: HashSet::new(),
            },
            last_heard: vec![0; n],
            suspected: NodeSet::EMPTY,
            upcalls: VecDeque::new(),
            metrics: GcsMetrics::default(),
            cfg,
            halted: false,
            joining: false,
            pending_join: None,
            last_grant: None,
            grant_resends: 0,
            seq_node,
            votes: VoteState::new(n),
        }
    }

    /// Creates a *rejoining* instance for a node restarting after a crash
    /// or exclusion. It starts outside any view: [`Gcs::on_start`]
    /// multicasts a `JoinReq` (retried on a timer) until the live primary
    /// component's lowest member grants admission at an order-clean point,
    /// at which point the instance adopts the granted view and baselines,
    /// emits [`Upcall::ViewChange`] + [`Upcall::Rejoined`], and resumes
    /// normal operation. Its pre-crash tentative suffix is implicitly
    /// discarded (fresh state) — safe because halted commits are always a
    /// prefix of the primary component's.
    ///
    /// # Panics
    ///
    /// Panics if `me` is outside the universe or the universe exceeds 64.
    pub fn rejoin(me: NodeId, cfg: GcsConfig) -> Self {
        let mut g = Gcs::new(me, cfg);
        g.joining = true;
        g
    }

    /// The node this instance runs on.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Protocol counters.
    pub fn metrics(&self) -> GcsMetrics {
        let mut m = self.metrics;
        m.pending_peak = m.pending_peak.max(self.send.pending.len());
        m
    }

    /// Number of fragments held in the send buffer (unstable).
    pub fn unstable_frags(&self) -> usize {
        self.send.buffer.len()
    }

    /// True once this node has been excluded from the group.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// True while this instance is a rejoiner awaiting its grant.
    pub fn is_joining(&self) -> bool {
        self.joining
    }

    /// The node currently acting as sequencer. Sticky: the role moves only
    /// when its holder leaves the membership (a rejoined node never
    /// reclaims it mid-view, even a rejoined dedicated sequencer — two
    /// concurrently live sequencers would order divergently).
    pub fn sequencer(&self) -> Option<NodeId> {
        Some(self.seq_node)
    }

    fn i_am_sequencer(&self) -> bool {
        self.sequencer() == Some(self.me)
    }

    /// Removes and returns all queued upcalls. Call after every entry point.
    pub fn drain_upcalls(&mut self) -> Vec<Upcall> {
        self.upcalls.drain(..).collect()
    }

    /// Starts the protocol: arms the periodic timers and reports the
    /// initial view. A rejoining instance instead announces itself with a
    /// `JoinReq` and retries until granted.
    pub fn on_start(&mut self, rt: &mut dyn ProtocolRuntime) {
        let now = rt.now_nanos();
        self.last_heard = vec![now; self.cfg.n_nodes];
        self.send.last_refill = now;
        if self.joining {
            self.send_join_req(rt);
            rt.set_timer(self.cfg.heartbeat_period, TimerKind::JoinRetry);
            return;
        }
        rt.set_timer(self.cfg.gossip_period, TimerKind::Gossip);
        rt.set_timer(self.cfg.heartbeat_period, TimerKind::Heartbeat);
        rt.set_timer(self.cfg.failure_timeout, TimerKind::FailureCheck);
        rt.set_timer(self.cfg.nak_delay, TimerKind::NakCheck);
        self.upcalls.push_back(Upcall::ViewChange(self.view));
    }

    /// Atomically multicasts `payload` to the group. Delivery (including
    /// back to the caller) happens through [`Upcall::Deliver`] in total
    /// order. Never blocks: under flow-control pressure the message queues
    /// and [`GcsMetrics::blocked_ns`] accumulates. Dropped while halted or
    /// still joining (the application gates traffic on the rejoin anyway).
    pub fn broadcast(&mut self, rt: &mut dyn ProtocolRuntime, payload: Bytes) {
        if self.halted || self.joining {
            return;
        }
        self.metrics.app_sent += 1;
        self.enqueue_send(PayloadKind::App, payload);
        self.drain_sends(rt);
    }

    fn enqueue_send(&mut self, kind: PayloadKind, payload: Bytes) {
        self.send.pending.push_back((kind, payload));
        self.metrics.pending_peak = self.metrics.pending_peak.max(self.send.pending.len());
    }

    // ----- sending & flow control -------------------------------------

    fn frags_needed(&self, len: usize) -> u64 {
        let fp = self.cfg.frag_payload();
        (len.div_ceil(fp).max(1)) as u64
    }

    fn drain_sends(&mut self, rt: &mut dyn ProtocolRuntime) {
        if self.halted {
            return;
        }
        let now = rt.now_nanos();
        // Refill the rate bucket.
        let elapsed = now.saturating_sub(self.send.last_refill);
        self.send.last_refill = now;
        self.send.tokens = (self.send.tokens
            + self.cfg.send_rate_bytes_per_sec * elapsed as f64 / 1e9)
            .min(self.cfg.rate_burst_bytes as f64);

        while let Some((_kind, payload)) = self.send.pending.front() {
            if !matches!(self.phase, Phase::Stable) {
                self.note_blocked(now);
                return;
            }
            let k = self.frags_needed(payload.len());
            let share = self.cfg.buffer_share(self.i_am_sequencer()) as u64;
            let stable_self = self.stab.stable()[self.me.0 as usize];
            let in_flight = self.send.sent().saturating_sub(stable_self);
            if in_flight + k > share {
                // Window full: wait for stability to advance (§5.3 blocking).
                self.note_blocked(now);
                return;
            }
            if self.send.tokens < payload.len() as f64 {
                // Rate limited: wake up when enough tokens have accrued.
                let deficit = payload.len() as f64 - self.send.tokens;
                let wait = (deficit / self.cfg.send_rate_bytes_per_sec * 1e9).ceil() as u64;
                if self.send.rate_timer.is_none() {
                    let id = rt.set_timer(
                        std::time::Duration::from_nanos(wait.max(1)),
                        TimerKind::RateRefill,
                    );
                    self.send.rate_timer = Some(id);
                }
                self.note_blocked(now);
                return;
            }
            self.send.tokens -= payload.len() as f64;
            let (kind, payload) = self.send.pending.pop_front().expect("checked front");
            self.note_unblocked(now);
            self.transmit_message(rt, kind, payload);
        }
        self.note_unblocked(now);
    }

    fn note_blocked(&mut self, now: u64) {
        if self.send.pending.is_empty() {
            return;
        }
        // Accumulate incrementally so a long-lived block (the §5.3
        // pathology) is visible while it is still ongoing.
        if let Some(since) = self.send.blocked_since {
            self.metrics.blocked_ns += now.saturating_sub(since);
        }
        self.send.blocked_since = Some(now);
    }

    fn note_unblocked(&mut self, now: u64) {
        if let Some(since) = self.send.blocked_since.take() {
            self.metrics.blocked_ns += now.saturating_sub(since);
        }
    }

    fn transmit_message(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        kind: PayloadKind,
        payload: Bytes,
    ) {
        let fp = self.cfg.frag_payload();
        let total = self.frags_needed(payload.len()) as u16;
        for idx in 0..total {
            let lo = idx as usize * fp;
            let hi = (lo + fp).min(payload.len());
            let chunk = payload.slice(lo..hi);
            // The last fragment of an application message usually leaves MTU
            // slack: fill it with pending announcements (send-path drain
            // consult of the batching policy).
            let ann = if idx + 1 == total {
                self.take_piggyback(rt, kind, chunk.len())
            } else {
                Vec::new()
            };
            // Votes fill whatever slack the announcements left.
            let votes = if idx + 1 == total && kind == PayloadKind::App {
                let room = self
                    .cfg
                    .frag_payload()
                    .saturating_sub(chunk.len() + ann.len() * SEQ_ASSIGN_WIRE);
                self.take_vote_piggyback(room)
            } else {
                Vec::new()
            };
            let seq = self.send.next_frag;
            self.send.next_frag += 1;
            let rec = FragRecord { total, idx, kind, ann, votes, payload: chunk };
            self.send.buffer.insert(seq, rec.clone());
            let env = Envelope {
                sender: self.me,
                view: self.view.id,
                msg: Message::Data {
                    seq,
                    total_frags: total,
                    frag_idx: idx,
                    kind,
                    ann: rec.ann.clone(),
                    votes: rec.votes.clone(),
                    payload: rec.payload.clone(),
                    retrans: false,
                },
            };
            rt.multicast(env.encode());
            self.metrics.frags_sent += 1;
            // Loopback: count own fragment as received by self.
            self.on_fragment(rt, self.me, seq, rec);
        }
    }

    /// Drains as many pending announcements as fit in the MTU slack of an
    /// outgoing application fragment with `chunk_len` payload bytes. The
    /// carried assignments then cost zero extra messages; if the batch
    /// empties, the pending flush timer is disarmed.
    fn take_piggyback(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        kind: PayloadKind,
        chunk_len: usize,
    ) -> Vec<SeqAssign> {
        if kind != PayloadKind::App
            || self.to.pending_ann.is_empty()
            || !matches!(self.phase, Phase::Stable)
            || !self.i_am_sequencer()
        {
            return Vec::new();
        }
        let room = self.cfg.frag_payload().saturating_sub(chunk_len) / SEQ_ASSIGN_WIRE;
        let k = room.min(self.to.pending_ann.len());
        if k == 0 {
            return Vec::new();
        }
        let ann: Vec<SeqAssign> = self.to.pending_ann.drain(..k).collect();
        for a in &ann {
            self.to.pending_keys.remove(&(a.sender.0, a.msg_seq));
        }
        self.metrics.ann_piggybacked += ann.len() as u64;
        if self.to.pending_ann.is_empty() {
            if let Some(id) = self.to.ann_timer.take() {
                rt.cancel_timer(id);
            }
        }
        ann
    }

    // ----- certification votes ------------------------------------------

    /// Casts a certification verdict for transaction `(origin, txn)` into
    /// the group. The vote loops back to this node immediately (as
    /// [`Upcall::Vote`]) and reaches every peer reliably: it rides the MTU
    /// slack of outgoing data fragments when application traffic is queued,
    /// flushes as a standalone [`Message::Vote`] otherwise, and is
    /// retransmitted by the heartbeat until every view member acked it.
    /// Dropped while halted or still joining — a crashed voter simply goes
    /// silent and the survivors' votes cover its spans.
    pub fn cast_vote(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        origin: u16,
        txn: u64,
        conflict: Option<u64>,
    ) {
        if self.halted || self.joining {
            return;
        }
        let seq = self.votes.next_seq;
        self.votes.next_seq += 1;
        let vote = WireVote { seq, origin, txn, conflict };
        // Loopback: the local application always sees its own verdict.
        self.upcalls.push_back(Upcall::Vote { voter: self.me, vote });
        if self.view.members.len() <= 1 {
            return; // no peers to inform, and none will ever ack
        }
        self.votes.outbox.insert(seq, vote);
        self.votes.pending.push(vote);
        if self.send.pending.is_empty() {
            // No outgoing fragment to ride: flush standalone now. With
            // traffic queued the vote waits for the next fragment's slack
            // (the heartbeat arm is the straggler backstop).
            self.flush_votes(rt);
        }
    }

    /// The next sequence number this node's vote stream will assign. Every
    /// vote already cast carries a strictly smaller `seq`, so callers can
    /// use this value as a staleness threshold: votes below it predate the
    /// moment the snapshot was taken.
    pub fn vote_seq(&self) -> u64 {
        self.votes.next_seq
    }

    /// Most votes that fit one standalone `Vote` frame: envelope plus the
    /// base/count header, then [`WIRE_VOTE_WIRE`] per vote, all within
    /// `max_packet`. The network drops datagrams over the MTU, so a frame
    /// that overflows it is lost on every transmission — including the
    /// heartbeat retransmissions that are supposed to repair the loss.
    fn max_votes_per_frame(&self) -> usize {
        const VOTE_HEADER: usize = ENVELOPE_OVERHEAD + 8 + 2;
        (self.cfg.max_packet.saturating_sub(VOTE_HEADER) / WIRE_VOTE_WIRE)
            .clamp(1, u16::MAX as usize)
    }

    /// Transmits all pending votes as standalone `Vote` frames.
    fn flush_votes(&mut self, rt: &mut dyn ProtocolRuntime) {
        if self.votes.pending.is_empty() || self.halted || self.joining {
            return;
        }
        let max_chunk = self.max_votes_per_frame();
        let base = self.vote_base();
        while !self.votes.pending.is_empty() {
            let take = self.votes.pending.len().min(max_chunk);
            let chunk: Vec<WireVote> = self.votes.pending.drain(..take).collect();
            self.metrics.votes_sent += chunk.len() as u64;
            let env = Envelope {
                sender: self.me,
                view: self.view.id,
                msg: Message::Vote { base, votes: chunk },
            };
            rt.multicast(env.encode());
        }
    }

    /// The first un-garbage-collected sequence number of our vote stream.
    /// GC only advances past votes acked by *every* view member, so for an
    /// operational receiver a jump to this base is a no-op; a fresh
    /// rejoiner legitimately skips to it (pre-rejoin outcomes arrive with
    /// the state transfer).
    fn vote_base(&self) -> u64 {
        self.votes.outbox.keys().next().copied().unwrap_or(self.votes.next_seq)
    }

    /// Drains as many pending votes as fit in `room` payload bytes of an
    /// outgoing application fragment (the slack left after announcements).
    fn take_vote_piggyback(&mut self, room: usize) -> Vec<WireVote> {
        if self.votes.pending.is_empty() {
            return Vec::new();
        }
        let k = (room / WIRE_VOTE_WIRE).min(self.votes.pending.len());
        if k == 0 {
            return Vec::new();
        }
        let votes: Vec<WireVote> = self.votes.pending.drain(..k).collect();
        self.metrics.votes_sent += votes.len() as u64;
        self.metrics.votes_piggybacked += votes.len() as u64;
        votes
    }

    /// Feeds received votes from `from`'s stream: jump to `base` (0 = no
    /// jump), buffer out-of-order, surface the contiguous prefix exactly
    /// once, and cumulatively ack so the voter can garbage-collect.
    fn on_vote_frame(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        from: NodeId,
        base: u64,
        votes: Vec<WireVote>,
    ) {
        let j = from.0 as usize;
        let jump = base.saturating_sub(1);
        if jump > self.votes.in_up_to[j] {
            self.votes.in_up_to[j] = jump;
            self.votes.in_ooo[j] = self.votes.in_ooo[j].split_off(&(jump + 1));
        }
        for v in votes {
            if v.seq <= self.votes.in_up_to[j] || self.votes.in_ooo[j].contains_key(&v.seq) {
                continue; // duplicate
            }
            self.votes.in_ooo[j].insert(v.seq, v);
        }
        loop {
            let next = self.votes.in_up_to[j] + 1;
            let Some(v) = self.votes.in_ooo[j].remove(&next) else { break };
            self.votes.in_up_to[j] = next;
            self.metrics.votes_received += 1;
            self.upcalls.push_back(Upcall::Vote { voter: from, vote: v });
        }
        let env = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::VoteAck { up_to: self.votes.in_up_to[j] },
        };
        rt.unicast(from, env.encode());
    }

    fn on_vote_ack(&mut self, from: NodeId, up_to: u64) {
        let j = from.0 as usize;
        self.votes.acked[j] = self.votes.acked[j].max(up_to);
        self.gc_votes();
    }

    /// Garbage-collects the vote outbox up to the minimum cumulative ack
    /// over the *current* view's peers (re-evaluated after every install:
    /// a crashed receiver stops gating GC the moment it is excluded).
    fn gc_votes(&mut self) {
        let min = self
            .view
            .members
            .iter()
            .filter(|&m| m != self.me)
            .map(|m| self.votes.acked[m.0 as usize])
            .min();
        match min {
            None => self.votes.outbox.clear(),
            Some(min) => {
                // Pending (never-transmitted) votes always have sequence
                // numbers above any ack, so splitting cannot lose them.
                self.votes.outbox = self.votes.outbox.split_off(&(min + 1));
            }
        }
    }

    /// Heartbeat-driven reliability arm: retransmits the unacked suffix of
    /// the vote stream. Empty in the steady state — acks arrive within a
    /// round-trip — so this only fires on real loss or a stalled receiver.
    fn resend_votes(&mut self, rt: &mut dyn ProtocolRuntime) {
        // The pending suffix of the outbox has never been transmitted —
        // that is `flush_votes`' job, not a retransmission.
        let limit = self.votes.pending.first().map_or(u64::MAX, |v| v.seq);
        if self.votes.outbox.keys().next().is_none_or(|&first| first >= limit) {
            return;
        }
        const MAX_RESEND: usize = 256;
        let base = self.vote_base();
        let suffix: Vec<WireVote> =
            self.votes.outbox.range(..limit).map(|(_, v)| *v).take(MAX_RESEND).collect();
        self.metrics.vote_resends += suffix.len() as u64;
        // MTU-sized frames: an oversized retransmission would itself be
        // dropped, pinning the receivers' gap open forever. `base` is the
        // same for every frame — a receiver only jumps forward to it, and
        // the chunks are contiguous from there.
        for chunk in suffix.chunks(self.max_votes_per_frame()) {
            let env = Envelope {
                sender: self.me,
                view: self.view.id,
                msg: Message::Vote { base, votes: chunk.to_vec() },
            };
            rt.multicast(env.encode());
        }
    }

    // ----- receive path ------------------------------------------------

    /// Entry point for a raw packet from the network.
    pub fn on_packet(&mut self, rt: &mut dyn ProtocolRuntime, raw: Bytes) {
        if self.halted {
            return;
        }
        rt.charge(self.cfg.proc_cost);
        let env = match Envelope::decode(raw) {
            Ok(e) => e,
            Err(_) => return, // stray or corrupt packet: drop silently
        };
        if env.sender == self.me {
            return; // our own multicast looped back
        }
        let now = rt.now_nanos();
        if (env.sender.0 as usize) < self.last_heard.len() {
            self.last_heard[env.sender.0 as usize] = now;
        } else {
            return; // outside the universe
        }
        if self.joining {
            // A rejoiner is deaf to everything but its grant: it has no
            // view to interpret the traffic against yet.
            if let Message::JoinGrant { new_view, members, cut, order_base, skipped, sequencer } =
                env.msg
            {
                self.on_join_grant(rt, new_view, members, cut, order_base, skipped, sequencer);
            }
            return;
        }
        match env.msg {
            Message::Data { seq, total_frags, frag_idx, kind, ann, votes, payload, retrans } => {
                if retrans {
                    self.metrics.duplicates += 0; // counted below if truly dup
                }
                let rec =
                    FragRecord { total: total_frags, idx: frag_idx, kind, ann, votes, payload };
                self.on_fragment(rt, env.sender, seq, rec);
                self.try_complete_install(rt);
            }
            Message::Nak { target, ranges } => {
                self.metrics.naks_received += 1;
                self.answer_nak(rt, env.sender, target, &ranges);
            }
            Message::Gossip(g) => {
                let received = self.received_vec();
                if self.stab.on_gossip(&g, &received) {
                    self.on_stability_advance(rt);
                }
            }
            Message::Heartbeat { sent } => {
                let s = &mut self.recv[env.sender.0 as usize];
                s.highest_known = s.highest_known.max(sent);
            }
            Message::FlushReq { new_view, members } => {
                self.on_flush_req(rt, env.sender, new_view, members);
            }
            Message::FlushAck { new_view, received } => {
                self.on_flush_ack(rt, env.sender, new_view, received);
            }
            Message::ViewInstall { new_view, members, cut } => {
                self.on_view_install(rt, new_view, members, cut);
            }
            Message::JoinReq => {
                self.on_join_req(rt, env.sender);
            }
            Message::Vote { base, votes } => {
                self.on_vote_frame(rt, env.sender, base, votes);
            }
            Message::VoteAck { up_to } => {
                self.on_vote_ack(env.sender, up_to);
            }
            Message::JoinGrant { .. } => {
                // Duplicate grant after adoption (or a stray): ignore.
            }
        }
    }

    fn received_vec(&self) -> Vec<u64> {
        (0..self.cfg.n_nodes)
            .map(
                |j| {
                    if j == self.me.0 as usize {
                        self.send.sent()
                    } else {
                        self.recv[j].contiguous
                    }
                },
            )
            .collect()
    }

    fn on_fragment(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        from: NodeId,
        seq: u64,
        rec: FragRecord,
    ) {
        let j = from.0 as usize;
        let is_self = from == self.me;
        let stream = &mut self.recv[j];
        stream.highest_known = stream.highest_known.max(seq);
        if seq <= stream.contiguous || stream.ooo.contains_key(&seq) {
            self.metrics.duplicates += 1;
            return;
        }
        if !is_self {
            self.metrics.frags_received += 1;
        }
        stream.ooo.insert(seq, rec);
        self.advance_stream(rt, from);
    }

    /// Advances the contiguous prefix of `from`'s stream as far as buffered
    /// fragments and the flush freeze limit allow, delivering completed
    /// messages upward and maintaining gap bookkeeping.
    fn advance_stream(&mut self, rt: &mut dyn ProtocolRuntime, from: NodeId) {
        let j = from.0 as usize;
        let is_self = from == self.me;
        let mut completed: Vec<(u64, PayloadKind, Bytes)> = Vec::new();
        let mut anns: Vec<(SeqAssign, u64)> = Vec::new();
        let mut piggy_votes: Vec<WireVote> = Vec::new();
        {
            let stream = &mut self.recv[j];
            loop {
                let limit = stream.delivery_limit();
                if stream.contiguous >= limit {
                    break;
                }
                let next = stream.contiguous + 1;
                let Some(rec) = stream.ooo.remove(&next) else { break };
                stream.contiguous = next;
                if !is_self {
                    stream.retained.insert(next, rec.clone());
                }
                // Piggybacked assignments apply only once their carrier
                // fragment is consumed into the contiguous prefix: that is
                // the same flush/cut discipline `SeqAnn` messages obey, so a
                // beyond-cut straggler can never apply assignments at some
                // survivors and not others across a view change.
                anns.extend(rec.ann.iter().map(|a| (*a, next)));
                // Piggybacked votes feed the per-voter vote stream (own
                // votes already looped back at cast time).
                if !is_self {
                    piggy_votes.extend(rec.votes.iter().copied());
                }
                if let Some(msg) = stream.asm.feed(next, &rec) {
                    completed.push(msg);
                }
            }
            // Gap bookkeeping for the NAK machinery.
            let target = stream.highest_known.min(stream.delivery_limit());
            if stream.contiguous < target {
                if stream.gap_since.is_none() {
                    stream.gap_since = Some(rt.now_nanos());
                }
            } else {
                stream.gap_since = None;
            }
        }
        if !anns.is_empty() {
            for (a, carrier_seq) in anns {
                self.apply_assignment(a, from, carrier_seq);
            }
            self.try_deliver(rt);
        }
        if !piggy_votes.is_empty() {
            self.on_vote_frame(rt, from, 0, piggy_votes);
        }
        for (msg_seq, kind, payload) in completed {
            self.on_reliable_msg(rt, from, msg_seq, kind, payload);
        }
    }

    fn on_reliable_msg(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        origin: NodeId,
        msg_seq: u64,
        kind: PayloadKind,
        payload: Bytes,
    ) {
        match kind {
            PayloadKind::App => {
                let last_frag = msg_seq + self.frags_needed(payload.len()) - 1;
                self.to.store.insert((origin.0, msg_seq), StoredMsg { payload, last_frag });
                if self.i_am_sequencer()
                    && matches!(self.phase, Phase::Stable)
                    && !self.to.assigned.contains(&(origin.0, msg_seq))
                {
                    self.assign(rt, origin, msg_seq);
                }
                self.try_deliver(rt);
            }
            PayloadKind::SeqAnn => {
                // The announcement's own last fragment is the order carrier:
                // uniform delivery waits for it to be stable as well.
                let carrier_seq = msg_seq + self.frags_needed(payload.len()) - 1;
                if let Ok(assigns) = decode_seq_ann(payload) {
                    for a in assigns {
                        self.apply_assignment(a, origin, carrier_seq);
                    }
                    self.try_deliver(rt);
                }
            }
        }
    }

    fn apply_assignment(&mut self, a: SeqAssign, carrier: NodeId, carrier_seq: u64) {
        if self.to.assigned.contains(&(a.sender.0, a.msg_seq))
            || a.global_seq < self.to.next_deliver
        {
            return;
        }
        self.to.assigned.insert((a.sender.0, a.msg_seq));
        self.to.by_gseq.insert(
            a.global_seq,
            AppliedAssign { origin: a.sender, msg_seq: a.msg_seq, carrier, carrier_seq },
        );
        self.to.max_applied = self.to.max_applied.max(a.global_seq);
        self.to.assign_counter = self.to.assign_counter.max(a.global_seq + 1);
    }

    fn assign(&mut self, rt: &mut dyn ProtocolRuntime, origin: NodeId, msg_seq: u64) {
        // Dedup on push: a re-`assign` after sequencer recovery must not
        // queue the same message twice in one batch (the duplicate would
        // waste a global sequence number on an entry every receiver drops).
        if !self.to.pending_keys.insert((origin.0, msg_seq)) {
            return;
        }
        let a = SeqAssign { sender: origin, msg_seq, global_seq: self.to.assign_counter };
        self.to.assign_counter += 1;
        self.to.pending_ann.push(a);
        // A sequencer-origin message is assigned through loopback right
        // after its own send, so its fragments are unavoidably still
        // unstable — they are the carrier of this assignment, not backlog.
        let carrier_frags = if origin == self.me {
            self.to.store.get(&(origin.0, msg_seq)).map_or(0, |m| m.last_frag - msg_seq + 1)
                as usize
        } else {
            0
        };
        self.schedule_ann(rt, carrier_frags);
    }

    /// Consults the batching policy for the queued announcements: flush now,
    /// or make sure a flush timer is armed. Called at assign time, with the
    /// triggering message's own fragment count as `carrier_frags`.
    fn schedule_ann(&mut self, rt: &mut dyn ProtocolRuntime, carrier_frags: usize) {
        if self.to.pending_ann.is_empty() {
            return;
        }
        // Backlog: queued sequencer work *besides* the assignment that
        // triggered the consult — batch-mates already waiting, untransmitted
        // messages, and unstable fragments still consuming the sequencer's
        // buffer share (the §5.3 resource announcements compete for). All
        // three drain to zero when the sequencer is idle and stability has
        // caught up, so the adaptive policy then flushes in one hop.
        let stable_self = self.stab.stable()[self.me.0 as usize];
        let in_flight =
            (self.send.sent().saturating_sub(stable_self) as usize).saturating_sub(carrier_frags);
        let backlog = (self.to.pending_ann.len() - 1) + self.send.pending.len() + in_flight;
        match self.cfg.ann_policy.window(backlog) {
            None => self.flush_ann(rt),
            Some(d) => {
                if self.to.ann_timer.is_none() {
                    self.to.ann_timer = Some(rt.set_timer(d, TimerKind::AnnFlush));
                }
            }
        }
    }

    fn flush_ann(&mut self, rt: &mut dyn ProtocolRuntime) {
        if let Some(id) = self.to.ann_timer.take() {
            rt.cancel_timer(id);
        }
        if self.to.pending_ann.is_empty() || !matches!(self.phase, Phase::Stable) {
            // Outside `Stable` the batch is retained; `install` then clears
            // it and its re-assignment pass rebuilds (and re-schedules, via
            // `assign`) every still-unassigned message — so a flush timer
            // fired mid-view-change strands nothing.
            return;
        }
        // One wire message per chunk keeps the u16 count field sound under
        // extreme backlog.
        const MAX_ANN_CHUNK: usize = 4096;
        while !self.to.pending_ann.is_empty() {
            let take = self.to.pending_ann.len().min(MAX_ANN_CHUNK);
            let chunk: Vec<SeqAssign> = self.to.pending_ann.drain(..take).collect();
            for a in &chunk {
                self.to.pending_keys.remove(&(a.sender.0, a.msg_seq));
            }
            self.metrics.ann_sent += 1;
            self.metrics.ann_assigns += chunk.len() as u64;
            self.enqueue_send(PayloadKind::SeqAnn, encode_seq_ann(&chunk));
        }
        self.drain_sends(rt);
    }

    fn try_deliver(&mut self, rt: &mut dyn ProtocolRuntime) {
        loop {
            let g = self.to.next_deliver;
            if self.to.skipped.remove(&g) {
                self.to.next_deliver += 1;
                continue;
            }
            let Some(&AppliedAssign { origin, msg_seq, carrier, carrier_seq }) =
                self.to.by_gseq.get(&g)
            else {
                break;
            };
            let Some(stored) = self.to.store.get(&(origin.0, msg_seq)) else { break };
            if self.cfg.uniform_delivery {
                // Uniform mode: deliver only once both the message *and its
                // ordering* are stable (received by all operational
                // members). Gating on the carrier keeps an isolated
                // sequencer from delivering an order the primary component
                // never saw and will re-make differently.
                let stable = self.stab.stable();
                if stable[origin.0 as usize] < stored.last_frag
                    || stable[carrier.0 as usize] < carrier_seq
                {
                    break;
                }
            }
            let stored = self.to.store.remove(&(origin.0, msg_seq)).expect("checked above");
            self.to.by_gseq.remove(&g);
            self.to.assigned.remove(&(origin.0, msg_seq));
            self.to.next_deliver += 1;
            self.metrics.delivered += 1;
            self.upcalls.push_back(Upcall::Deliver {
                origin,
                global_seq: g,
                payload: stored.payload,
            });
        }
        let _ = rt;
    }

    // ----- NAK / retransmission ----------------------------------------

    fn answer_nak(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        requester: NodeId,
        target: NodeId,
        ranges: &[(u64, u64)],
    ) {
        const MAX_ANSWER: usize = 64;
        let mut sent = 0usize;
        for &(from, to) in ranges {
            for seq in from..=to {
                if sent >= MAX_ANSWER {
                    return;
                }
                let rec = if target == self.me {
                    self.send.buffer.get(&seq).cloned()
                } else {
                    let s = &self.recv[target.0 as usize];
                    s.retained.get(&seq).cloned().or_else(|| s.ooo.get(&seq).cloned())
                };
                if let Some(rec) = rec {
                    let env = Envelope {
                        sender: target,
                        view: self.view.id,
                        msg: Message::Data {
                            seq,
                            total_frags: rec.total,
                            frag_idx: rec.idx,
                            kind: rec.kind,
                            ann: rec.ann,
                            votes: rec.votes,
                            payload: rec.payload,
                            retrans: true,
                        },
                    };
                    rt.unicast(requester, env.encode());
                    self.metrics.retrans_sent += 1;
                    sent += 1;
                }
            }
        }
    }

    fn nak_scan(&mut self, rt: &mut dyn ProtocolRuntime) {
        const MAX_RANGES: usize = 32;
        let now = rt.now_nanos();
        let nak_delay = self.cfg.nak_delay.as_nanos() as u64;
        let nak_retry = self.cfg.nak_retry.as_nanos() as u64;
        for j in 0..self.cfg.n_nodes {
            if j == self.me.0 as usize {
                continue;
            }
            let (ranges, target_alive) = {
                let stream = &self.recv[j];
                let limit = stream.highest_known.min(stream.delivery_limit());
                if stream.contiguous >= limit {
                    continue;
                }
                let Some(gap_since) = stream.gap_since else {
                    // Tail loss: no later fragment arrived; rely on the
                    // heartbeat-advertised length to open the gap clock.
                    self.recv[j].gap_since = Some(now);
                    continue;
                };
                if now.saturating_sub(gap_since) < nak_delay
                    || now.saturating_sub(stream.last_nak) < nak_retry
                {
                    continue;
                }
                let mut ranges: Vec<(u64, u64)> = Vec::new();
                let mut next = stream.contiguous + 1;
                for (&have, _) in stream.ooo.range(next..=limit) {
                    if have > next {
                        ranges.push((next, have - 1));
                        if ranges.len() >= MAX_RANGES {
                            break;
                        }
                    }
                    next = have + 1;
                }
                if ranges.len() < MAX_RANGES && next <= limit {
                    ranges.push((next, limit));
                }
                let alive = self.view.members.contains(NodeId(j as u16))
                    && !self.suspected.contains(NodeId(j as u16));
                (ranges, alive)
            };
            if ranges.is_empty() {
                continue;
            }
            self.recv[j].last_nak = now;
            self.metrics.naks_sent += 1;
            let msg = Message::Nak { target: NodeId(j as u16), ranges };
            let env = Envelope { sender: self.me, view: self.view.id, msg };
            if target_alive {
                rt.unicast(NodeId(j as u16), env.encode());
            } else {
                // Original sender is gone: ask the survivors.
                let encoded = env.encode();
                for m in self.view.members.iter() {
                    if m != self.me && m != NodeId(j as u16) {
                        rt.unicast(m, encoded.clone());
                    }
                }
            }
        }
    }

    // ----- stability ----------------------------------------------------

    fn on_stability_advance(&mut self, rt: &mut dyn ProtocolRuntime) {
        let stable = self.stab.stable().to_vec();
        // GC own send buffer and peers' retained caches.
        let own = stable[self.me.0 as usize];
        self.send.buffer = self.send.buffer.split_off(&(own + 1));
        for (j, s) in self.recv.iter_mut().enumerate() {
            let keep = stable[j] + 1;
            s.retained = s.retained.split_off(&keep);
        }
        if self.cfg.uniform_delivery {
            self.try_deliver(rt);
        }
        // Freed buffer share may unblock the sender.
        self.drain_sends(rt);
    }

    // ----- failure detection & view changes ------------------------------

    /// Primary-component rule: a membership may carry the group forward only
    /// if it is a strict majority of the current view. Minority components
    /// (e.g. the small side of a partition, or an isolated sequencer) halt
    /// instead of installing a view — two disjoint components that both kept
    /// committing would be a split-brain the safety check rightly flags.
    ///
    /// The majority is judged against this node's *local* view, which can be
    /// stale if it missed an intermediate install: such a node may halt on a
    /// proposal that is in fact a legitimate majority of the newer view. The
    /// rule deliberately errs on that side — halting is always safe (the
    /// halted node's commits stay a prefix), while proceeding on a stale
    /// denominator could admit two disjoint "majorities".
    fn is_primary(&self, members: NodeSet) -> bool {
        members.len() * 2 > self.view.members.len()
    }

    /// Halts this node — excluded by a view proposal, or a survivor that
    /// cannot prove it is in the primary component. Either way the
    /// application treats it as crashed; its commits stay a prefix of the
    /// primary component's.
    fn halt_excluded(&mut self) {
        self.halted = true;
        self.upcalls.push_back(Upcall::Excluded);
    }

    fn failure_scan(&mut self, rt: &mut dyn ProtocolRuntime) {
        let now = rt.now_nanos();
        let timeout = self.cfg.failure_timeout.as_nanos() as u64;
        let mut newly = false;
        for j in self.view.members.iter() {
            if j == self.me || self.suspected.contains(j) {
                continue;
            }
            if now.saturating_sub(self.last_heard[j.0 as usize]) > timeout {
                self.suspected.insert(j);
                newly = true;
            }
        }
        if newly {
            let alive = self.view.members.difference(self.suspected);
            if !self.is_primary(alive) {
                // We lost contact with a majority of the view: we are (at
                // best) in a minority partition segment. Halt.
                self.halt_excluded();
                return;
            }
            self.maybe_coordinate_flush(rt);
        }
    }

    fn maybe_coordinate_flush(&mut self, rt: &mut dyn ProtocolRuntime) {
        let survivors = self.view.members.difference(self.suspected);
        if survivors.min() != Some(self.me) {
            return; // not the coordinator
        }
        let next_view = match &self.phase {
            Phase::Stable => self.view.id + 1,
            Phase::Flushing { new_view, proposed, .. } => {
                if *proposed == survivors {
                    return; // already flushing this proposal
                }
                new_view + 1
            }
        };
        self.start_flush(rt, next_view, survivors);
    }

    fn start_flush(&mut self, rt: &mut dyn ProtocolRuntime, new_view: u64, proposed: NodeSet) {
        self.freeze_excluded(proposed);
        let mut acks = HashMap::new();
        acks.insert(self.me.0, self.received_vec());
        self.phase =
            Phase::Flushing { new_view, proposed, acks, pending_install: None, sent_install: None };
        let env = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::FlushReq { new_view, members: proposed },
        };
        rt.multicast(env.encode());
        rt.set_timer(self.cfg.heartbeat_period, TimerKind::FlushResend);
        self.check_flush_complete(rt);
    }

    /// Freezes delivery from members excluded by `proposed` at the current
    /// snapshot, so no survivor delivers messages beyond what will be in the
    /// agreed cut.
    fn freeze_excluded(&mut self, proposed: NodeSet) {
        for j in 0..self.cfg.n_nodes {
            let node = NodeId(j as u16);
            if node != self.me && self.view.members.contains(node) && !proposed.contains(node) {
                let s = &mut self.recv[j];
                if s.freeze_at.is_none() {
                    s.freeze_at = Some(s.contiguous);
                }
            }
        }
    }

    fn on_flush_req(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        coordinator: NodeId,
        new_view: u64,
        members: NodeSet,
    ) {
        if new_view <= self.view.id {
            return;
        }
        if let Phase::Flushing { new_view: cur, .. } = &self.phase {
            if new_view < *cur {
                return;
            }
        }
        if !members.contains(self.me) || !self.is_primary(members) {
            self.halt_excluded();
            return;
        }
        self.freeze_excluded(members);
        match &mut self.phase {
            Phase::Flushing { new_view: cur, proposed, .. } if *cur == new_view => {
                *proposed = members;
            }
            _ => {
                self.phase = Phase::Flushing {
                    new_view,
                    proposed: members,
                    acks: HashMap::new(),
                    pending_install: None,
                    sent_install: None,
                };
            }
        }
        let env = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::FlushAck { new_view, received: self.received_vec() },
        };
        rt.unicast(coordinator, env.encode());
    }

    fn on_flush_ack(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        sender: NodeId,
        new_view: u64,
        received: Vec<u64>,
    ) {
        let Phase::Flushing { new_view: cur, acks, .. } = &mut self.phase else { return };
        if *cur != new_view || received.len() != self.cfg.n_nodes {
            return;
        }
        acks.insert(sender.0, received);
        self.check_flush_complete(rt);
    }

    fn check_flush_complete(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Phase::Flushing { new_view, proposed, acks, sent_install, .. } = &mut self.phase else {
            return;
        };
        if sent_install.is_some() {
            return;
        }
        let all_acked = proposed.iter().all(|m| acks.contains_key(&m.0));
        if !all_acked {
            return;
        }
        // Cut: for every stream, the maximum any survivor has received —
        // every survivor can reach it via retransmission from its peers.
        let n = self.cfg.n_nodes;
        let mut cut = vec![0u64; n];
        for v in acks.values() {
            for (c, r) in cut.iter_mut().zip(v) {
                *c = (*c).max(*r);
            }
        }
        let new_view = *new_view;
        let members = *proposed;
        *sent_install = Some((members, cut.clone()));
        let env = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::ViewInstall { new_view, members, cut: cut.clone() },
        };
        rt.multicast(env.encode());
        self.on_view_install(rt, new_view, members, cut);
    }

    fn on_view_install(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        new_view: u64,
        members: NodeSet,
        cut: Vec<u64>,
    ) {
        if new_view <= self.view.id || cut.len() != self.cfg.n_nodes {
            return;
        }
        if !members.contains(self.me) || !self.is_primary(members) {
            self.halt_excluded();
            return;
        }
        // Adopt the install (possibly without having seen the FlushReq).
        let acks = match std::mem::replace(&mut self.phase, Phase::Stable) {
            Phase::Flushing { acks, .. } => acks,
            Phase::Stable => HashMap::new(),
        };
        self.phase = Phase::Flushing {
            new_view,
            proposed: members,
            acks,
            pending_install: Some((new_view, members, cut)),
            sent_install: None,
        };
        self.try_complete_install(rt);
    }

    fn try_complete_install(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Phase::Flushing { pending_install: Some((new_view, members, cut)), .. } = &self.phase
        else {
            return;
        };
        let (new_view, members, cut) = (*new_view, *members, cut.clone());
        // Raise the freeze limit of excluded streams to the agreed cut and
        // replay buffered fragments now allowed through; fragments still
        // missing will be NAKed from the survivors by nak_scan.
        let mut reached = true;
        // Index loop: `j` addresses both `cut` and `self.recv` while
        // `advance_stream` re-borrows `self` mutably.
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.cfg.n_nodes {
            let node = NodeId(j as u16);
            if node == self.me || members.contains(node) || !self.view.members.contains(node) {
                continue;
            }
            {
                let s = &mut self.recv[j];
                s.freeze_at = Some(cut[j]);
                s.highest_known = s.highest_known.max(cut[j]);
            }
            self.advance_stream(rt, node);
            if self.recv[j].contiguous < cut[j] {
                reached = false;
            }
        }
        // advance_stream may have delivered messages but cannot change the
        // phase; the pending install is still ours to complete.
        if reached {
            self.install(rt, new_view, members, cut);
        }
    }

    fn install(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        new_view: u64,
        members: NodeSet,
        cut: Vec<u64>,
    ) {
        // Drop undeliverable fragments beyond the cut for dead streams. A
        // message left partially assembled at the cut died with its sender
        // and can never complete anywhere — clear it, or it would block
        // rejoin grants (which require assembly-clean streams) forever.
        // Index loop: `j` addresses both `cut` and `self.recv`.
        #[allow(clippy::needless_range_loop)]
        for j in 0..self.cfg.n_nodes {
            let node = NodeId(j as u16);
            if node == self.me || members.contains(node) {
                continue;
            }
            let s = &mut self.recv[j];
            s.ooo.clear();
            s.gap_since = None;
            s.freeze_at = Some(cut[j]);
            if s.contiguous >= cut[j] {
                s.asm = Assembler::default();
            }
        }
        // Newly added members (rejoiners): unfreeze their streams — their
        // new traffic continues the old fragment numbering past the freeze
        // point — and reset the failure detector so the fresh member is not
        // instantly re-suspected on pre-crash silence.
        let now = rt.now_nanos();
        for node in members.difference(self.view.members).iter() {
            let s = &mut self.recv[node.0 as usize];
            s.freeze_at = None;
            s.gap_since = None;
            s.asm = Assembler::default();
            self.last_heard[node.0 as usize] = now;
            // A rejoiner restarts its vote stream from seq 1: reset its
            // receive tracking, and zero its (stale-high) ack of ours so GC
            // cannot run ahead of what the fresh instance actually holds.
            let j = node.0 as usize;
            self.votes.acked[j] = 0;
            self.votes.in_up_to[j] = 0;
            self.votes.in_ooo[j].clear();
        }
        // Orphaned assignments: messages sequenced by the old view but whose
        // content died with its sender can never be delivered — skip their
        // global sequence numbers (identically at every survivor).
        let mut orphans: Vec<u64> = Vec::new();
        for (&g, aa) in &self.to.by_gseq {
            if !members.contains(aa.origin)
                && aa.origin != self.me
                && aa.msg_seq > cut[aa.origin.0 as usize]
            {
                orphans.push(g);
            }
        }
        for g in orphans {
            let aa = self.to.by_gseq.remove(&g).expect("listed above");
            self.to.assigned.remove(&(aa.origin.0, aa.msg_seq));
            self.to.skipped.insert(g);
        }
        // Announcements never sent can be re-assigned from scratch (with a
        // fresh flush timer: the old one belongs to the dropped batch).
        self.to.pending_ann.clear();
        self.to.pending_keys.clear();
        if let Some(id) = self.to.ann_timer.take() {
            rt.cancel_timer(id);
        }
        self.to.assign_counter = self.to.max_applied + 1;

        self.view = View { id: new_view, members };
        self.phase = Phase::Stable;
        self.suspected = self.suspected.difference(members);
        self.stab.set_members(members);
        // Excluded receivers stop gating vote GC the moment they are out.
        self.gc_votes();
        // Sticky sequencer: fail over only when the holder left. A
        // still-member dedicated sequencer is preferred on failover; a
        // *rejoined* one does not reclaim the role (it would race the
        // incumbent across the unsynchronized install instants).
        if !members.contains(self.seq_node) {
            self.seq_node = match self.cfg.dedicated_sequencer {
                Some(s) if members.contains(s) => s,
                _ => members.min().expect("installed view contains me"),
            };
        }
        self.metrics.view_changes += 1;
        self.upcalls.push_back(Upcall::ViewChange(self.view));

        // New sequencer sequences everything left unassigned,
        // deterministically ordered.
        if self.i_am_sequencer() {
            let mut unassigned: Vec<(u16, u64)> =
                self.to.store.keys().filter(|k| !self.to.assigned.contains(k)).copied().collect();
            unassigned.sort_unstable();
            for (origin, msg_seq) in unassigned {
                self.assign(rt, NodeId(origin), msg_seq);
            }
        }
        self.try_deliver(rt);
        self.drain_sends(rt);
    }

    // ----- rejoin --------------------------------------------------------

    /// Suspected nodes that are still members — the set that matters for
    /// flush coordination and grant admission (suspicions of already-removed
    /// nodes linger harmlessly in `suspected`).
    fn live_suspects(&self) -> NodeSet {
        NodeSet::from_bits(self.suspected.bits() & self.view.members.bits())
    }

    fn send_join_req(&mut self, rt: &mut dyn ProtocolRuntime) {
        let env = Envelope { sender: self.me, view: 0, msg: Message::JoinReq };
        rt.multicast(env.encode());
    }

    /// A restarted node asks to rejoin. Only the lowest live member grants;
    /// everyone else ignores the request. If the joiner is already a member
    /// (a previous grant or its install was lost on the wire), the stored
    /// grant is resent instead.
    fn on_join_req(&mut self, rt: &mut dyn ProtocolRuntime, joiner: NodeId) {
        if joiner == self.me || (joiner.0 as usize) >= self.cfg.n_nodes {
            return;
        }
        if self.view.members.contains(joiner) {
            self.resend_last_grant(rt, joiner);
            return;
        }
        if self.view.members.difference(self.suspected).min() != Some(self.me) {
            return;
        }
        if self.pending_join.is_none() {
            self.pending_join = Some(joiner);
        }
        self.try_grant_join(rt);
    }

    fn resend_last_grant(&mut self, rt: &mut dyn ProtocolRuntime, joiner: NodeId) {
        let Some(g) = self.last_grant.clone() else { return };
        // Only while the granted view is still current: past it, the joiner
        // went silent through a later flush and will be re-admitted fresh.
        if g.joiner != joiner || g.new_view != self.view.id {
            return;
        }
        let grant = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::JoinGrant {
                new_view: g.new_view,
                members: g.members,
                cut: g.cut.clone(),
                order_base: g.order_base,
                skipped: g.skipped.clone(),
                sequencer: g.sequencer,
            },
        };
        rt.unicast(joiner, grant.encode());
        let install = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::ViewInstall { new_view: g.new_view, members: g.members, cut: g.cut },
        };
        rt.multicast(install.encode());
    }

    /// Admits the latched joiner if this is an *order-clean* point: a
    /// stable phase with no live suspicions, and nothing reliably received
    /// anywhere in this node's streams still awaiting ordering or assembly.
    /// At such a point the received vector plus the next-to-deliver global
    /// sequence number fully describe the group state for a fresh member:
    /// every assignment or message content at or beyond those baselines
    /// travels in fragments beyond the cut, which the joiner will receive
    /// (or NAK) like any member. Called on every `JoinReq` and from the
    /// gossip timer, so a latched join lands within a beat of the group
    /// draining.
    fn try_grant_join(&mut self, rt: &mut dyn ProtocolRuntime) {
        let Some(joiner) = self.pending_join else { return };
        if self.view.members.contains(joiner) {
            self.pending_join = None;
            return;
        }
        if !matches!(self.phase, Phase::Stable) || !self.live_suspects().is_empty() {
            return;
        }
        let clean = self.to.store.is_empty()
            && self.to.by_gseq.is_empty()
            && self.to.pending_ann.is_empty()
            && self.recv.iter().all(|s| s.asm.frags.is_empty());
        if !clean {
            return;
        }
        // Clear the latch *before* the install below re-enters try_deliver —
        // and so a grant is never re-issued for the same latch.
        self.pending_join = None;
        let cut = self.received_vec();
        let new_view = self.view.id + 1;
        let mut members = self.view.members;
        members.insert(joiner);
        let order_base = self.to.next_deliver;
        let mut skipped: Vec<u64> =
            self.to.skipped.iter().copied().filter(|&g| g >= order_base).collect();
        skipped.sort_unstable();
        // The application serves the state transfer from exactly this
        // instant's committed state (everything below `order_base`).
        self.upcalls.push_back(Upcall::ServeJoin { joiner });
        let record = GrantRecord {
            joiner,
            new_view,
            members,
            cut: cut.clone(),
            order_base,
            skipped: skipped.clone(),
            sequencer: self.seq_node,
        };
        self.last_grant = Some(record);
        self.grant_resends = 2;
        rt.set_timer(self.cfg.heartbeat_period, TimerKind::JoinRetry);
        let grant = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::JoinGrant {
                new_view,
                members,
                cut: cut.clone(),
                order_base,
                skipped,
                sequencer: self.seq_node,
            },
        };
        rt.unicast(joiner, grant.encode());
        let install = Envelope {
            sender: self.me,
            view: self.view.id,
            msg: Message::ViewInstall { new_view, members, cut: cut.clone() },
        };
        rt.multicast(install.encode());
        // A member-add install needs no flush (no stream is being cut off):
        // adopt it locally through the normal install path.
        self.on_view_install(rt, new_view, members, cut);
    }

    /// The joiner adopts its grant: the granted view, per-stream fragment
    /// baselines (its own old stream continues where the group last saw
    /// it), and the total-order base. Stability restarts from scratch and
    /// catches up through gossip max-merge — it is *not* seeded with the
    /// cut, because group-wide stable never exceeds the granter's received
    /// vector, so seeding could over-promise and garbage-collect fragments
    /// a trailing survivor still needs.
    #[allow(clippy::too_many_arguments)]
    fn on_join_grant(
        &mut self,
        rt: &mut dyn ProtocolRuntime,
        new_view: u64,
        members: NodeSet,
        cut: Vec<u64>,
        order_base: u64,
        skipped: Vec<u64>,
        sequencer: NodeId,
    ) {
        if !self.joining || !members.contains(self.me) || cut.len() != self.cfg.n_nodes {
            return;
        }
        let now = rt.now_nanos();
        self.joining = false;
        self.view = View { id: new_view, members };
        self.seq_node = if members.contains(sequencer) {
            sequencer
        } else {
            members.min().expect("granted view contains me")
        };
        for (j, s) in self.recv.iter_mut().enumerate() {
            *s = RecvStream::new();
            s.contiguous = cut[j];
            s.highest_known = cut[j];
        }
        self.send.next_frag = cut[self.me.0 as usize] + 1;
        self.send.last_refill = now;
        self.to.next_deliver = order_base;
        self.to.max_applied = order_base.saturating_sub(1);
        self.to.assign_counter = order_base;
        self.to.skipped = skipped.into_iter().collect();
        self.stab = Stability::new(self.me, self.cfg.n_nodes, members);
        // Fresh vote state: the application resumes casting only after its
        // state transfer completes, and peers' `Vote` bases skip us past
        // their pre-rejoin streams.
        self.votes = VoteState::new(self.cfg.n_nodes);
        self.last_heard = vec![now; self.cfg.n_nodes];
        rt.set_timer(self.cfg.gossip_period, TimerKind::Gossip);
        rt.set_timer(self.cfg.heartbeat_period, TimerKind::Heartbeat);
        rt.set_timer(self.cfg.failure_timeout, TimerKind::FailureCheck);
        rt.set_timer(self.cfg.nak_delay, TimerKind::NakCheck);
        self.metrics.view_changes += 1;
        self.upcalls.push_back(Upcall::ViewChange(self.view));
        self.upcalls.push_back(Upcall::Rejoined);
    }

    // ----- timers --------------------------------------------------------

    /// Entry point for a fired timer.
    pub fn on_timer(&mut self, rt: &mut dyn ProtocolRuntime, kind: TimerKind) {
        if self.halted {
            return;
        }
        rt.charge(self.cfg.proc_cost);
        if self.joining {
            // A rejoiner runs nothing but its retry loop.
            if kind == TimerKind::JoinRetry {
                self.send_join_req(rt);
                rt.set_timer(self.cfg.heartbeat_period, TimerKind::JoinRetry);
            }
            return;
        }
        match kind {
            TimerKind::Gossip => {
                let received = self.received_vec();
                let g = self.stab.make_gossip(&received);
                let env = Envelope { sender: self.me, view: self.view.id, msg: Message::Gossip(g) };
                rt.multicast(env.encode());
                self.metrics.gossip_sent += 1;
                // Completing our own vote may already advance stability.
                self.on_stability_advance(rt);
                // A latched joiner admits at the next order-clean beat.
                self.try_grant_join(rt);
                rt.set_timer(self.cfg.gossip_period, TimerKind::Gossip);
            }
            TimerKind::Heartbeat => {
                let env = Envelope {
                    sender: self.me,
                    view: self.view.id,
                    msg: Message::Heartbeat { sent: self.send.sent() },
                };
                rt.multicast(env.encode());
                // Vote reliability rides the heartbeat: retransmit the
                // unacked suffix, then flush stragglers that found no
                // fragment slack to piggyback on.
                self.resend_votes(rt);
                self.flush_votes(rt);
                rt.set_timer(self.cfg.heartbeat_period, TimerKind::Heartbeat);
            }
            TimerKind::FailureCheck => {
                self.failure_scan(rt);
                rt.set_timer(self.cfg.failure_timeout, TimerKind::FailureCheck);
            }
            TimerKind::NakCheck => {
                self.nak_scan(rt);
                self.try_complete_install(rt);
                rt.set_timer(self.cfg.nak_delay, TimerKind::NakCheck);
            }
            TimerKind::RateRefill => {
                self.send.rate_timer = None;
                self.drain_sends(rt);
            }
            TimerKind::AnnFlush => {
                // The fired timer is spent: drop the handle first so
                // flush_ann does not issue a cancel for it (cancels of
                // already-fired ids accumulate forever in the native and
                // testkit runtimes' cancelled sets).
                self.to.ann_timer = None;
                self.flush_ann(rt);
            }
            TimerKind::FlushResend => {
                if let Phase::Flushing { new_view, proposed, sent_install, .. } = &self.phase {
                    let (new_view, proposed) = (*new_view, *proposed);
                    match sent_install.clone() {
                        Some((members, cut)) => {
                            let env = Envelope {
                                sender: self.me,
                                view: self.view.id,
                                msg: Message::ViewInstall { new_view, members, cut },
                            };
                            rt.multicast(env.encode());
                        }
                        None if self.view.members.difference(self.suspected).min()
                            == Some(self.me) =>
                        {
                            let env = Envelope {
                                sender: self.me,
                                view: self.view.id,
                                msg: Message::FlushReq { new_view, members: proposed },
                            };
                            rt.multicast(env.encode());
                        }
                        None => {}
                    }
                    rt.set_timer(self.cfg.heartbeat_period, TimerKind::FlushResend);
                }
            }
            TimerKind::JoinRetry => {
                // Granter side: re-multicast the grant's install a couple of
                // times so a survivor that lost the single install packet
                // still learns the new member (the joiner's own losses heal
                // through its JoinReq retries).
                if self.grant_resends > 0 {
                    self.grant_resends -= 1;
                    if let Some(g) = self.last_grant.clone() {
                        if g.new_view == self.view.id {
                            let env = Envelope {
                                sender: self.me,
                                view: self.view.id,
                                msg: Message::ViewInstall {
                                    new_view: g.new_view,
                                    members: g.members,
                                    cut: g.cut,
                                },
                            };
                            rt.multicast(env.encode());
                            rt.set_timer(self.cfg.heartbeat_period, TimerKind::JoinRetry);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AnnBatchPolicy;
    use std::time::Duration;

    /// A transparent [`ProtocolRuntime`] recording everything the stack does,
    /// for driving single `Gcs` instances through exact event sequences the
    /// network harness cannot easily force (e.g. a flush timer firing in the
    /// middle of a view change).
    #[derive(Default)]
    struct MockRt {
        now: u64,
        next_timer: u64,
        armed: Vec<(TimerId, TimerKind)>,
        cancelled: Vec<TimerId>,
        sent: Vec<Bytes>,
    }

    impl ProtocolRuntime for MockRt {
        fn now_nanos(&mut self) -> u64 {
            self.now
        }

        fn set_timer(&mut self, _delay: Duration, kind: TimerKind) -> TimerId {
            let id = TimerId(self.next_timer);
            self.next_timer += 1;
            self.armed.push((id, kind));
            id
        }

        fn cancel_timer(&mut self, id: TimerId) {
            self.cancelled.push(id);
        }

        fn unicast(&mut self, _to: NodeId, payload: Bytes) {
            self.sent.push(payload);
        }

        fn multicast(&mut self, payload: Bytes) {
            self.sent.push(payload);
        }

        fn charge(&mut self, _cost: Duration) {}
    }

    fn fixed_cfg(n: usize, window: Duration) -> GcsConfig {
        let mut cfg = GcsConfig::lan(n);
        cfg.ann_policy = AnnBatchPolicy::Fixed(window);
        cfg
    }

    fn app_fragment(sender: NodeId, seq: u64, payload: &'static [u8]) -> Bytes {
        Envelope {
            sender,
            view: 0,
            msg: Message::Data {
                seq,
                total_frags: 1,
                frag_idx: 0,
                kind: PayloadKind::App,
                ann: Vec::new(),
                votes: Vec::new(),
                payload: Bytes::from_static(payload),
                retrans: false,
            },
        }
        .encode()
    }

    fn ann_timer_armed(g: &Gcs, rt: &MockRt) -> bool {
        g.to.ann_timer.is_some_and(|id| !rt.cancelled.contains(&id))
    }

    #[test]
    fn flush_timer_fired_mid_view_change_does_not_strand_the_batch() {
        // Regression for the stale-batch edge: the sequencer's flush timer
        // fires while a view change is in progress (outside `Phase::Stable`),
        // which used to leave the pending announcements with no armed timer.
        // On re-entry to `Stable` the batch must be re-scheduled.
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(600)));
        g.on_start(&mut rt);
        g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"txn"));
        assert_eq!(g.to.pending_ann.len(), 1, "assignment queued for batching");
        assert!(ann_timer_armed(&g, &rt), "flush timer armed");

        // Node 1 coordinates a view change excluding node 2.
        let members: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        let req = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::FlushReq { new_view: 1, members },
        };
        g.on_packet(&mut rt, req.encode());
        // The armed flush timer fires mid-flush: the batch is retained but
        // its timer is gone — the stranded state under test.
        g.on_timer(&mut rt, TimerKind::AnnFlush);
        assert_eq!(g.to.pending_ann.len(), 1, "batch retained across the view change");
        assert!(!ann_timer_armed(&g, &rt), "timer consumed mid-flush");
        assert_eq!(g.metrics().ann_sent, 0, "nothing announced while flushing");

        let install = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::ViewInstall { new_view: 1, members, cut: vec![0, 1, 0] },
        };
        g.on_packet(&mut rt, install.encode());
        assert!(matches!(g.phase, Phase::Stable), "view installed");
        assert_eq!(g.to.pending_ann.len(), 1, "assignment re-queued by the new-view pass");
        assert!(ann_timer_armed(&g, &rt), "batch re-scheduled on re-entry to Stable");

        // The re-armed timer fires: the announcement goes out and the
        // message is delivered in total order.
        g.on_timer(&mut rt, TimerKind::AnnFlush);
        let m = g.metrics();
        assert_eq!((m.ann_sent, m.ann_assigns), (1, 1));
        assert!(rt.cancelled.is_empty(), "fired timers must not be cancelled (runtime set leak)");
        let delivered: Vec<_> = g
            .drain_upcalls()
            .into_iter()
            .filter_map(|u| match u {
                Upcall::Deliver { origin, global_seq, .. } => Some((origin, global_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![(NodeId(1), 1)]);
    }

    #[test]
    fn losing_the_majority_halts_instead_of_forming_a_rump_view() {
        // Primary-component rule: a node that suspects a majority of its
        // view (the small side of a partition) must halt, not install a
        // singleton view and keep sequencing — that is the split-brain that
        // would diverge commit logs.
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(1)));
        g.on_start(&mut rt);
        // Silence from both peers for longer than the failure timeout.
        rt.now = 10 * g.cfg.failure_timeout.as_nanos() as u64;
        g.on_timer(&mut rt, TimerKind::FailureCheck);
        assert!(g.is_halted(), "minority survivor must halt");
        assert!(
            g.drain_upcalls().iter().any(|u| matches!(u, Upcall::Excluded)),
            "halt surfaces as Excluded"
        );
        assert_eq!(g.view().id, 0, "no rump view was installed");
    }

    #[test]
    fn majority_suspicion_still_reconfigures() {
        // Suspecting one node of three leaves a majority: the survivor
        // coordinates a flush instead of halting.
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(1)));
        g.on_start(&mut rt);
        let t = 10 * g.cfg.failure_timeout.as_nanos() as u64;
        rt.now = t;
        // Node 1 keeps talking, node 2 stays silent.
        g.last_heard[1] = t;
        g.on_timer(&mut rt, TimerKind::FailureCheck);
        assert!(!g.is_halted());
        assert!(matches!(g.phase, Phase::Flushing { .. }), "flush towards {{0,1}} started");
    }

    #[test]
    fn minority_view_proposals_are_refused_by_halting() {
        // Defense in depth: even a received FlushReq / ViewInstall proposing
        // a non-primary membership (including us) halts the node.
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(4, Duration::from_millis(1)));
        g.on_start(&mut rt);
        let members: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        let req = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::FlushReq { new_view: 1, members },
        };
        g.on_packet(&mut rt, req.encode());
        assert!(g.is_halted(), "2 of 4 is not a primary component");
    }

    #[test]
    fn uniform_delivery_waits_for_the_order_to_be_stable() {
        // Uniform mode gates on the carrier fragment of the assignment, not
        // just the message content: an assignment only this node has seen
        // must not deliver.
        let mut cfg = fixed_cfg(3, Duration::from_millis(5));
        cfg.uniform_delivery = true;
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(2), cfg);
        g.on_start(&mut rt);
        // Content: node 1's message, fragment 1.
        g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"m"));
        // Order: sequencer node 0's fragment 1 carries the assignment.
        let ann = Envelope {
            sender: NodeId(0),
            view: 0,
            msg: Message::Data {
                seq: 1,
                total_frags: 1,
                frag_idx: 0,
                kind: PayloadKind::App,
                ann: vec![SeqAssign { sender: NodeId(1), msg_seq: 1, global_seq: 1 }],
                votes: Vec::new(),
                payload: Bytes::from_static(b"carrier"),
                retrans: false,
            },
        };
        g.on_packet(&mut rt, ann.encode());
        assert!(
            !g.drain_upcalls().iter().any(|u| matches!(u, Upcall::Deliver { .. })),
            "nothing may deliver before content AND carrier are stable"
        );
        assert_eq!(g.to.by_gseq.len(), 1, "assignment applied, delivery gated");
        let aa = g.to.by_gseq[&1];
        assert_eq!((aa.origin, aa.msg_seq), (NodeId(1), 1));
        assert_eq!((aa.carrier, aa.carrier_seq), (NodeId(0), 1), "carrier recorded for the gate");
    }

    #[test]
    fn duplicate_assign_is_dropped_from_the_batch() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(5)));
        g.on_start(&mut rt);
        g.assign(&mut rt, NodeId(1), 7);
        g.assign(&mut rt, NodeId(1), 7);
        assert_eq!(g.to.pending_ann.len(), 1, "duplicate dropped on push");
        assert_eq!(g.to.assign_counter, 2, "duplicate burned no global sequence number");
        g.assign(&mut rt, NodeId(1), 8);
        assert_eq!(g.to.pending_ann.len(), 2);
        assert_eq!(g.to.assign_counter, 3);
    }

    #[test]
    fn pending_announcements_piggyback_on_app_fragments() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(10)));
        g.on_start(&mut rt);
        // A remote message is assigned and held for the batching window...
        g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"remote"));
        assert_eq!(g.to.pending_ann.len(), 1);
        // ...then the sequencer sends application traffic of its own: the
        // assignment rides the fragment's MTU slack, costing zero messages.
        g.broadcast(&mut rt, Bytes::from_static(b"own"));
        let m = g.metrics();
        assert_eq!(m.ann_piggybacked, 1, "assignment piggybacked");
        assert_eq!(m.ann_sent, 0, "no SeqAnn message spent");
        // The broadcast's own message was assigned at loopback *after* its
        // fragment left, so exactly that one assignment is waiting now.
        assert_eq!(g.to.pending_ann.len(), 1);
        assert_eq!(g.to.pending_ann[0].sender, NodeId(0));
        assert!(ann_timer_armed(&g, &rt), "fresh assignment re-armed the flush timer");
        // The carried assignment is on the wire...
        let carried = rt.sent.iter().any(|raw| {
            matches!(
                Envelope::decode(raw.clone()),
                Ok(Envelope { msg: Message::Data { ann, .. }, .. }) if !ann.is_empty()
            )
        });
        assert!(carried, "an outgoing fragment carries the assignment");
        // ...and applied through loopback: the remote message delivers.
        let delivered: Vec<_> = g
            .drain_upcalls()
            .into_iter()
            .filter_map(|u| match u {
                Upcall::Deliver { origin, global_seq, .. } => Some((origin, global_seq)),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![(NodeId(1), 1)]);
    }

    #[test]
    fn beyond_cut_piggyback_is_never_applied() {
        // Agreement discipline: assignments piggybacked on a fragment beyond
        // the agreed view-change cut must never be applied — they apply only
        // when the carrier joins the contiguous prefix, exactly like a
        // `SeqAnn` through the stream. A survivor that applied a beyond-cut
        // straggler while its peers did not would diverge after install.
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        // Sequencer node 0's fragment seq 2 arrives out of order (seq 1
        // lost), carrying a piggybacked assignment.
        let frag = Envelope {
            sender: NodeId(0),
            view: 0,
            msg: Message::Data {
                seq: 2,
                total_frags: 1,
                frag_idx: 0,
                kind: PayloadKind::App,
                ann: vec![SeqAssign { sender: NodeId(1), msg_seq: 9, global_seq: 5 }],
                votes: Vec::new(),
                payload: Bytes::from_static(b"late"),
                retrans: false,
            },
        };
        g.on_packet(&mut rt, frag.encode());
        assert!(g.to.assigned.is_empty(), "out-of-order carrier: assignment must wait");
        assert_eq!(g.to.max_applied, 0);
        // Node 0 dies; node 1 coordinates a view change whose cut excludes
        // the straggler (no survivor acked fragment 1, let alone 2).
        let members: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        let req = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::FlushReq { new_view: 1, members },
        };
        g.on_packet(&mut rt, req.encode());
        let install = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::ViewInstall { new_view: 1, members, cut: vec![0, 0, 0] },
        };
        g.on_packet(&mut rt, install.encode());
        assert!(matches!(g.phase, Phase::Stable), "view installed");
        assert!(g.to.assigned.is_empty(), "beyond-cut assignment never applied");
        assert_eq!(g.to.max_applied, 0, "assign counters untouched by the dropped straggler");
    }

    #[test]
    fn piggyback_respects_mtu_slack() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(10)));
        g.on_start(&mut rt);
        for i in 0..200 {
            g.assign(&mut rt, NodeId(1), i + 1);
        }
        // A payload one byte under the fragment limit leaves room for no
        // assignment at all; a tiny one carries as many as fit.
        let fp = g.cfg.frag_payload();
        g.broadcast(&mut rt, Bytes::from(vec![0u8; fp - 1]));
        assert_eq!(g.metrics().ann_piggybacked, 0, "no slack, no piggyback");
        g.broadcast(&mut rt, Bytes::from_static(b"x"));
        let max_fit = ((fp - 1) / SEQ_ASSIGN_WIRE) as u64;
        assert_eq!(g.metrics().ann_piggybacked, max_fit, "slack filled to the MTU");
        // Each broadcast's own message joins the batch at loopback: 200
        // seeded assignments + 2 own, minus what the second fragment carried.
        assert_eq!(g.to.pending_ann.len(), 202 - max_fit as usize, "rest stays batched");
        assert!(ann_timer_armed(&g, &rt), "remaining batch keeps its timer");
    }

    /// Decodes everything `rt` sent, newest-last.
    fn sent_msgs(rt: &MockRt) -> Vec<Message> {
        rt.sent.iter().filter_map(|raw| Envelope::decode(raw.clone()).ok()).map(|e| e.msg).collect()
    }

    /// Drives `g` (node 0 of 3) through a view change that removes node 2:
    /// suspect it via the failure detector, then complete the flush with
    /// node 1's ack.
    fn remove_node_2(rt: &mut MockRt, g: &mut Gcs) {
        rt.now += 10 * g.cfg.failure_timeout.as_nanos() as u64;
        g.last_heard[1] = rt.now;
        g.on_timer(rt, TimerKind::FailureCheck);
        assert!(matches!(g.phase, Phase::Flushing { .. }), "flush started");
        let ack = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::FlushAck { new_view: 1, received: g.received_vec() },
        };
        g.on_packet(rt, ack.encode());
        assert!(matches!(g.phase, Phase::Stable), "view installed");
        assert_eq!(g.view().members.len(), 2);
    }

    #[test]
    fn join_req_is_granted_at_an_order_clean_point() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        remove_node_2(&mut rt, &mut g);
        g.drain_upcalls();

        // Node 2 restarts and asks to rejoin; the group is idle, so the
        // grant is immediate.
        let req = Envelope { sender: NodeId(2), view: 0, msg: Message::JoinReq };
        g.on_packet(&mut rt, req.encode());
        let ups = g.drain_upcalls();
        let serve = ups.iter().position(|u| *u == Upcall::ServeJoin { joiner: NodeId(2) });
        let vc =
            ups.iter().position(|u| matches!(u, Upcall::ViewChange(v) if v.members.len() == 3));
        assert!(serve.is_some(), "granter serves the transfer: {ups:?}");
        assert!(vc.is_some(), "member-add view installed: {ups:?}");
        assert!(serve < vc, "transfer is primed before the new view");
        assert_eq!(g.view().id, 2);
        assert_eq!(g.sequencer(), Some(NodeId(0)), "sequencer role unchanged");
        let msgs = sent_msgs(&rt);
        assert!(
            msgs.iter().any(|m| matches!(m, Message::JoinGrant { new_view: 2, .. })),
            "grant unicast: {msgs:?}"
        );
        assert!(
            msgs.iter().any(|m| matches!(m, Message::ViewInstall { new_view: 2, members, .. }
                    if members.len() == 3)),
            "member-add install multicast: {msgs:?}"
        );
        assert!(g.recv[2].freeze_at.is_none(), "rejoined stream unfrozen");
    }

    #[test]
    fn grant_waits_until_the_order_is_clean() {
        // An application message whose announcement is still batched keeps
        // the group order-dirty: the join latches and is granted only once
        // the message has delivered (checked at the gossip beat).
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(600)));
        g.on_start(&mut rt);
        remove_node_2(&mut rt, &mut g);
        g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"txn"));
        assert!(!g.to.store.is_empty(), "undelivered message in the store");

        let req = Envelope { sender: NodeId(2), view: 0, msg: Message::JoinReq };
        g.on_packet(&mut rt, req.encode());
        assert_eq!(g.pending_join, Some(NodeId(2)), "join latched, not granted");
        assert!(!sent_msgs(&rt).iter().any(|m| matches!(m, Message::JoinGrant { .. })));

        // The batch flushes, the message delivers, and the next gossip beat
        // admits the joiner.
        g.on_timer(&mut rt, TimerKind::AnnFlush);
        assert!(g.to.store.is_empty(), "message delivered");
        g.on_timer(&mut rt, TimerKind::Gossip);
        assert_eq!(g.pending_join, None);
        let grant = sent_msgs(&rt).into_iter().find_map(|m| match m {
            Message::JoinGrant { order_base, .. } => Some(order_base),
            _ => None,
        });
        assert_eq!(grant, Some(2), "order base covers the delivered message");
        assert_eq!(g.view().members.len(), 3);
    }

    #[test]
    fn repeated_join_req_resends_the_stored_grant() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        remove_node_2(&mut rt, &mut g);
        let req = Envelope { sender: NodeId(2), view: 0, msg: Message::JoinReq };
        g.on_packet(&mut rt, req.encode());
        assert_eq!(g.view().id, 2);
        let grants_before =
            sent_msgs(&rt).iter().filter(|m| matches!(m, Message::JoinGrant { .. })).count();
        // The grant was lost: the joiner keeps retrying, and each retry
        // resends the stored grant + install instead of re-granting.
        g.on_packet(&mut rt, req.encode());
        let msgs = sent_msgs(&rt);
        let grants = msgs.iter().filter(|m| matches!(m, Message::JoinGrant { .. })).count();
        assert_eq!(grants, grants_before + 1, "stored grant resent");
        assert_eq!(g.view().id, 2, "no second view change");
        let ups = g.drain_upcalls();
        assert_eq!(
            ups.iter().filter(|u| matches!(u, Upcall::ServeJoin { .. })).count(),
            1,
            "transfer served once: {ups:?}"
        );
    }

    #[test]
    fn joiner_adopts_the_granted_baselines() {
        let mut rt = MockRt::default();
        let mut g = Gcs::rejoin(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        assert!(g.is_joining());
        assert!(
            sent_msgs(&rt).iter().any(|m| matches!(m, Message::JoinReq)),
            "rejoiner announces itself"
        );
        assert!(g.drain_upcalls().is_empty(), "no view reported while joining");
        // Deaf to regular traffic while joining.
        g.on_packet(&mut rt, app_fragment(NodeId(1), 1, b"early"));
        assert_eq!(g.metrics().frags_received, 0);

        let grant = Envelope {
            sender: NodeId(1),
            view: 3,
            msg: Message::JoinGrant {
                new_view: 4,
                members: NodeSet::first_n(3),
                cut: vec![5, 7, 4],
                order_base: 9,
                skipped: vec![11],
                sequencer: NodeId(1),
            },
        };
        g.on_packet(&mut rt, grant.encode());
        assert!(!g.is_joining());
        assert_eq!(g.view(), View { id: 4, members: NodeSet::first_n(3) });
        assert_eq!(g.sequencer(), Some(NodeId(1)), "adopts the sticky sequencer");
        assert_eq!(g.to.next_deliver, 9);
        assert_eq!(g.send.next_frag, 5, "own stream resumes past the cut");
        assert_eq!(g.recv[0].contiguous, 5);
        assert_eq!(g.recv[1].contiguous, 7);
        let ups = g.drain_upcalls();
        assert_eq!(
            ups,
            vec![
                Upcall::ViewChange(View { id: 4, members: NodeSet::first_n(3) }),
                Upcall::Rejoined
            ]
        );
        // A duplicate grant is ignored.
        let dup = Envelope {
            sender: NodeId(1),
            view: 4,
            msg: Message::JoinGrant {
                new_view: 5,
                members: NodeSet::first_n(3),
                cut: vec![0, 0, 0],
                order_base: 1,
                skipped: Vec::new(),
                sequencer: NodeId(1),
            },
        };
        g.on_packet(&mut rt, dup.encode());
        assert_eq!(g.view().id, 4, "duplicate grant ignored");
        // Post-rejoin traffic flows: node 1's next fragment (8) continues
        // its stream, and the skipped orphan is honoured.
        g.on_packet(&mut rt, app_fragment(NodeId(1), 8, b"txn"));
        let ann = Envelope {
            sender: NodeId(1),
            view: 4,
            msg: Message::Data {
                seq: 9,
                total_frags: 1,
                frag_idx: 0,
                kind: PayloadKind::App,
                ann: vec![
                    SeqAssign { sender: NodeId(1), msg_seq: 8, global_seq: 9 },
                    SeqAssign { sender: NodeId(1), msg_seq: 9, global_seq: 10 },
                ],
                votes: Vec::new(),
                payload: Bytes::from_static(b"txn2"),
                retrans: false,
            },
        };
        g.on_packet(&mut rt, ann.encode());
        let delivered: Vec<u64> = g
            .drain_upcalls()
            .into_iter()
            .filter_map(|u| match u {
                Upcall::Deliver { global_seq, .. } => Some(global_seq),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![9, 10], "delivery resumes from the order base");
        assert_eq!(g.to.next_deliver, 12, "skipped orphan 11 deterministically jumped");
    }

    #[test]
    fn rejoined_dedicated_sequencer_does_not_reclaim_the_role() {
        let mut cfg = fixed_cfg(3, Duration::from_millis(5));
        cfg.dedicated_sequencer = Some(NodeId(2));
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), cfg);
        g.on_start(&mut rt);
        assert_eq!(g.sequencer(), Some(NodeId(2)), "dedicated sequencer honoured");
        remove_node_2(&mut rt, &mut g);
        assert_eq!(g.sequencer(), Some(NodeId(0)), "failover to the lowest member");
        let req = Envelope { sender: NodeId(2), view: 0, msg: Message::JoinReq };
        g.on_packet(&mut rt, req.encode());
        assert_eq!(g.view().members.len(), 3);
        assert_eq!(g.sequencer(), Some(NodeId(0)), "rejoiner does not reclaim mid-view");
    }

    fn vote_upcalls(ups: &[Upcall]) -> Vec<(NodeId, WireVote)> {
        ups.iter()
            .filter_map(|u| match u {
                Upcall::Vote { voter, vote } => Some((*voter, *vote)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn cast_vote_loops_back_and_flushes_standalone() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        g.cast_vote(&mut rt, 1, 7, None);
        g.cast_vote(&mut rt, 2, 3, Some(41));
        let ups = g.drain_upcalls();
        let votes = vote_upcalls(&ups);
        assert_eq!(votes.len(), 2, "both verdicts looped back: {ups:?}");
        assert_eq!(votes[0].0, NodeId(0));
        assert_eq!(votes[0].1, WireVote { seq: 1, origin: 1, txn: 7, conflict: None });
        assert_eq!(votes[1].1, WireVote { seq: 2, origin: 2, txn: 3, conflict: Some(41) });
        // Idle sender: each cast flushed immediately as a standalone frame.
        let wire: Vec<_> = sent_msgs(&rt)
            .into_iter()
            .filter_map(|m| match m {
                Message::Vote { base, votes } => Some((base, votes)),
                _ => None,
            })
            .collect();
        assert_eq!(wire.len(), 2, "one Vote frame per cast at an idle sender");
        assert_eq!(wire[0].0, 1, "nothing GC'd: base is the stream start");
        assert_eq!(g.metrics().votes_sent, 2);
        assert_eq!(g.metrics().votes_piggybacked, 0);
        assert_eq!(g.votes.outbox.len(), 2, "retained until every peer acks");
    }

    #[test]
    fn received_votes_surface_in_stream_order_and_are_acked() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        let v1 = WireVote { seq: 1, origin: 1, txn: 1, conflict: None };
        let v2 = WireVote { seq: 2, origin: 1, txn: 2, conflict: Some(9) };
        // Seq 2 arrives first: buffered, not surfaced.
        let early = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::Vote { base: 1, votes: vec![v2] },
        };
        g.on_packet(&mut rt, early.encode());
        assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "gap holds the stream");
        // Seq 1 closes the gap: both surface, in cast order.
        let fill = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::Vote { base: 1, votes: vec![v1] },
        };
        g.on_packet(&mut rt, fill.encode());
        let votes = vote_upcalls(&g.drain_upcalls());
        assert_eq!(votes, vec![(NodeId(1), v1), (NodeId(1), v2)]);
        assert_eq!(g.metrics().votes_received, 2);
        // A duplicate is dropped, and every frame is answered with the
        // cumulative ack.
        g.on_packet(&mut rt, fill.encode());
        assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "duplicate dropped");
        let acks: Vec<_> = sent_msgs(&rt)
            .into_iter()
            .filter_map(|m| match m {
                Message::VoteAck { up_to } => Some(up_to),
                _ => None,
            })
            .collect();
        assert_eq!(acks, vec![0, 2, 2], "cumulative ack after each frame");
    }

    #[test]
    fn votes_piggyback_on_outgoing_fragment_slack() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(2, Duration::from_millis(10)));
        g.on_start(&mut rt);
        // Seed pending votes directly (as if cast while traffic was queued).
        for seq in 1..=3u64 {
            let v = WireVote { seq, origin: 0, txn: seq, conflict: None };
            g.votes.outbox.insert(seq, v);
            g.votes.pending.push(v);
        }
        g.votes.next_seq = 4;
        g.broadcast(&mut rt, Bytes::from_static(b"txn"));
        let m = g.metrics();
        assert_eq!(m.votes_piggybacked, 3, "all three rode the fragment slack");
        assert_eq!(m.votes_sent, 3);
        let carried = sent_msgs(&rt)
            .into_iter()
            .any(|m| matches!(m, Message::Data { votes, .. } if votes.len() == 3));
        assert!(carried, "outgoing fragment carries the votes");
        assert!(g.votes.pending.is_empty());
        // No slack, no piggyback: a full fragment defers to the heartbeat.
        let v = WireVote { seq: 4, origin: 0, txn: 4, conflict: None };
        g.votes.outbox.insert(4, v);
        g.votes.pending.push(v);
        g.votes.next_seq = 5;
        let fp = g.cfg.frag_payload();
        g.broadcast(&mut rt, Bytes::from(vec![0u8; fp]));
        assert_eq!(g.metrics().votes_piggybacked, 3, "no room on a full fragment");
        assert_eq!(g.votes.pending.len(), 1);
        g.on_timer(&mut rt, TimerKind::Heartbeat);
        assert!(g.votes.pending.is_empty(), "heartbeat flushed the straggler");
        assert_eq!(g.metrics().votes_sent, 4);
    }

    #[test]
    fn unacked_votes_resend_until_acked_then_gc() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        g.cast_vote(&mut rt, 0, 1, None);
        assert_eq!(g.votes.outbox.len(), 1);
        g.on_timer(&mut rt, TimerKind::Heartbeat);
        assert_eq!(g.metrics().vote_resends, 1, "unacked vote retransmitted");
        // One peer acks: still gated by the other.
        let ack1 = Envelope { sender: NodeId(1), view: 0, msg: Message::VoteAck { up_to: 1 } };
        g.on_packet(&mut rt, ack1.encode());
        assert_eq!(g.votes.outbox.len(), 1, "slowest view member gates GC");
        let ack2 = Envelope { sender: NodeId(2), view: 0, msg: Message::VoteAck { up_to: 1 } };
        g.on_packet(&mut rt, ack2.encode());
        assert!(g.votes.outbox.is_empty(), "acked by all: GC'd");
        let before = g.metrics().vote_resends;
        g.on_timer(&mut rt, TimerKind::Heartbeat);
        assert_eq!(g.metrics().vote_resends, before, "nothing left to resend");
    }

    #[test]
    fn vote_frames_respect_the_packet_size_cap() {
        // A burst of votes cast while application traffic was queued
        // flushes at the next heartbeat; both that flush and the later
        // retransmissions must split into frames within `max_packet`. The
        // network drops oversized datagrams, so an oversized flush loses
        // the whole burst — and an oversized *retransmission* is dropped
        // on every heartbeat, pinning the receivers' stream gap open
        // forever and wedging every vote round behind it.
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        for seq in 1..=300u64 {
            let v = WireVote { seq, origin: 0, txn: seq, conflict: None };
            g.votes.outbox.insert(seq, v);
            g.votes.pending.push(v);
        }
        g.votes.next_seq = 301;
        rt.sent.clear();
        g.on_timer(&mut rt, TimerKind::Heartbeat);
        assert!(g.votes.pending.is_empty(), "heartbeat flushed the burst");
        let flushed: usize = sent_msgs(&rt)
            .into_iter()
            .filter_map(|m| match m {
                Message::Vote { votes, .. } => Some(votes.len()),
                _ => None,
            })
            .sum();
        assert_eq!(flushed, 300, "every vote of the burst went out");
        for raw in &rt.sent {
            assert!(raw.len() <= g.cfg.max_packet, "{} > max_packet", raw.len());
        }
        // Still unacked: the next heartbeat retransmits a bounded suffix,
        // again in frames the network will actually deliver.
        rt.sent.clear();
        g.on_timer(&mut rt, TimerKind::Heartbeat);
        assert_eq!(g.metrics().vote_resends, 256, "resend budget per beat");
        for raw in &rt.sent {
            assert!(raw.len() <= g.cfg.max_packet, "{} > max_packet", raw.len());
        }
    }

    #[test]
    fn view_change_drops_the_dead_receiver_from_vote_gc() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        g.cast_vote(&mut rt, 0, 1, None);
        // Node 1 acks; node 2 crashes without acking.
        let ack1 = Envelope { sender: NodeId(1), view: 0, msg: Message::VoteAck { up_to: 1 } };
        g.on_packet(&mut rt, ack1.encode());
        assert_eq!(g.votes.outbox.len(), 1, "dead receiver still gates GC");
        remove_node_2(&mut rt, &mut g);
        assert!(g.votes.outbox.is_empty(), "install re-evaluates GC against the new view");
    }

    #[test]
    fn vote_base_jump_skips_a_rejoiners_pre_crash_stream() {
        let mut rt = MockRt::default();
        let mut g = Gcs::new(NodeId(0), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        // A voter whose votes 1..=4 were GC'd before we rejoined announces
        // base 5: we adopt it rather than waiting forever for 1..=4.
        let v5 = WireVote { seq: 5, origin: 1, txn: 9, conflict: None };
        let frame = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::Vote { base: 5, votes: vec![v5] },
        };
        g.on_packet(&mut rt, frame.encode());
        let votes = vote_upcalls(&g.drain_upcalls());
        assert_eq!(votes, vec![(NodeId(1), v5)], "stream resumes at the base");
        // A straggler below the base is a duplicate of transferred state.
        let v4 = WireVote { seq: 4, origin: 1, txn: 8, conflict: None };
        let late = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::Vote { base: 5, votes: vec![v4] },
        };
        g.on_packet(&mut rt, late.encode());
        assert!(vote_upcalls(&g.drain_upcalls()).is_empty());
        assert_eq!(g.metrics().votes_received, 1);
    }

    #[test]
    fn rejoining_and_halted_nodes_do_not_vote() {
        let mut rt = MockRt::default();
        let mut g = Gcs::rejoin(NodeId(2), fixed_cfg(3, Duration::from_millis(5)));
        g.on_start(&mut rt);
        g.cast_vote(&mut rt, 2, 1, None);
        assert!(vote_upcalls(&g.drain_upcalls()).is_empty(), "joiner casts nothing");
        assert_eq!(g.metrics().votes_sent, 0);
        // A halted node neither casts nor processes votes.
        let mut h = Gcs::new(NodeId(0), fixed_cfg(4, Duration::from_millis(1)));
        h.on_start(&mut rt);
        let members: NodeSet = [NodeId(1), NodeId(2)].into_iter().collect();
        let req = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::FlushReq { new_view: 1, members },
        };
        h.on_packet(&mut rt, req.encode());
        assert!(h.is_halted());
        h.drain_upcalls();
        h.cast_vote(&mut rt, 0, 1, None);
        let frame = Envelope {
            sender: NodeId(1),
            view: 0,
            msg: Message::Vote {
                base: 1,
                votes: vec![WireVote { seq: 1, origin: 1, txn: 1, conflict: None }],
            },
        };
        h.on_packet(&mut rt, frame.encode());
        assert!(vote_upcalls(&h.drain_upcalls()).is_empty(), "halted node is silent");
    }
}
