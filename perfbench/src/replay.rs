//! Layer replays: timed calls into one layer's public API at a fixed depth,
//! fed with requests from the workload's own TPC-C generator (same client
//! count, same seed as the cluster run). Each replay runs its input twice,
//! once timed and once untimed on a fresh copy of the state, and fails if
//! the two outcome streams differ.

use bytes::Bytes;
use dbsm_cert::{marshal, CertBackend, CertRequest, IndexedCertifier, Outcome, SiteId, TupleId};
use dbsm_core::ExperimentConfig;
use dbsm_db::{Acquire, CcPolicy, LockTable, OwnerKind, TxnId};
use dbsm_gcs::{testkit::TestNet, GcsConfig, NodeId};
use dbsm_sim::derive_seed;
use dbsm_tpcc::{TpccConfig, TpccGen};
use std::collections::{BTreeSet, VecDeque};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Certifications timed by the certification replay.
const CERT_OPS: usize = 1_000;
/// Committed transactions timed by the lock replay.
const LOCK_OPS: usize = 400;
/// Messages timed by the group-communication replay.
const GCS_MSGS: usize = 600;

/// `n` update requests as the cluster would multicast them: the workload's
/// generator, clients taken round-robin, each request tagged with the site
/// its client attaches to under full replication and that site's next
/// transaction number. `start_seq` is left 0 for the replay to set.
pub fn update_requests(cfg: &ExperimentConfig, n: usize) -> Vec<CertRequest> {
    let mut tpcc = TpccConfig::new(cfg.clients);
    tpcc.think_mean = cfg.think_mean;
    tpcc.seed = derive_seed(cfg.seed, "tpcc");
    let mut gen = TpccGen::new(tpcc);
    let mut next_txn = vec![0u64; cfg.sites];
    let mut out = Vec::with_capacity(n);
    let mut client = 0usize;
    while out.len() < n {
        let req = gen.next_request(client);
        let site = client % cfg.sites;
        client = (client + 1) % cfg.clients;
        if req.spec.read_only {
            continue;
        }
        next_txn[site] += 1;
        let mut read_set = req.spec.read_set;
        read_set.upgrade_large_tables(cfg.table_lock_threshold);
        out.push(CertRequest {
            site: SiteId(site as u16),
            txn: next_txn[site],
            start_seq: 0,
            read_set,
            write_set: req.spec.write_set,
            write_bytes: req.spec.write_bytes,
        });
    }
    out
}

/// What the certification replay measured.
pub struct CertReplay {
    /// Wall microseconds per `CertBackend::certify`.
    pub certify_us: f64,
    /// Index probes per certification.
    pub probes_per_cert: f64,
}

/// Times `CertBackend::certify` on a `clone_box()` of an `IndexedCertifier`
/// pre-filled with `history_window` committed write-sets. After each commit
/// the copy is garbage-collected back to that depth outside the timed
/// region, so the history never grows while timing. `lag` sets how many of
/// the latest commits each request counts as concurrent.
///
/// # Errors
///
/// Returns a message if the timed and untimed outcome streams differ.
pub fn certify(cfg: &ExperimentConfig, lag: u64) -> Result<CertReplay, String> {
    let depth = cfg.history_window;
    let mut reqs = update_requests(cfg, depth as usize + CERT_OPS);
    let mut base = IndexedCertifier::new();
    let (fill, probe) = reqs.split_at_mut(depth as usize);
    let probe = &*probe;
    for req in fill {
        req.start_seq = base.last_committed();
        let (outcome, _) = base.certify(req).map_err(|e| format!("fill: {e:?}"))?;
        assert!(outcome.is_commit(), "a request with no concurrent commits commits");
    }
    let lag = lag.min(depth);
    let pass = |timed: bool| -> Result<(Vec<Outcome>, Duration, usize), String> {
        let mut cert = base.clone_box();
        let mut outcomes = Vec::with_capacity(probe.len());
        let mut busy = Duration::ZERO;
        let mut probes = 0;
        for req in probe {
            let mut req = req.clone();
            req.start_seq = cert.last_committed() - lag;
            let start = timed.then(Instant::now);
            let res = black_box(cert.certify(black_box(&req)));
            if let Some(start) = start {
                busy += start.elapsed();
            }
            let (outcome, work) = res.map_err(|e| format!("certify: {e:?}"))?;
            cert.gc(cert.last_committed().saturating_sub(depth));
            probes += work.probes;
            outcomes.push(outcome);
        }
        Ok((outcomes, busy, probes))
    };
    let (timed, busy, probes) = pass(true)?;
    let (fresh, _, _) = pass(false)?;
    if timed != fresh {
        return Err("certification replay: timed and fresh outcome streams differ".into());
    }
    Ok(CertReplay {
        certify_us: busy.as_secs_f64() * 1e6 / CERT_OPS as f64,
        probes_per_cert: probes as f64 / CERT_OPS as f64,
    })
}

/// One step's record in the lock replay's outcome stream.
#[derive(Debug, PartialEq, Eq)]
enum LockEvent {
    Acquired(TxnId, bool),
    Released { committed: TxnId, granted: Vec<TxnId>, aborted: Vec<TxnId> },
}

/// The lock replay's state: a table with `open` transactions holding or
/// waiting for their write locks.
struct LockPopulation {
    table: LockTable,
    holders: VecDeque<TxnId>,
    waiters: BTreeSet<TxnId>,
    next: usize,
}

impl LockPopulation {
    fn refill(&mut self, open: usize, sets: &[Vec<TupleId>], log: &mut Vec<LockEvent>) {
        while self.holders.len() + self.waiters.len() < open {
            let txn = TxnId(self.next as u64);
            let set = sets[self.next % sets.len()].clone();
            self.next += 1;
            let granted = match self.table.acquire(txn, set, OwnerKind::LocalAbortable) {
                Acquire::Granted => true,
                Acquire::Queued => false,
                Acquire::Preempt(_) => unreachable!("local transactions never preempt"),
            };
            if granted {
                self.holders.push_back(txn);
            } else {
                self.waiters.insert(txn);
            }
            log.push(LockEvent::Acquired(txn, granted));
        }
    }

    /// Commits the oldest holder and applies the policy's effects.
    fn commit_oldest(&mut self, log: &mut Vec<LockEvent>) {
        let txn = self.holders.pop_front().expect("a full population has a holder");
        let effects = self.table.release(txn, true);
        for t in &effects.aborted {
            self.waiters.remove(t);
        }
        for t in &effects.granted {
            self.waiters.remove(t);
            self.holders.push_back(*t);
        }
        log.push(LockEvent::Released {
            committed: txn,
            granted: effects.granted,
            aborted: effects.aborted,
        });
    }
}

/// Times `LockTable::acquire` / `release` under the paper's multi-version
/// policy with as many open transactions as the workload has clients per
/// site. Each step commits the oldest lock holder, which aborts the waiters
/// on its rows and grants those it unblocks, then opens new transactions
/// with TPC-C write sets until the population is full again. Filling the
/// table the first time is not timed.
///
/// Returns wall microseconds per committed transaction.
///
/// # Errors
///
/// Returns a message if the timed and untimed outcome streams differ.
pub fn lock_table(cfg: &ExperimentConfig) -> Result<f64, String> {
    let open = cfg.clients.div_ceil(cfg.sites);
    let sets: Vec<Vec<TupleId>> = update_requests(cfg, open + 4 * LOCK_OPS)
        .into_iter()
        .map(|r| r.write_set.ids().to_vec())
        .filter(|s| !s.is_empty())
        .collect();
    let pass = |timed: bool| -> (Vec<LockEvent>, Duration) {
        let mut pop = LockPopulation {
            table: LockTable::new(CcPolicy::MultiVersion),
            holders: VecDeque::new(),
            waiters: BTreeSet::new(),
            next: 0,
        };
        let mut log = Vec::new();
        pop.refill(open, &sets, &mut log);
        let start = Instant::now();
        for _ in 0..LOCK_OPS {
            pop.commit_oldest(&mut log);
            pop.refill(open, &sets, &mut log);
        }
        let busy = if timed { start.elapsed() } else { Duration::ZERO };
        (log, busy)
    };
    let (timed, busy) = pass(true);
    let (fresh, _) = pass(false);
    if timed != fresh {
        return Err("lock replay: timed and fresh outcome streams differ".into());
    }
    Ok(busy.as_secs_f64() * 1e6 / LOCK_OPS as f64)
}

/// `(origin, global sequence number, payload)` in delivery order.
type Deliveries = Vec<(NodeId, u64, Bytes)>;

/// Times `testkit::TestNet::broadcast` and the protocol work to deliver it
/// across the workload's site count, with marshalled TPC-C requests as
/// payloads. Messages go out one round at a time, one per site, and each
/// round is delivered before the next starts, so the number in flight stays
/// fixed.
///
/// Returns wall microseconds per message delivered everywhere.
///
/// # Errors
///
/// Returns a message if a node misses a message or the timed and untimed
/// delivery streams differ.
pub fn broadcast(cfg: &ExperimentConfig) -> Result<f64, String> {
    let sites = cfg.sites;
    let payloads: Vec<Bytes> = update_requests(cfg, GCS_MSGS).iter().map(marshal).collect();
    let round = Duration::from_millis(20);
    let pass = |timed: bool| -> Result<(Deliveries, Duration), String> {
        let mut net = TestNet::new(GcsConfig::lan(sites));
        let start = Instant::now();
        for (r, chunk) in payloads.chunks(sites).enumerate() {
            for (i, p) in chunk.iter().enumerate() {
                net.broadcast(NodeId(i as u16), p.clone());
            }
            net.run_for(round);
            // The untimed pass checks that every round was delivered within
            // its interval; the timed pass matches it message for message.
            let sent = r * sites + chunk.len();
            if !timed && net.deliveries_seq(NodeId(0)).len() != sent {
                return Err(format!("gcs replay: round {r} was not delivered within {round:?}"));
            }
        }
        let busy = if timed { start.elapsed() } else { Duration::ZERO };
        let order = net.deliveries_seq(NodeId(0));
        for node in 0..sites {
            let got = net.deliveries_seq(NodeId(node as u16));
            if got.len() != payloads.len() || got != order {
                return Err(format!(
                    "gcs replay: node {node} delivered {} of {} messages in its own order",
                    got.len(),
                    payloads.len()
                ));
            }
        }
        Ok((order, busy))
    };
    let (timed, busy) = pass(true)?;
    let (fresh, _) = pass(false)?;
    if timed != fresh {
        return Err("gcs replay: timed and fresh delivery streams differ".into());
    }
    Ok(busy.as_secs_f64() * 1e6 / payloads.len() as f64)
}
