//! Criterion micro-benchmarks of the real-code hot paths the paper's
//! prototype optimizes (§3.3–3.4): certification, marshalling, read/write
//! set intersection, stability detection, the lock manager, the event
//! queue, TPC-C generation and the network pump.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dbsm_cert::{
    marshal, unmarshal, CertBackendKind, CertRequest, RwSet, SiteId, TableId, TupleId,
};
use dbsm_db::{Acquire, CcPolicy, LockTable, OwnerKind, TxnId};
use dbsm_gcs::{
    decode_seq_ann, encode_seq_ann, AnnBatchPolicy, NodeId, NodeSet, SeqAssign, Stability,
};
use dbsm_sim::Sim;
use dbsm_tpcc::{TpccConfig, TpccGen, TxnClass};
use std::cell::RefCell;
use std::hint::black_box;
use std::time::Duration;

fn rwset(table: u16, base: u64, n: u64) -> RwSet {
    (0..n).map(|i| TupleId::new(TableId(table), base + i * 2 + 1)).collect()
}

fn req(site: u16, txn: u64, start: u64, reads: RwSet, writes: RwSet) -> CertRequest {
    CertRequest {
        site: SiteId(site),
        txn,
        start_seq: start,
        read_set: reads,
        write_set: writes,
        write_bytes: 256,
    }
}

fn bench_certification(c: &mut Criterion) {
    // Same fill, same probe request, one bench id per backend: the linear
    // scan's cost grows with the conflict window (the benchmark's `history`
    // axis), the indexed backend's stays flat — compare
    // `certify_history_linear_1024` against `certify_history_indexed_1024`.
    // The history is filled once; every iteration certifies against a
    // fresh copy of it, so each one sees exactly `history` entries instead
    // of a window that grows with the sample count. The used copy is parked
    // and dropped in the next (untimed) setup, so freeing a deep history is
    // not billed to `certify`.
    let mut g = c.benchmark_group("certification");
    for kind in [CertBackendKind::Linear, CertBackendKind::Indexed] {
        for history in [16usize, 128, 1024] {
            g.bench_function(format!("certify_history_{}_{history}", kind.name()), |b| {
                let mut filled = kind.new_backend();
                for i in 0..history as u64 {
                    let r = req(0, i, i, RwSet::new(), rwset(1, i * 64, 8));
                    filled.certify(&r).expect("fill");
                }
                let probe = req(1, history as u64, 0, rwset(2, 0, 16), rwset(2, 1000, 4));
                let spent = RefCell::new(Vec::with_capacity(1));
                b.iter_batched(
                    || {
                        spent.borrow_mut().clear();
                        filled.clone_box()
                    },
                    |mut certifier| {
                        let out = certifier.certify(&probe).expect("certify");
                        spent.borrow_mut().push(certifier);
                        black_box(out)
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
    g.finish();
}

fn bench_intersection(c: &mut Criterion) {
    let mut g = c.benchmark_group("rwset_intersection");
    for n in [16usize, 256, 4096] {
        let a = rwset(1, 0, n as u64);
        let b_set = rwset(1, 2 * n as u64, n as u64);
        g.bench_function(format!("disjoint_{n}"), |bencher| {
            bencher.iter(|| black_box(a.intersects(&b_set)))
        });
    }
    g.finish();
}

fn bench_marshal(c: &mut Criterion) {
    let mut g = c.benchmark_group("marshal");
    for n in [8usize, 64, 256] {
        let r = req(3, 42, 1000, rwset(1, 0, n as u64), rwset(2, 0, (n / 2) as u64));
        g.bench_function(format!("roundtrip_{n}_ids"), |b| {
            b.iter(|| {
                let wire = marshal(&r);
                black_box(unmarshal(wire).expect("roundtrip"))
            })
        });
    }
    g.finish();
}

fn bench_stability(c: &mut Criterion) {
    c.bench_function("stability_gossip_round_6_nodes", |b| {
        let n = 6;
        let members = NodeSet::first_n(n);
        let received: Vec<Vec<u64>> = (0..n).map(|_| vec![1000; n]).collect();
        b.iter_batched(
            || (0..n).map(|i| Stability::new(NodeId(i as u16), n, members)).collect::<Vec<_>>(),
            |mut nodes| {
                let gossips: Vec<_> = nodes
                    .iter_mut()
                    .enumerate()
                    .map(|(i, s)| s.make_gossip(&received[i]))
                    .collect();
                for (i, node) in nodes.iter_mut().enumerate() {
                    for (j, g) in gossips.iter().enumerate() {
                        if i != j {
                            node.on_gossip(g, &received[i]);
                        }
                    }
                }
                black_box(nodes[0].stable()[0])
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_lock_table(c: &mut Criterion) {
    c.bench_function("lock_acquire_release_disjoint", |b| {
        let mut lt = LockTable::new(CcPolicy::MultiVersion);
        let mut k = 0u64;
        b.iter(|| {
            k += 1;
            let set: Vec<TupleId> =
                (0..8).map(|i| TupleId::new(TableId(1), k * 16 + i + 1)).collect();
            let t = TxnId(k);
            assert_eq!(lt.acquire(t, set, OwnerKind::LocalAbortable), Acquire::Granted);
            black_box(lt.release(t, true))
        })
    });
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("sim_schedule_run_1000", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..1000u64 {
                sim.schedule_at(dbsm_sim::SimTime::from_nanos(i * 7 % 997), || {});
            }
            sim.run();
            black_box(sim.events_executed())
        })
    });
}

fn bench_tpcc_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("tpcc");
    g.bench_function("next_request", |b| {
        let mut gen = TpccGen::new(TpccConfig::new(200));
        let mut client = 0usize;
        b.iter(|| {
            client = (client + 1) % 200;
            black_box(gen.next_request(client).spec.read_set.len())
        })
    });
    g.bench_function("neworder_only", |b| {
        let mut gen = TpccGen::new(TpccConfig::new(200));
        b.iter(|| black_box(gen.request_for(0, TxnClass::NewOrder).spec.write_set.len()))
    });
    g.finish();
}

fn bench_network_pump(c: &mut Criterion) {
    use bytes::Bytes;
    use dbsm_net::{Addr, Dest, NetworkBuilder, Port, SegmentConfig};
    c.bench_function("net_unicast_1000_packets", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let mut nb = NetworkBuilder::new(&sim);
            let lan = nb.lan(SegmentConfig::fast_ethernet());
            let h0 = nb.host(lan);
            let h1 = nb.host(lan);
            let net = nb.build();
            net.bind(Addr::new(h1, Port(9)), |_| {}).expect("bind");
            let payload = Bytes::from(vec![0u8; 512]);
            for _ in 0..1000 {
                net.send(
                    Addr::new(h0, Port(1)),
                    Dest::Unicast(Addr::new(h1, Port(9))),
                    payload.clone(),
                );
            }
            sim.run();
            black_box(net.stats().host(1).rx_packets)
        })
    });
}

fn bench_gcs_stack(c: &mut Criterion) {
    use bytes::Bytes;
    use dbsm_gcs::{testkit::TestNet, GcsConfig};
    c.bench_function("gcs_order_100_messages_3_nodes", |b| {
        b.iter(|| {
            let mut net = TestNet::new(GcsConfig::lan(3));
            for i in 0..100u64 {
                net.broadcast(NodeId((i % 3) as u16), Bytes::from(i.to_le_bytes().to_vec()));
            }
            net.run_for(Duration::from_secs(2));
            black_box(net.deliveries(NodeId(0)).len())
        })
    });
}

fn bench_announcement(c: &mut Criterion) {
    use bytes::Bytes;
    use dbsm_gcs::{testkit::TestNet, GcsConfig};
    // The two halves of the announcement hot path: the SeqAnn wire
    // encode/decode roundtrip as a function of batch size, and the full
    // assign→flush→deliver pipeline under each batching policy.
    let mut g = c.benchmark_group("announcement");
    for n in [1usize, 16, 256] {
        let assigns: Vec<SeqAssign> = (0..n as u64)
            .map(|i| SeqAssign {
                sender: NodeId((i % 6) as u16),
                msg_seq: i + 1,
                global_seq: i + 1,
            })
            .collect();
        g.bench_function(format!("encode_decode_{n}_assigns"), |b| {
            b.iter(|| black_box(decode_seq_ann(encode_seq_ann(&assigns)).expect("roundtrip")))
        });
    }
    for (name, policy) in [
        ("immediate", AnnBatchPolicy::Immediate),
        ("fixed_2ms", AnnBatchPolicy::Fixed(Duration::from_millis(2))),
        ("adaptive", AnnBatchPolicy::adaptive_lan()),
    ] {
        g.bench_function(format!("flush_100_messages_{name}"), |b| {
            b.iter(|| {
                let mut cfg = GcsConfig::lan(3);
                cfg.ann_policy = policy;
                let mut net = TestNet::new(cfg);
                for i in 0..100u64 {
                    net.broadcast(NodeId((i % 3) as u16), Bytes::from(i.to_le_bytes().to_vec()));
                }
                net.run_for(Duration::from_secs(2));
                black_box(net.deliveries(NodeId(0)).len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_certification,
    bench_intersection,
    bench_marshal,
    bench_stability,
    bench_lock_table,
    bench_event_queue,
    bench_tpcc_gen,
    bench_network_pump,
    bench_gcs_stack,
    bench_announcement,
);
criterion_main!(benches);
