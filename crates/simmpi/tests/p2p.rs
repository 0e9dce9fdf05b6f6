//! Point-to-point communication tests for the simulated MPI runtime.

use simcluster::{MachineModel, NetworkModel, Topology};
use simmpi::{run_cluster, ClusterConfig, MpiError};

#[test]
fn ping_pong_delivers_payload() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let world = proc.world();
        match world.rank() {
            0 => {
                world.send(&[1.0f64, 2.0, 3.0], 1, 7).unwrap();
                let back: Vec<f64> = world.recv(1, 8).unwrap();
                back
            }
            _ => {
                let data: Vec<f64> = world.recv(0, 7).unwrap();
                let doubled: Vec<f64> = data.iter().map(|x| x * 2.0).collect();
                world.send(&doubled, 0, 8).unwrap();
                doubled
            }
        }
    });
    let results = report.unwrap_results();
    assert_eq!(results[0], vec![2.0, 4.0, 6.0]);
}

#[test]
fn messages_are_non_overtaking_per_source_and_tag() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            for i in 0..32i32 {
                world.send(&[i], 1, 3).unwrap();
            }
            Vec::new()
        } else {
            let mut got = Vec::new();
            for _ in 0..32 {
                got.push(world.recv::<i32>(0, 3).unwrap()[0]);
            }
            got
        }
    });
    let results = report.unwrap_results();
    assert_eq!(results[1], (0..32).collect::<Vec<i32>>());
}

#[test]
fn tags_demultiplex_messages() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            world.send(&[10i32], 1, 1).unwrap();
            world.send(&[20i32], 1, 2).unwrap();
            0
        } else {
            // Receive in the opposite order of sending: tag matching must
            // pick the right message.
            let b = world.recv::<i32>(0, 2).unwrap()[0];
            let a = world.recv::<i32>(0, 1).unwrap()[0];
            assert_eq!((a, b), (10, 20));
            a + b
        }
    });
    assert_eq!(report.unwrap_results()[1], 30);
}

#[test]
fn isend_recv_waitall_round_trip() {
    let report = run_cluster(&ClusterConfig::ideal(3), |proc| {
        let world = proc.world();
        let rank = world.rank();
        // Everyone sends its rank to everyone else, non-blockingly, then
        // receives from everyone else before waiting for its sends.
        let peers: Vec<usize> = (0..world.size()).filter(|&p| p != rank).collect();
        let sends = peers
            .iter()
            .map(|&peer| world.isend_with_modeled_size(&[rank as u64], peer, 5, 8))
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        let received: u64 = peers
            .iter()
            .map(|&peer| world.recv::<u64>(peer, 5).unwrap()[0])
            .sum();
        world.waitall_send(sends).unwrap();
        received
    });
    let results = report.unwrap_results();
    // Each rank receives the sum of the other two ranks.
    assert_eq!(results[0], 1 + 2);
    assert_eq!(results[1], 2);
    assert_eq!(results[2], 1);
}

#[test]
fn invalid_rank_and_reserved_tag_are_rejected() {
    let report = run_cluster(&ClusterConfig::ideal(1), |proc| {
        let world = proc.world();
        let bad_rank = world.send(&[1.0f64], 5, 1).unwrap_err();
        let bad_tag = world.send(&[1.0f64], 0, simmpi::RESERVED_TAG_BASE + 1);
        (bad_rank, bad_tag.is_err())
    });
    let results = report.unwrap_results();
    assert!(matches!(
        results[0].0,
        MpiError::InvalidRank { rank: 5, size: 1 }
    ));
    assert!(results[0].1);
}

#[test]
fn receive_from_failed_rank_returns_error() {
    let report = run_cluster(&ClusterConfig::ideal(3), |proc| {
        let world = proc.world();
        match world.rank() {
            1 => {
                // Rank 1 crashes before sending anything.
                proc.fail_here();
                Err(MpiError::SelfFailed)
            }
            2 => {
                // Rank 2 waits for a message from rank 1 that never comes.
                world.recv::<f64>(1, 4).map(|_| ())
            }
            _ => Ok(()),
        }
    });
    assert_eq!(
        report.results[2].as_ref().unwrap().clone().unwrap_err(),
        MpiError::ProcessFailed { rank: 1 }
    );
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].rank, 1);
}

#[test]
fn message_sent_before_crash_is_still_delivered() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            world.send(&[3.25f64], 1, 2).unwrap();
            proc.fail_here();
            None
        } else {
            Some(world.recv::<f64>(0, 2).unwrap()[0])
        }
    });
    assert_eq!(report.results[1].as_ref().unwrap().unwrap(), 3.25);
}

#[test]
fn virtual_time_accounts_for_transfer_size() {
    // 1 MB over a 1 GB/s link with zero-cost compute: the receiver's clock
    // must show about 1 ms.
    let machine = MachineModel {
        inter_node: NetworkModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1e9,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        },
        ..MachineModel::ideal()
    };
    let config = ClusterConfig::new(2)
        .with_machine(machine)
        .with_topology(Topology::one_per_node(2));
    let report = run_cluster(&config, |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            let data = vec![0u8; 1_000_000];
            world.send(&data, 1, 1).unwrap();
        } else {
            let _ = world.recv::<u8>(0, 1).unwrap();
        }
        proc.now()
    });
    let times = report.unwrap_results();
    assert!(
        (times[1].as_secs() - 1e-3).abs() < 1e-6,
        "receiver time {} should be ~1ms",
        times[1]
    );
    // The sender only pays the (zero) overhead, not the serialization.
    assert!(times[0].as_secs() < 1e-6);
}

#[test]
fn modeled_size_overrides_payload_size_for_timing() {
    let machine = MachineModel {
        inter_node: NetworkModel {
            latency_s: 0.0,
            bandwidth_bytes_per_s: 1e6,
            send_overhead_s: 0.0,
            recv_overhead_s: 0.0,
        },
        ..MachineModel::ideal()
    };
    let config = ClusterConfig::new(2)
        .with_machine(machine)
        .with_topology(Topology::one_per_node(2));
    let report = run_cluster(&config, |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            // 8-byte real payload, but modeled as 1 MB.
            world
                .isend_with_modeled_size(&[1.0f64], 1, 1, 1_000_000)
                .unwrap();
            0.0
        } else {
            let v: Vec<f64> = world.recv(0, 1).unwrap();
            assert_eq!(v, vec![1.0]);
            proc.now().as_secs()
        }
    });
    let results = report.unwrap_results();
    assert!(
        (results[1] - 1.0).abs() < 1e-9,
        "modeled 1MB at 1MB/s should take ~1s, got {}",
        results[1]
    );
}

#[test]
fn intra_node_link_is_faster_than_inter_node() {
    let run = |same_node: bool| {
        let topology = if same_node {
            Topology::single_node(2)
        } else {
            Topology::one_per_node(2)
        };
        let config = ClusterConfig::new(2)
            .with_machine(MachineModel {
                compute: simcluster::ComputeModel::ideal(),
                ..MachineModel::grid5000_ib20g()
            })
            .with_topology(topology);
        let report = run_cluster(&config, |proc| {
            let world = proc.world();
            if world.rank() == 0 {
                world.send(&vec![0u8; 1 << 20], 1, 1).unwrap();
                0.0
            } else {
                let _ = world.recv::<u8>(0, 1).unwrap();
                proc.now().as_secs()
            }
        });
        report.unwrap_results()[1]
    };
    let intra = run(true);
    let inter = run(false);
    assert!(
        intra < inter,
        "intra-node transfer ({intra}) should beat inter-node ({inter})"
    );
}

#[test]
fn per_process_compute_charges_accumulate() {
    let report = run_cluster(&ClusterConfig::new(1), |proc| {
        proc.charge_compute(1.0e9, 0.0);
        proc.charge_compute(1.0e9, 0.0);
    });
    let (now, compute) = (
        report.procs[0].final_time.as_secs(),
        report.procs[0].compute_time.as_secs(),
    );
    assert!(compute > 0.0);
    assert!((now - compute).abs() < 1e-12);
}

/// No sender produces a framed message for a plain receive, or the reverse,
/// so either mismatch is a typed error rather than a silent re-framing.
#[test]
fn framing_mismatch_is_a_type_error() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let world = proc.world();
        if world.rank() == 0 {
            world.send(&[1u64, 2], 1, 1).unwrap();
            let body = simmpi::to_payload(&[3u64]);
            world.send_framed_multi(7, &body, &[1], 2, 16).unwrap();
            None
        } else {
            let plain_on_framed = world.recv_framed(0, 1).unwrap_err();
            let framed_on_plain = world.recv::<u64>(0, 2).unwrap_err();
            Some((plain_on_framed, framed_on_plain))
        }
    });
    let (plain_on_framed, framed_on_plain) = report.unwrap_results()[1].clone().unwrap();
    assert_eq!(
        plain_on_framed,
        MpiError::TypeMismatch {
            bytes: 16,
            elem_size: 8
        }
    );
    assert_eq!(
        framed_on_plain,
        MpiError::TypeMismatch {
            bytes: 16,
            elem_size: 8
        }
    );
}
