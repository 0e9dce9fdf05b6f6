//! Integration tests for the active-replication substrate.

use replication::{ExecutionMode, FailureInjector, ProtocolPoint, ReplicatedComm, ReplicatedEnv};
use simmpi::{run_cluster, ClusterConfig};

#[test]
fn replica_and_logical_communicators_have_expected_shape() {
    let report = run_cluster(&ClusterConfig::ideal(8), |proc| {
        let rcomm = ReplicatedComm::new(proc.world(), 2).unwrap();
        (
            rcomm.num_logical(),
            rcomm.degree(),
            rcomm.logical_rank(),
            rcomm.replica_id(),
            rcomm.logical_comm().size(),
            rcomm.logical_comm().rank(),
            rcomm.replica_comm().size(),
            rcomm.replica_comm().rank(),
        )
    });
    for (rank, r) in report.unwrap_results().into_iter().enumerate() {
        let (num_logical, degree, logical, replica, lsize, lrank, rsize, rrank) = r;
        assert_eq!(num_logical, 4);
        assert_eq!(degree, 2);
        assert_eq!(logical, rank % 4);
        assert_eq!(replica, rank / 4);
        assert_eq!(lsize, 4);
        assert_eq!(lrank, logical);
        assert_eq!(rsize, 2);
        assert_eq!(rrank, replica);
    }
}

#[test]
fn degree_one_behaves_like_native_mpi() {
    let report = run_cluster(&ClusterConfig::ideal(3), |proc| {
        let rcomm = ReplicatedComm::new(proc.world(), 1).unwrap();
        assert_eq!(rcomm.num_logical(), 3);
        assert_eq!(rcomm.replica_id(), 0);
        rcomm.logical_allreduce_sum_f64(1.0).unwrap()
    });
    for v in report.unwrap_results() {
        assert_eq!(v, 3.0);
    }
}

#[test]
fn mirrored_logical_ring_exchange() {
    // Each logical process sends its logical rank to the next logical rank.
    // Both replica sets must observe the same values.
    let report = run_cluster(&ClusterConfig::ideal(8), |proc| {
        let rcomm = ReplicatedComm::new(proc.world(), 2).unwrap();
        let l = rcomm.logical_rank();
        let n = rcomm.num_logical();
        let next = (l + 1) % n;
        let prev = (l + n - 1) % n;
        rcomm.send_logical(&[l as f64], next, 11).unwrap();
        let got: Vec<f64> = rcomm.recv_logical(prev, 11).unwrap();
        got[0]
    });
    for (rank, v) in report.unwrap_results().into_iter().enumerate() {
        let logical = rank % 4;
        let prev = (logical + 3) % 4;
        assert_eq!(v, prev as f64);
    }
}

#[test]
fn logical_allreduce_agrees_across_replica_sets() {
    let report = run_cluster(&ClusterConfig::ideal(12), |proc| {
        let rcomm = ReplicatedComm::new(proc.world(), 2).unwrap();
        rcomm
            .logical_allreduce_sum_f64((rcomm.logical_rank() + 1) as f64)
            .unwrap()
    });
    // 6 logical processes: sum = 1+2+..+6 = 21, on every physical process.
    for v in report.unwrap_results() {
        assert_eq!(v, 21.0);
    }
}

#[test]
fn replica_channel_carries_updates() {
    // The intra-parallelization runtime ships task updates over the replica
    // communicator; check the two replicas of each logical process can talk.
    let report = run_cluster(&ClusterConfig::ideal(4), |proc| {
        let rcomm = ReplicatedComm::new(proc.world(), 2).unwrap();
        let rc = rcomm.replica_comm();
        let peer = 1 - rcomm.replica_id();
        rc.send(
            &[rcomm.logical_rank() as i64 * 100 + rcomm.replica_id() as i64],
            peer,
            3,
        )
        .unwrap();
        rc.recv::<i64>(peer, 3).unwrap()[0]
    });
    let results = report.unwrap_results();
    // Physical 0 (logical 0, replica 0) talks to physical 2 (logical 0, replica 1).
    assert_eq!(results[0], 1);
    assert_eq!(results[2], 0);
    assert_eq!(results[1], 101);
    assert_eq!(results[3], 100);
}

#[test]
fn failover_covers_orphaned_receiver_after_quiescent_failure() {
    // 2 logical processes, degree 2: physical 0,1 are replica set 0 and
    // physical 2,3 are replica set 1.  Physical 0 (replica 0 of logical 0)
    // crashes at a quiescent point; afterwards logical 0 -> logical 1
    // messages must still reach BOTH replicas of logical 1.
    let report = run_cluster(&ClusterConfig::ideal(4), |proc| {
        let injector = FailureInjector::none();
        injector.arm(0, ProtocolPoint::IterationStart { iteration: 1 });
        let env = ReplicatedEnv::new(
            proc.clone(),
            ExecutionMode::Replicated { degree: 2 },
            injector,
        )
        .unwrap();
        let rcomm = env.rcomm();
        let mut received = Vec::new();
        for iteration in 0..3u64 {
            if env.maybe_fail(ProtocolPoint::IterationStart {
                iteration: iteration as usize,
            }) {
                return received;
            }
            if env.logical_rank() == 0 {
                // After physical 0 crashes (iteration >= 1), only replica 1
                // of logical 0 (physical 2) keeps sending; it must cover for
                // the orphaned replica 0 of logical 1 (physical 1).
                rcomm.send_logical(&[iteration * 10], 1, 5).unwrap();
            } else {
                let v: Vec<u64> = rcomm.recv_logical(0, 5).unwrap();
                received.push(v[0]);
            }
        }
        received
    });
    // Physical 1 and physical 3 are the two replicas of logical 1; both must
    // have received all three messages despite the crash of physical 0.
    for rank in [1usize, 3] {
        let got = report.results[rank].as_ref().unwrap();
        assert_eq!(got, &vec![0, 10, 20], "physical rank {rank}");
    }
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].rank, 0);
}

#[test]
fn env_exposes_mode_and_ranks() {
    let report = run_cluster(&ClusterConfig::ideal(4), |proc| {
        let env = ReplicatedEnv::without_failures(proc, ExecutionMode::IntraParallel { degree: 2 })
            .unwrap();
        (
            env.mode().label(),
            env.logical_rank(),
            env.replica_id(),
            env.num_logical(),
            env.physical_rank(),
            env.is_failed(),
        )
    });
    for (rank, (label, logical, replica, num_logical, physical, failed)) in
        report.unwrap_results().into_iter().enumerate()
    {
        assert_eq!(label, "intra");
        assert_eq!(logical, rank % 2);
        assert_eq!(replica, rank / 2);
        assert_eq!(num_logical, 2);
        assert_eq!(physical, rank);
        assert!(!failed);
    }
}

#[test]
fn invalid_degree_is_rejected() {
    let report = run_cluster(&ClusterConfig::ideal(3), |proc| {
        ReplicatedComm::new(proc.world(), 2).is_err()
    });
    assert!(report.unwrap_results().into_iter().all(|x| x));
}
