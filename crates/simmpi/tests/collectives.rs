//! Collective operation tests across a range of communicator sizes
//! (including non-powers of two).

use simmpi::{run_cluster, ClusterConfig};

fn sizes() -> Vec<usize> {
    vec![1, 2, 3, 4, 5, 7, 8, 12, 16]
}

#[test]
fn barrier_completes_for_all_sizes() {
    for n in sizes() {
        let report = run_cluster(&ClusterConfig::ideal(n), |proc| {
            let world = proc.world();
            world.barrier().unwrap();
            world.barrier().unwrap();
            true
        });
        assert!(report.unwrap_results().into_iter().all(|x| x));
    }
}

#[test]
fn allreduce_sum_and_max() {
    for n in sizes() {
        let report = run_cluster(&ClusterConfig::ideal(n), |proc| {
            let world = proc.world();
            let sum = world.allreduce_sum_f64(world.rank() as f64 + 1.0).unwrap();
            let max = world.allreduce_max_f64(world.rank() as f64).unwrap();
            let counts = world.allreduce(&[2u64], |a, b| a + b).unwrap()[0];
            (sum, max, counts)
        });
        let expected_sum: f64 = (1..=n).map(|r| r as f64).sum();
        for (sum, max, counts) in report.unwrap_results() {
            assert_eq!(sum, expected_sum, "n={n}");
            assert_eq!(max, (n - 1) as f64);
            assert_eq!(counts, 2 * n as u64);
        }
    }
}

#[test]
fn allreduce_vector_elementwise() {
    let report = run_cluster(&ClusterConfig::ideal(5), |proc| {
        let world = proc.world();
        let mine = vec![world.rank() as i64, 10 * world.rank() as i64];
        world.allreduce(&mine, |a, b| a + b).unwrap()
    });
    for v in report.unwrap_results() {
        assert_eq!(v, vec![10, 100]);
    }
}

#[test]
fn split_partitions_communicator() {
    let report = run_cluster(&ClusterConfig::ideal(8), |proc| {
        let world = proc.world();
        // Even/odd split; key preserves world order.
        let sub = world.split_by(|r| ((r % 2) as u64, r as u64)).unwrap();
        let sum_in_sub = sub.allreduce_sum_f64(world.rank() as f64).unwrap();
        (sub.size(), sub.rank(), sum_in_sub)
    });
    for (rank, (size, sub_rank, sum)) in report.unwrap_results().into_iter().enumerate() {
        assert_eq!(size, 4);
        assert_eq!(sub_rank, rank / 2);
        let expected: f64 = if rank % 2 == 0 {
            0.0 + 2.0 + 4.0 + 6.0
        } else {
            1.0 + 3.0 + 5.0 + 7.0
        };
        assert_eq!(sum, expected);
    }
}

#[test]
fn split_gives_independent_matching_context() {
    let report = run_cluster(&ClusterConfig::ideal(2), |proc| {
        let world = proc.world();
        // A one-color split: the same group in a fresh matching context.
        let dup = world.split_by(|r| (0, r as u64)).unwrap();
        assert_eq!((dup.size(), dup.rank()), (world.size(), world.rank()));
        if world.rank() == 0 {
            // Same destination and tag, different communicators.
            world.send(&[1i32], 1, 5).unwrap();
            dup.send(&[2i32], 1, 5).unwrap();
            0
        } else {
            // Receive on the duplicate first: the message sent on `world`
            // must not match.
            let from_dup = dup.recv::<i32>(0, 5).unwrap()[0];
            let from_world = world.recv::<i32>(0, 5).unwrap()[0];
            assert_eq!((from_dup, from_world), (2, 1));
            from_dup + from_world
        }
    });
    assert_eq!(report.unwrap_results()[1], 3);
}

#[test]
fn collectives_on_subcommunicators_do_not_interfere() {
    let report = run_cluster(&ClusterConfig::ideal(6), |proc| {
        let world = proc.world();
        let sub = world.split_by(|r| ((r % 3) as u64, r as u64)).unwrap();
        // Run a collective on the sub-communicator and on the world
        // communicator back to back.
        let s1 = sub.allreduce_sum_f64(1.0).unwrap();
        let s2 = world.allreduce_sum_f64(1.0).unwrap();
        (s1, s2)
    });
    for (s1, s2) in report.unwrap_results() {
        assert_eq!(s1, 2.0);
        assert_eq!(s2, 6.0);
    }
}

#[test]
fn virtual_time_of_allreduce_grows_with_message_size() {
    // With a realistic network and ideal compute, reducing a large vector
    // must take longer than reducing a scalar.
    let config = ClusterConfig::new(4)
        .with_machine(simcluster::MachineModel::ideal_compute_ib20g())
        .with_topology(simcluster::Topology::one_per_node(4));
    let report = run_cluster(&config, |proc| {
        let world = proc.world();
        let t0 = proc.now();
        let _ = world.allreduce_sum_f64(1.0).unwrap();
        let t1 = proc.now();
        let big = vec![1.0f64; 1 << 16];
        let _ = world.allreduce(&big, |a, b| a + b).unwrap();
        let t2 = proc.now();
        ((t1 - t0).as_secs(), (t2 - t1).as_secs())
    });
    for (small, large) in report.unwrap_results() {
        assert!(large > small * 5.0, "large={large} small={small}");
    }
}
