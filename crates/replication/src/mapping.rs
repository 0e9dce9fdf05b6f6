//! Mapping between physical ranks and (logical rank, replica id) pairs.
//!
//! The convention matches the topology helper
//! `simcluster::Topology::replica_disjoint`: physical rank
//! `replica_id * num_logical + logical_rank`.  With a replication degree of
//! 2 (the degree the paper uses throughout), physical ranks `0..L` form
//! replica set 0 and ranks `L..2L` form replica set 1, and the two replicas
//! of any logical process land on different nodes.

use serde::{Deserialize, Serialize};

/// Mapping between physical and logical ranks for a given replication degree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaMapping {
    num_logical: usize,
    degree: usize,
}

impl ReplicaMapping {
    /// Creates a mapping for `num_logical` logical processes, each replicated
    /// `degree` times.
    ///
    /// # Panics
    /// Panics if either argument is zero.
    pub(crate) fn new(num_logical: usize, degree: usize) -> Self {
        assert!(num_logical > 0, "need at least one logical process");
        assert!(degree > 0, "replication degree must be at least 1");
        ReplicaMapping {
            num_logical,
            degree,
        }
    }

    /// Derives a mapping from the number of physical processes and the
    /// replication degree.
    ///
    /// # Panics
    /// Panics if the number of physical processes is not a multiple of the
    /// degree.
    pub(crate) fn from_physical(num_physical: usize, degree: usize) -> Self {
        assert!(degree > 0, "replication degree must be at least 1");
        assert!(
            num_physical.is_multiple_of(degree),
            "{num_physical} physical processes cannot be split into replicas of degree {degree}"
        );
        Self::new(num_physical / degree, degree)
    }

    /// Number of logical processes (MPI ranks seen by the application).
    pub(crate) fn num_logical(&self) -> usize {
        self.num_logical
    }

    /// Replication degree.
    pub(crate) fn degree(&self) -> usize {
        self.degree
    }

    /// Total number of physical processes.
    pub(crate) fn num_physical(&self) -> usize {
        self.num_logical * self.degree
    }

    /// Logical rank of a physical rank.
    pub(crate) fn logical_of(&self, physical: usize) -> usize {
        assert!(physical < self.num_physical(), "physical rank out of range");
        physical % self.num_logical
    }

    /// Replica id of a physical rank.
    pub(crate) fn replica_of(&self, physical: usize) -> usize {
        assert!(physical < self.num_physical(), "physical rank out of range");
        physical / self.num_logical
    }

    /// Physical rank hosting replica `replica` of logical process `logical`.
    pub(crate) fn physical_of(&self, logical: usize, replica: usize) -> usize {
        assert!(logical < self.num_logical, "logical rank out of range");
        assert!(replica < self.degree, "replica id out of range");
        replica * self.num_logical + logical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn degree_two_layout() {
        let m = ReplicaMapping::new(4, 2);
        assert_eq!(m.num_physical(), 8);
        assert_eq!(m.logical_of(0), 0);
        assert_eq!(m.replica_of(0), 0);
        assert_eq!(m.logical_of(5), 1);
        assert_eq!(m.replica_of(5), 1);
        assert_eq!(m.physical_of(1, 1), 5);
        assert_eq!(m.physical_of(2, 0), 2);
        assert_eq!(m.physical_of(2, 1), 6);
    }

    #[test]
    fn degree_one_is_identity() {
        let m = ReplicaMapping::new(3, 1);
        for p in 0..3 {
            assert_eq!(m.logical_of(p), p);
            assert_eq!(m.replica_of(p), 0);
            assert_eq!(m.physical_of(p, 0), p);
        }
    }

    #[test]
    fn from_physical_divides() {
        let m = ReplicaMapping::from_physical(12, 3);
        assert_eq!(m.num_logical(), 4);
        assert_eq!(m.degree(), 3);
    }

    #[test]
    #[should_panic]
    fn from_physical_rejects_non_multiple() {
        let _ = ReplicaMapping::from_physical(7, 2);
    }

    proptest! {
        #[test]
        fn round_trip_physical_logical(num_logical in 1usize..64, degree in 1usize..4, p in 0usize..256) {
            let m = ReplicaMapping::new(num_logical, degree);
            let p = p % m.num_physical();
            let logical = m.logical_of(p);
            let replica = m.replica_of(p);
            prop_assert!(logical < num_logical);
            prop_assert!(replica < degree);
            prop_assert_eq!(m.physical_of(logical, replica), p);
        }

        #[test]
        fn replica_sets_partition_physical_ranks(num_logical in 1usize..32, degree in 1usize..4) {
            let m = ReplicaMapping::new(num_logical, degree);
            let mut seen = vec![false; m.num_physical()];
            for logical in 0..num_logical {
                for p in (0..degree).map(|r| m.physical_of(logical, r)) {
                    prop_assert!(!seen[p], "physical rank {} assigned twice", p);
                    seen[p] = true;
                    prop_assert_eq!(m.logical_of(p), logical);
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }
    }
}
