//! Physical process placement.
//!
//! The paper places the two replicas of a logical process on *different*
//! nodes (so that a node failure cannot kill both replicas) and fills each
//! 4-core node with 4 physical processes.  [`Topology`] captures the mapping
//! from physical rank to node, which the network layer uses to pick the
//! intra-node or inter-node link model, and which the replication layer uses
//! to validate replica placement.

/// Identifier of a compute node in the virtual cluster.
pub type NodeId = usize;

/// Placement of physical ranks onto nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The node of each rank, 4 bytes a rank: a million-rank run keeps one.
    placement: Vec<u32>,
}

/// A node id in the width [`Topology`] stores.
fn stored(node: NodeId) -> u32 {
    u32::try_from(node).expect("fewer than 2^32 nodes")
}

impl Topology {
    /// Block placement: rank `r` lives on node `r / cores_per_node`.  This is
    /// the standard "fill one node, move to the next" MPI mapping.
    pub fn block(num_procs: usize, cores_per_node: usize) -> Self {
        assert!(cores_per_node > 0, "cores_per_node must be positive");
        let placement = (0..num_procs).map(|r| stored(r / cores_per_node)).collect();
        Topology { placement }
    }

    /// Replica-aware placement used by the replication experiments: the
    /// physical ranks are interpreted as `replica_id * num_logical +
    /// logical_rank` and the two replica sets are placed on disjoint halves
    /// of the machine, so replicas of the same logical process never share a
    /// node (mirroring the paper's setup) while each half keeps the usual
    /// block placement.
    pub fn replica_disjoint(
        num_logical: usize,
        replication_degree: usize,
        cores_per_node: usize,
    ) -> Self {
        assert!(cores_per_node > 0, "cores_per_node must be positive");
        assert!(
            replication_degree > 0,
            "replication degree must be positive"
        );
        let nodes_per_replica_set = num_logical.div_ceil(cores_per_node);
        let mut placement = Vec::with_capacity(num_logical * replication_degree);
        for replica in 0..replication_degree {
            for logical in 0..num_logical {
                let node = replica * nodes_per_replica_set + logical / cores_per_node;
                placement.push(stored(node));
            }
        }
        Topology { placement }
    }

    /// Places every rank on its own node (no shared-memory neighbours).
    pub fn one_per_node(num_procs: usize) -> Self {
        Topology {
            placement: (0..num_procs).map(stored).collect(),
        }
    }

    /// Places every rank on a single node (pure shared-memory run).
    pub fn single_node(num_procs: usize) -> Self {
        Topology {
            placement: vec![0; num_procs],
        }
    }

    /// Number of physical ranks covered by this topology.
    pub fn num_procs(&self) -> usize {
        self.placement.len()
    }

    /// Number of distinct nodes in use.
    pub fn num_nodes(&self) -> usize {
        self.placement
            .iter()
            .copied()
            .max()
            .map_or(0, |m| m as NodeId + 1)
    }

    /// Node hosting physical rank `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn node_of(&self, rank: usize) -> NodeId {
        self.placement[rank] as NodeId
    }

    /// True if the two ranks are placed on the same node.
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.placement[a] == self.placement[b]
    }

    /// All ranks placed on `node`.
    pub fn ranks_on(&self, node: NodeId) -> Vec<usize> {
        self.placement
            .iter()
            .enumerate()
            .filter_map(|(r, &n)| (n as NodeId == node).then_some(r))
            .collect()
    }

    /// Number of ranks placed on each node, indexed by node, in one pass
    /// over the placement.  A node's population is the fair-share divisor
    /// of its network card ([`crate::Endpoint::new`]).
    pub fn node_populations(&self) -> Vec<usize> {
        let mut populations = vec![0; self.num_nodes()];
        for &node in &self.placement {
            populations[node as NodeId] += 1;
        }
        populations
    }

    /// Number of racks in use when racks group `nodes_per_rack` consecutive
    /// nodes (rack r hosts nodes `r*n .. (r+1)*n`) — the correlated
    /// failure-domain view of the machine.
    ///
    /// # Panics
    /// Panics if `nodes_per_rack` is zero.
    pub fn num_racks(&self, nodes_per_rack: usize) -> usize {
        assert!(nodes_per_rack > 0, "nodes_per_rack must be positive");
        self.num_nodes().div_ceil(nodes_per_rack)
    }

    /// All ranks placed on any node of `rack`, ascending.
    ///
    /// # Panics
    /// Panics if `nodes_per_rack` is zero.
    pub fn ranks_on_rack(&self, rack: usize, nodes_per_rack: usize) -> Vec<usize> {
        assert!(nodes_per_rack > 0, "nodes_per_rack must be positive");
        self.placement
            .iter()
            .enumerate()
            .filter_map(|(r, &n)| (n as NodeId / nodes_per_rack == rack).then_some(r))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_placement_fills_nodes() {
        let t = Topology::block(8, 4);
        assert_eq!(t.num_procs(), 8);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert!(t.same_node(0, 3));
        assert!(!t.same_node(3, 4));
    }

    #[test]
    fn replica_disjoint_keeps_replicas_apart() {
        // 8 logical processes, degree 2, 4 cores per node -> 4 nodes.
        let t = Topology::replica_disjoint(8, 2, 4);
        assert_eq!(t.num_procs(), 16);
        assert_eq!(t.num_nodes(), 4);
        for logical in 0..8 {
            let replica0 = logical; // replica 0 of `logical`
            let replica1 = 8 + logical; // replica 1 of `logical`
            assert!(
                !t.same_node(replica0, replica1),
                "replicas of logical {logical} share a node"
            );
        }
    }

    #[test]
    fn one_per_node_and_single_node() {
        let a = Topology::one_per_node(5);
        assert_eq!(a.num_nodes(), 5);
        assert!(!a.same_node(0, 1));
        let b = Topology::single_node(5);
        assert_eq!(b.num_nodes(), 1);
        assert!(b.same_node(0, 4));
    }

    #[test]
    fn ranks_on_lists_node_membership() {
        let t = Topology::block(8, 4);
        assert_eq!(t.ranks_on(0), vec![0, 1, 2, 3]);
        assert_eq!(t.ranks_on(1), vec![4, 5, 6, 7]);
        assert!(t.ranks_on(7).is_empty());
    }

    #[test]
    fn node_populations_count_every_placed_rank() {
        assert_eq!(Topology::block(10, 4).node_populations(), vec![4, 4, 2]);
        assert_eq!(Topology::single_node(3).node_populations(), vec![3]);
        assert!(Topology::block(0, 4).node_populations().is_empty());
        let t = Topology::replica_disjoint(6, 2, 4);
        for (node, &population) in t.node_populations().iter().enumerate() {
            assert_eq!(population, t.ranks_on(node).len());
        }
    }

    #[test]
    #[should_panic]
    fn node_of_out_of_range_panics() {
        let t = Topology::block(4, 4);
        let _ = t.node_of(4);
    }

    #[test]
    fn rack_views_group_consecutive_nodes() {
        // 16 ranks, 2 per node -> 8 nodes; racks of 3 nodes -> 3 racks.
        let t = Topology::block(16, 2);
        assert_eq!(t.num_racks(3), 3);
        assert_eq!(t.ranks_on_rack(0, 3), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.ranks_on_rack(2, 3), vec![12, 13, 14, 15]);
        // One rack per node degenerates to the node view.
        assert_eq!(t.num_racks(1), t.num_nodes());
        assert_eq!(t.ranks_on_rack(1, 1), t.ranks_on(1));
    }

    #[test]
    #[should_panic]
    fn zero_nodes_per_rack_panics() {
        let t = Topology::block(4, 4);
        let _ = t.num_racks(0);
    }
}
