//! Cluster configuration: which servers exist, how fast they are, how nodes
//! are wired together.
//!
//! The paper's default testbed is 8 compute nodes, 6 HServers and
//! 2 SServers on Gigabit Ethernet under one OrangeFS namespace; the
//! experiments also use 7:1 and 2:6 server ratios. [`ClusterConfig`]
//! captures exactly those knobs plus the K-profile extension (extra server
//! classes beyond HDD/SSD).

use crate::faults::Degradation;
use harl_devices::{hdd_2015_preset, ssd_2015_preset, DeviceKind, NetworkProfile, StorageProfile};
use harl_simcore::SimNanos;
use serde::{Deserialize, Serialize};

/// Identifier of a file server within a cluster (dense, 0-based).
pub type ServerId = usize;

/// A group of identical file servers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerClass {
    /// Number of servers in this class.
    pub count: usize,
    /// The storage device behind each server.
    pub profile: StorageProfile,
}

/// Full description of a simulated cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Server classes in server-id order. For the paper's two-class setup
    /// this is `[HServers, SServers]`; the K-profile extension appends more.
    pub classes: Vec<ServerClass>,
    /// Interconnect profile (every NIC in the cluster).
    pub network: NetworkProfile,
    /// Number of compute nodes; client processes are placed round-robin.
    pub compute_nodes: usize,
    /// Metadata server service time per file-request lookup.
    pub mds_service: SimNanos,
    /// Master seed; every stochastic component derives its stream from it.
    pub seed: u64,
    /// Injected degradation windows (stragglers, GC storms); empty by
    /// default. See [`crate::faults`].
    #[serde(default)]
    pub degradations: Vec<Degradation>,
}

impl ClusterConfig {
    /// The paper's default hybrid cluster: `m` HServers + `n` SServers,
    /// 8 compute nodes, Gigabit Ethernet, 2015-era device presets.
    pub fn hybrid(m: usize, n: usize) -> Self {
        assert!(m + n > 0, "cluster needs at least one server");
        ClusterConfig {
            classes: vec![
                ServerClass {
                    count: m,
                    profile: hdd_2015_preset(),
                },
                ServerClass {
                    count: n,
                    profile: ssd_2015_preset(),
                },
            ],
            network: NetworkProfile::gigabit_ethernet(),
            compute_nodes: 8,
            mds_service: SimNanos::from_micros(30),
            seed: 0x4A51,
            degradations: Vec::new(),
        }
    }

    /// The paper's default 6 HServer + 2 SServer configuration.
    pub fn paper_default() -> Self {
        ClusterConfig::hybrid(6, 2)
    }

    /// A cluster with an arbitrary set of server classes (any class
    /// count), with the same defaults as [`Self::hybrid`] for everything
    /// else.
    pub fn tiered(classes: Vec<ServerClass>) -> Self {
        assert!(
            classes.iter().map(|c| c.count).sum::<usize>() > 0,
            "cluster needs at least one server"
        );
        ClusterConfig {
            classes,
            network: NetworkProfile::gigabit_ethernet(),
            compute_nodes: 8,
            mds_service: SimNanos::from_micros(30),
            seed: 0x4A51,
            degradations: Vec::new(),
        }
    }

    /// A three-tier cluster: `m` HDD servers, `n` SSD servers, and `o`
    /// object-store gateways (priced via
    /// [`harl_devices::object_store_preset`]).
    pub fn three_tier(m: usize, n: usize, o: usize) -> Self {
        ClusterConfig::tiered(vec![
            ServerClass {
                count: m,
                profile: hdd_2015_preset(),
            },
            ServerClass {
                count: n,
                profile: ssd_2015_preset(),
            },
            ServerClass {
                count: o,
                profile: harl_devices::object_store_preset(),
            },
        ])
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style compute-node override.
    pub fn with_compute_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "need at least one compute node");
        self.compute_nodes = nodes;
        self
    }

    /// Builder-style network override.
    pub fn with_network(mut self, network: NetworkProfile) -> Self {
        self.network = network;
        self
    }

    /// Append an extra server class (K-profile extension).
    pub fn with_extra_class(mut self, count: usize, profile: StorageProfile) -> Self {
        self.classes.push(ServerClass { count, profile });
        self
    }

    /// Inject a degradation window (validated on insertion).
    pub fn with_degradation(mut self, d: Degradation) -> Self {
        assert!(
            d.server < self.server_count(),
            "degradation targets unknown server {}",
            d.server
        );
        self.degradations.push(d.validated());
        self
    }

    /// Total number of file servers.
    pub fn server_count(&self) -> usize {
        self.classes.iter().map(|c| c.count).sum()
    }

    /// Number of HDD-class servers (the paper's `M`).
    pub fn hserver_count(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.profile.kind == DeviceKind::Hdd)
            .map(|c| c.count)
            .sum()
    }

    /// Number of SSD-class servers (the paper's `N`).
    pub fn sserver_count(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.profile.kind == DeviceKind::Ssd)
            .map(|c| c.count)
            .sum()
    }

    /// The profile of server `id`.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    // Documented-precondition panic: ids come from layouts built against
    // this cluster, and an Option return would push unwraps into the
    // simulator's per-request hot path.
    #[allow(clippy::panic)]
    pub fn profile_of(&self, id: ServerId) -> &StorageProfile {
        let mut base = 0;
        for class in &self.classes {
            if id < base + class.count {
                return &class.profile;
            }
            base += class.count;
        }
        panic!(
            "server id {id} out of range ({} servers)",
            self.server_count()
        );
    }

    /// Server ids belonging to class `class_idx`.
    pub fn class_servers(&self, class_idx: usize) -> std::ops::Range<ServerId> {
        let base: usize = self.classes[..class_idx].iter().map(|c| c.count).sum();
        base..base + self.classes[class_idx].count
    }

    /// All server ids in order.
    pub fn all_servers(&self) -> std::ops::Range<ServerId> {
        0..self.server_count()
    }

    /// The compute node hosting client process `client`.
    pub fn node_of(&self, client: usize) -> usize {
        client % self.compute_nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_6_plus_2() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.hserver_count(), 6);
        assert_eq!(c.sserver_count(), 2);
        assert_eq!(c.server_count(), 8);
        assert_eq!(c.compute_nodes, 8);
    }

    #[test]
    fn profile_lookup_by_id() {
        let c = ClusterConfig::hybrid(6, 2);
        for id in 0..6 {
            assert_eq!(c.profile_of(id).kind, DeviceKind::Hdd);
        }
        for id in 6..8 {
            assert_eq!(c.profile_of(id).kind, DeviceKind::Ssd);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn profile_lookup_out_of_range() {
        ClusterConfig::hybrid(2, 1).profile_of(3);
    }

    #[test]
    fn class_server_ranges() {
        let c = ClusterConfig::hybrid(6, 2);
        assert_eq!(c.class_servers(0), 0..6);
        assert_eq!(c.class_servers(1), 6..8);
    }

    #[test]
    fn extra_class_extends_ids() {
        let c = ClusterConfig::hybrid(2, 2).with_extra_class(3, harl_devices::nvme_2020_preset());
        assert_eq!(c.server_count(), 7);
        assert_eq!(c.class_servers(2), 4..7);
        assert_eq!(c.profile_of(6).kind, DeviceKind::Other);
    }

    #[test]
    fn three_tier_cluster_shape() {
        let c = ClusterConfig::three_tier(4, 2, 1);
        assert_eq!(c.server_count(), 7);
        assert_eq!(c.classes.len(), 3);
        assert_eq!(c.profile_of(6).kind, DeviceKind::Object);
        assert!(!c.classes[2].profile.cost.is_free());
        assert!(c.classes[0].profile.cost.is_free());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_tiered_cluster_rejected() {
        ClusterConfig::tiered(vec![ServerClass {
            count: 0,
            profile: hdd_2015_preset(),
        }]);
    }

    #[test]
    fn clients_round_robin_over_nodes() {
        let c = ClusterConfig::paper_default();
        assert_eq!(c.node_of(0), 0);
        assert_eq!(c.node_of(8), 0);
        assert_eq!(c.node_of(9), 1);
    }

    #[test]
    fn ratio_variants() {
        // The Fig. 10 configurations.
        let a = ClusterConfig::hybrid(7, 1);
        assert_eq!((a.hserver_count(), a.sserver_count()), (7, 1));
        let b = ClusterConfig::hybrid(2, 6);
        assert_eq!((b.hserver_count(), b.sserver_count()), (2, 6));
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        ClusterConfig::hybrid(0, 0);
    }
}
