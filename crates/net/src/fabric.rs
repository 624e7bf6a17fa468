//! Cluster interconnect: connection endpoints and propagation latency.
//!
//! The fabric is a lossless, FIFO-per-connection switched Ethernet.  It maps
//! every [`ConnId`] to its `(source node, destination node)` pair and
//! answers "when does a segment that left the source NIC at `t` arrive at
//! the destination NIC?".

use crate::socket::ConnId;
use crate::Ns;

/// Static description of one simplex connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Sending node index.
    pub src_node: u32,
    /// Receiving node index.
    pub dst_node: u32,
}

impl LinkSpec {
    /// True when both endpoints are the same node (localhost).
    pub fn is_loopback(&self) -> bool {
        self.src_node == self.dst_node
    }
}

/// The cluster interconnect.
#[derive(Debug, Clone)]
pub struct Fabric {
    links: Vec<LinkSpec>,
    /// One-way propagation + switching latency.
    latency_ns: Ns,
}

impl Fabric {
    /// A fabric with the given one-way latency.
    pub fn new(latency_ns: Ns) -> Self {
        Fabric {
            links: Vec::new(),
            latency_ns,
        }
    }

    /// Registers a new simplex connection and returns its id.  Loopback
    /// (`src == dst`) is allowed: such connections bypass the NIC and hard
    /// IRQ in the kernel model.
    pub fn open(&mut self, src_node: u32, dst_node: u32) -> ConnId {
        let id = ConnId(self.links.len() as u32);
        self.links.push(LinkSpec { src_node, dst_node });
        id
    }

    /// The endpoints of a connection.
    pub fn link(&self, conn: ConnId) -> LinkSpec {
        self.links[conn.0 as usize]
    }

    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no connections exist.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// One-way latency.
    pub fn latency_ns(&self) -> Ns {
        self.latency_ns
    }

    /// All open connections in id order, for engine snapshots.
    pub fn links(&self) -> &[LinkSpec] {
        &self.links
    }

    /// Rebuilds a fabric with its connection table already populated
    /// (`links[i]` becomes `ConnId(i)`), for engine snapshots.
    pub fn from_links(latency_ns: Ns, links: Vec<LinkSpec>) -> Self {
        Fabric { links, latency_ns }
    }

    /// Arrival time at the destination NIC for a segment whose last bit left
    /// the source NIC at `departed`.
    pub fn arrival(&self, departed: Ns) -> Ns {
        departed + self.latency_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_assigns_sequential_conn_ids() {
        let mut f = Fabric::new(75_000);
        let a = f.open(0, 1);
        let b = f.open(1, 0);
        assert_eq!((a, b), (ConnId(0), ConnId(1)));
        assert_eq!(
            f.link(a),
            LinkSpec {
                src_node: 0,
                dst_node: 1
            }
        );
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn arrival_adds_latency() {
        let f = Fabric::new(75_000);
        assert_eq!(f.arrival(1_000), 76_000);
    }

    #[test]
    fn loopback_allowed() {
        let mut f = Fabric::new(0);
        let c = f.open(3, 3);
        assert!(f.link(c).is_loopback());
    }
}
