//! The three fabrics a workload can run on, behind one constructor:
//! the in-process channel fabric, the blocking TCP fabric and the poll
//! TCP fabric, the last two as full meshes on ephemeral loopback ports.

use selsync_comm::{CommStats, Endpoint, Fabric, Transport};
use selsync_net::{PollTcpEndpoint, TcpEndpoint, TcpFabricConfig};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// A receive that sees nothing for this long fails the run instead of
/// stalling the pipeline that drives the benchmark.
const RECV_TIMEOUT: Duration = Duration::from_secs(60);

/// An endpoint type the benchmark can build a full mesh of.
pub trait Mesh: Transport + Send + Sized + 'static {
    /// Suffix used in metric names (`chan`, `tcp`, `poll`).
    const NAME: &'static str;

    /// Connect `n` ranks; element `i` of the result is rank `i`.
    fn connect(n: usize) -> io::Result<Vec<Self>>;

    /// Byte-level link faults this endpoint has seen (0 on the channel
    /// fabric, which has no wire).
    fn link_fault_count(&mut self) -> usize;
}

impl Mesh for Endpoint {
    const NAME: &'static str = "chan";

    fn connect(n: usize) -> io::Result<Vec<Self>> {
        Ok(Fabric::new(n))
    }

    fn link_fault_count(&mut self) -> usize {
        0
    }
}

/// Bind `n` ephemeral loopback listeners and dial the full mesh, one
/// thread per rank because every `connect` blocks until its peers answer.
fn loopback_mesh<E: Send>(
    n: usize,
    connect: fn(TcpFabricConfig, TcpListener) -> io::Result<E>,
) -> io::Result<Vec<E>> {
    let listeners = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<Vec<_>>>()?;
    let peers = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<io::Result<Vec<_>>>()?;
    thread::scope(|s| {
        let dials: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let mut config = TcpFabricConfig::new(rank, peers.clone());
                config.recv_timeout = RECV_TIMEOUT;
                s.spawn(move || connect(config, listener))
            })
            .collect();
        dials
            .into_iter()
            .map(|h| h.join().expect("mesh dial thread panicked"))
            .collect()
    })
}

impl Mesh for TcpEndpoint {
    const NAME: &'static str = "tcp";

    fn connect(n: usize) -> io::Result<Vec<Self>> {
        loopback_mesh(n, TcpEndpoint::connect_with_listener)
    }

    fn link_fault_count(&mut self) -> usize {
        self.link_faults().len()
    }
}

impl Mesh for PollTcpEndpoint {
    const NAME: &'static str = "poll";

    fn connect(n: usize) -> io::Result<Vec<Self>> {
        loopback_mesh(n, PollTcpEndpoint::connect_with_listener)
    }

    fn link_fault_count(&mut self) -> usize {
        self.link_faults().len()
    }
}

/// The distinct counters of a mesh: channel endpoints share one
/// `CommStats`, each TCP endpoint owns one, so every byte is counted once.
pub fn distinct_stats<E: Mesh>(eps: &[E]) -> Vec<Arc<CommStats>> {
    let mut out: Vec<Arc<CommStats>> = Vec::new();
    for ep in eps {
        if !out.iter().any(|s| Arc::ptr_eq(s, ep.stats())) {
            out.push(Arc::clone(ep.stats()));
        }
    }
    out
}
