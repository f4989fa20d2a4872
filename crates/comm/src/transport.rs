//! The [`Transport`] abstraction: everything the parameter servers,
//! collectives, and trainer need from a message fabric, factored out of
//! [`Endpoint`](crate::fabric::Endpoint) so the same algorithm code runs
//! unchanged over in-process channels or real TCP sockets
//! (`selsync-net`).

use crate::error::TransportError;
use crate::fabric::{Msg, Payload};
use crate::stats::CommStats;
use std::sync::Arc;
use std::time::Duration;

/// One rank's handle on a fully-connected message fabric.
///
/// Semantics every implementation must provide, matching the channel
/// fabric the algorithms were written against:
///
/// * `send` is non-blocking and never reorders messages between a fixed
///   (sender, receiver) pair;
/// * `recv_tagged` buffers non-matching messages instead of dropping
///   them, preserving arrival order for later receives;
/// * self-send (`to == id()`) loops back through the receive path;
/// * every sent payload is counted in `stats()` at exactly
///   [`Payload::wire_bytes`] bytes, and every message drained off the
///   fabric is counted once as received;
/// * faults (dead peers, deadlines, teardown) surface as
///   [`TransportError`] values, never panics, so callers can evict,
///   retry, or shut down gracefully.
pub trait Transport {
    /// This rank's id (workers `0..n`, server `n` by convention).
    fn id(&self) -> usize;

    /// Number of ranks in the fabric (including this one).
    fn fabric_size(&self) -> usize;

    /// Byte/message counters for traffic this handle observes.
    fn stats(&self) -> &Arc<CommStats>;

    /// Send `payload` to rank `to` with tag `tag`.
    ///
    /// Takes `&mut self` so fault-injection wrappers can keep
    /// per-destination state; plain fabrics don't need the mutability.
    ///
    /// # Errors
    /// [`TransportError::PeerUnreachable`] if `to`'s endpoint is gone,
    /// [`TransportError::Closed`] if this endpoint was torn down.
    ///
    /// # Panics
    /// Panics if `to` is out of range — an addressing bug, not a fault.
    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError>;

    /// Blocking receive of the next message regardless of tag/sender.
    ///
    /// # Errors
    /// [`TransportError::Closed`] if the fabric is torn down.
    fn recv_any(&mut self) -> Result<Msg, TransportError>;

    /// Blocking receive of the next message matching `tag` (and `from`,
    /// if given). Non-matching messages are buffered, preserving order.
    ///
    /// # Errors
    /// [`TransportError::Closed`] if the fabric is torn down;
    /// implementations with a watchdog may also return
    /// [`TransportError::RecvTimeout`].
    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError>;

    /// Blocking receive with an explicit deadline: the next message
    /// matching `from`/`tag` (either may be `None` = wildcard), or
    /// [`TransportError::RecvTimeout`] once `timeout` elapses without a
    /// match. Non-matching messages are buffered, preserving order.
    ///
    /// This is the liveness primitive: the elastic parameter server uses
    /// it to detect dead workers without stalling the round forever.
    ///
    /// # Errors
    /// `RecvTimeout` on deadline, `Closed` if the fabric is torn down.
    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError>;

    /// Non-blocking receive of any message (buffered first).
    fn try_recv(&mut self) -> Option<Msg>;

    /// Hand back a vector this rank is done with — a received push the
    /// reduction consumed, a reply no one holds any more — so a fabric
    /// that decodes into pooled buffers can receive the next message
    /// into it instead of allocating. A hint, never a requirement: the
    /// default drops `v`, and so may an implementation whose pool is
    /// full. Wrappers forward it, or their inner fabric never sees a
    /// buffer come back.
    fn recycle(&mut self, v: Vec<f32>) {
        drop(v);
    }
}

/// A mutable reference to a transport is itself a transport, so
/// by-value APIs (`run_server_rank(ep, ...)`) can be driven through a
/// wrapper the caller keeps — e.g. to read a fault log after the run.
impl<T: Transport> Transport for &mut T {
    fn id(&self) -> usize {
        (**self).id()
    }

    fn fabric_size(&self) -> usize {
        (**self).fabric_size()
    }

    fn stats(&self) -> &Arc<CommStats> {
        (**self).stats()
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        (**self).send(to, tag, payload)
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        (**self).recv_any()
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        (**self).recv_tagged(from, tag)
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        (**self).recv_deadline(from, tag, timeout)
    }

    fn try_recv(&mut self) -> Option<Msg> {
        (**self).try_recv()
    }

    fn recycle(&mut self, v: Vec<f32>) {
        (**self).recycle(v);
    }
}

impl Transport for crate::fabric::Endpoint {
    fn id(&self) -> usize {
        crate::fabric::Endpoint::id(self)
    }

    fn fabric_size(&self) -> usize {
        crate::fabric::Endpoint::fabric_size(self)
    }

    fn stats(&self) -> &Arc<CommStats> {
        crate::fabric::Endpoint::stats(self)
    }

    fn send(&mut self, to: usize, tag: u64, payload: Payload) -> Result<(), TransportError> {
        crate::fabric::Endpoint::send(self, to, tag, payload)
    }

    fn recv_any(&mut self) -> Result<Msg, TransportError> {
        crate::fabric::Endpoint::recv_any(self)
    }

    fn recv_tagged(&mut self, from: Option<usize>, tag: u64) -> Result<Msg, TransportError> {
        crate::fabric::Endpoint::recv_tagged(self, from, tag)
    }

    fn recv_deadline(
        &mut self,
        from: Option<usize>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<Msg, TransportError> {
        crate::fabric::Endpoint::recv_deadline(self, from, tag, timeout)
    }

    fn try_recv(&mut self) -> Option<Msg> {
        crate::fabric::Endpoint::try_recv(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;

    fn ping<T: Transport>(a: &mut T, b: &mut T) {
        a.send(b.id(), 9, Payload::Control(1)).unwrap();
        let m = b.recv_tagged(Some(a.id()), 9).unwrap();
        assert_eq!(m.payload, Payload::Control(1));
    }

    #[test]
    fn endpoint_satisfies_the_trait() {
        let mut eps = Fabric::new(2);
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        assert_eq!(Transport::id(&a), 0);
        assert_eq!(Transport::fabric_size(&a), 2);
        ping(&mut a, &mut b);
        assert_eq!(Transport::stats(&a).total_messages(), 1);
    }

    #[test]
    fn deadline_receive_through_the_trait() {
        let mut eps = Fabric::new(2);
        let mut b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        a.send(1, 4, Payload::Control(7)).unwrap();
        let m = Transport::recv_deadline(&mut b, Some(0), Some(4), Duration::from_secs(1)).unwrap();
        assert_eq!(m.payload, Payload::Control(7));
        let err =
            Transport::recv_deadline(&mut b, None, Some(5), Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::RecvTimeout { .. }));
    }
}
