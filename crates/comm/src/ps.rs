//! The parameter server (PS) and its client protocol.
//!
//! Two service disciplines cover every algorithm in the paper:
//!
//! * **Round-synchronous** ([`run_round_server`]): BSP, FedAvg and
//!   SelSync sync steps are *rounds* in which every worker sends exactly
//!   one request with the step as tag — either a push (`Params`/`Grads`)
//!   or a bare pull — and blocks for the server's reply. The server
//!   averages whatever was pushed and answers everyone.
//! * **Stale-synchronous** ([`run_ssp_server`]): workers push deltas and
//!   pull the global state asynchronously; the server withholds a pull
//!   reply from any worker running more than `staleness` steps ahead of
//!   the slowest active worker (§II-C).
//!
//! Every entry point returns `Result<_, TransportError>`: a dead peer or
//! a malformed conversation is an error the caller can handle (evict,
//! retry, shut down), not a process abort.

use crate::bucket::BucketIntake;
use crate::error::TransportError;
use crate::fabric::{FlatVec, Msg, Payload};
use crate::transport::Transport;
use std::sync::Arc;

/// Control code: pull-only request.
pub const CTRL_PULL: u64 = 1;
/// Control code: worker is done; last message it sends.
pub const CTRL_SHUTDOWN: u64 = 2;
/// Control code: a (re)joining worker announces itself (elastic mode).
pub const CTRL_JOIN: u64 = 3;

/// What a worker contributes to a synchronization round.
#[derive(Debug, Clone)]
pub enum SyncRequest {
    /// Push local parameters (parameter aggregation, Alg. 1 line 14).
    PushParams(Vec<f32>),
    /// Push local gradients (gradient-aggregation ablation, §IV-D).
    PushGrads(Vec<f32>),
    /// Participate without pushing (FedAvg non-participant, initial pull).
    Pull,
}

/// Client side of one synchronous round: send the request tagged with
/// `step`, block for the averaged reply.
///
/// # Errors
/// Propagates transport faults; [`TransportError::Protocol`] if the
/// server's reply is not a parameter/gradient vector.
pub fn sync_round<T: Transport>(
    ep: &mut T,
    server: usize,
    step: u64,
    req: SyncRequest,
) -> Result<FlatVec, TransportError> {
    let payload = match req {
        SyncRequest::PushParams(v) => Payload::Params(v),
        SyncRequest::PushGrads(v) => Payload::Grads(v),
        SyncRequest::Pull => Payload::Control(CTRL_PULL),
    };
    ep.send(server, step, payload)?;
    recv_round_reply(ep, server, step)
}

/// Block for the server's round reply — the tail half of [`sync_round`],
/// used on its own by clients that stream their push as
/// [`Payload::Bucket`] frames (or a compressed payload) and then wait.
///
/// # Errors
/// Propagates transport faults; [`TransportError::Protocol`] if the
/// reply is not a parameter/gradient vector.
pub fn recv_round_reply<T: Transport>(
    ep: &mut T,
    server: usize,
    step: u64,
) -> Result<FlatVec, TransportError> {
    let reply = ep.recv_tagged(Some(server), step)?;
    match reply.payload {
        Payload::Params(v) | Payload::Grads(v) => Ok(FlatVec::Owned(v)),
        Payload::SharedParams(a) => Ok(FlatVec::Shared(a)),
        other => Err(TransportError::Protocol(format!(
            "unexpected PS reply {other:?}"
        ))),
    }
}

/// Client side of one bucketed synchronous round: stream `values` to
/// the server as [`Payload::Bucket`] frames (lowest index first) and
/// block for the averaged reply. Produces bit-identical results to
/// [`sync_round`] with a monolithic `PushGrads` of the same values —
/// the server reassembles strictly by bucket index.
///
/// # Errors
/// Propagates transport faults; [`TransportError::Protocol`] on a
/// malformed reply.
pub fn sync_round_bucketed<T: Transport>(
    ep: &mut T,
    server: usize,
    step: u64,
    values: &[f32],
    bucket_size: usize,
) -> Result<FlatVec, TransportError> {
    crate::bucket::send_all_buckets(ep, server, step, values, bucket_size)?;
    recv_round_reply(ep, server, step)
}

/// Tell the server this worker is finished.
///
/// # Errors
/// Propagates transport faults.
pub fn send_shutdown<T: Transport>(
    ep: &mut T,
    server: usize,
    step: u64,
) -> Result<(), TransportError> {
    ep.send(server, step, Payload::Control(CTRL_SHUTDOWN))
}

/// Run the round-synchronous parameter server until every worker has
/// shut down. Returns the final global parameters.
///
/// Round semantics:
/// * all `Params` pushes → global ← mean(pushed); reply global to all
///   (model consistency, §III-C);
/// * all `Grads` pushes → reply mean(grads) to all; the stored global is
///   *not* advanced (the server does not know the optimizer), which is
///   exactly the local/global divergence GA exhibits in Fig. 10/11;
/// * pure pull round → reply the stored global.
///
/// A push may arrive as a stream of [`Payload::Bucket`] frames (the
/// pipelined path) or as a compressed payload — both are normalized at
/// arrival by a [`BucketIntake`] into the dense `Grads` the round logic
/// has always consumed, so reduction order (sorted by worker id) and
/// results stay bit-identical to the monolithic path.
///
/// No round copies the model. The global is held behind an `Arc` that
/// every reply shares, and the buffers a round is done with go back to
/// the fabric through [`Transport::recycle`]: the pushes the mean did
/// not accumulate into, and the previous round's reply once nothing
/// but this server holds it.
///
/// # Errors
/// Propagates transport faults; [`TransportError::Protocol`] on a
/// malformed round (mixed push kinds, pushes of unequal length, partial
/// shutdown, unknown payload, structurally invalid bucket/compressed
/// frame).
pub fn run_round_server<T: Transport>(
    mut ep: T,
    n_workers: usize,
    init_params: Vec<f32>,
) -> Result<Vec<f32>, TransportError> {
    let mut global = Arc::new(init_params);
    // the previous round's reply: once the next round's requests are in,
    // every worker is done with it
    let mut last_reply: Option<Arc<Vec<f32>>> = None;
    let mut done = vec![false; n_workers];
    let mut intake = BucketIntake::grads();
    while done.iter().any(|d| !d) {
        // first message of the round fixes the tag, even when it is a
        // partial bucket frame of a still-streaming push
        let first = ep.recv_any()?;
        let tag = first.tag;
        let expected = done.iter().filter(|d| !**d).count();
        let mut batch: Vec<Msg> = Vec::with_capacity(expected);
        if let Some(m) = intake.accept(first)? {
            batch.push(m);
        }
        while batch.len() < expected {
            let m = ep.recv_tagged(None, tag)?;
            if let Some(m) = intake.accept(m)? {
                batch.push(m);
            }
        }
        // arrival order is scheduler-dependent; fix the reduction order
        // by worker id so runs are bit-reproducible
        batch.sort_by_key(|m| m.from);
        let members: Vec<usize> = batch.iter().map(|m| m.from).collect();
        // classify the round, taking the pushed vectors out of the batch
        // so the reduction can accumulate into the first one's buffer
        let mut pushes: Vec<Vec<f32>> = Vec::new();
        let (mut params_pushed, mut grads_pushed) = (false, false);
        let mut shutdowns = 0usize;
        for m in batch {
            match m.payload {
                Payload::Params(v) => {
                    params_pushed = true;
                    pushes.push(v);
                }
                Payload::Grads(v) => {
                    grads_pushed = true;
                    pushes.push(v);
                }
                Payload::Control(CTRL_PULL) => {}
                Payload::Control(CTRL_SHUTDOWN) => shutdowns += 1,
                other => {
                    return Err(TransportError::Protocol(format!(
                        "unexpected PS request {other:?} from rank {}",
                        m.from
                    )))
                }
            }
        }
        if params_pushed && grads_pushed {
            return Err(TransportError::Protocol(
                "a round cannot mix parameter and gradient pushes".into(),
            ));
        }
        // `average` zips its inputs: pushes of unequal length would
        // silently truncate the round to the shortest one
        if let Some(w) = pushes.windows(2).find(|w| w[0].len() != w[1].len()) {
            return Err(TransportError::Protocol(format!(
                "a round's pushes must agree in length, got {} and {} values",
                w[0].len(),
                w[1].len()
            )));
        }
        if shutdowns > 0 {
            if shutdowns != members.len() {
                return Err(TransportError::Protocol(
                    "shutdown must be a dedicated round (all active workers)".into(),
                ));
            }
            for from in members {
                done[from] = true;
            }
            continue;
        }
        // the reply is shared, never copied: each per-worker send below
        // clones only the Arc
        let reply = match average(pushes, |v| ep.recycle(v)) {
            Some(avg) if params_pushed => {
                global = Arc::new(avg);
                Arc::clone(&global)
            }
            Some(avg) => Arc::new(avg),
            None => Arc::clone(&global),
        };
        if let Some(prev) = last_reply.replace(Arc::clone(&reply)) {
            // `into_inner` succeeds only for the last holder: a reply
            // that is still the global, or that a worker on an
            // in-process fabric still reads, is merely released
            if let Some(v) = Arc::into_inner(prev) {
                ep.recycle(v);
            }
        }
        for from in members {
            ep.send(from, tag, Payload::SharedParams(Arc::clone(&reply)))?;
        }
    }
    // the run's last reply goes back like every other; the global goes
    // to the caller
    if let Some(v) = last_reply.and_then(Arc::into_inner) {
        ep.recycle(v);
    }
    Ok(Arc::unwrap_or_clone(global))
}

/// Element-wise mean of `pushes`, accumulated in place into the first
/// push's own buffer — `v0`, `+= v1`, …, `/= n`, the operand order the
/// reduction has always had, so the result is bit-identical to summing
/// into a fresh copy. Every other push is handed to `spent` once it is
/// added in. `None` when nothing was pushed. The caller has checked that
/// the lengths agree.
pub(crate) fn average(
    pushes: impl IntoIterator<Item = Vec<f32>>,
    mut spent: impl FnMut(Vec<f32>),
) -> Option<Vec<f32>> {
    let mut pushes = pushes.into_iter();
    let mut out = pushes.next()?;
    let mut n = 1usize;
    for v in pushes {
        for (o, x) in out.iter_mut().zip(&v) {
            *o += x;
        }
        spent(v);
        n += 1;
    }
    let n = n as f32;
    for o in &mut out {
        *o /= n;
    }
    Some(out)
}

/// Client side of one SSP step: push the local delta (non-blocking on
/// the server's apply) and pull the current global, blocking only if the
/// staleness bound holds this worker back.
///
/// # Errors
/// Propagates transport faults; [`TransportError::Protocol`] on an
/// unexpected reply kind.
pub fn ssp_step<T: Transport>(
    ep: &mut T,
    server: usize,
    step: u64,
    delta: Vec<f32>,
) -> Result<FlatVec, TransportError> {
    ep.send(server, step, Payload::Grads(delta))?;
    ep.send(server, step, Payload::Control(CTRL_PULL))?;
    let reply = ep.recv_tagged(Some(server), step)?;
    match reply.payload {
        Payload::Params(v) => Ok(FlatVec::Owned(v)),
        Payload::SharedParams(a) => Ok(FlatVec::Shared(a)),
        other => Err(TransportError::Protocol(format!(
            "unexpected SSP reply {other:?}"
        ))),
    }
}

/// Run the stale-synchronous server until all workers shut down.
/// Returns the final global parameters.
///
/// # Errors
/// Propagates transport faults; [`TransportError::Protocol`] on an
/// unexpected request kind.
pub fn run_ssp_server<T: Transport>(
    mut ep: T,
    n_workers: usize,
    init_params: Vec<f32>,
    staleness: u64,
) -> Result<Vec<f32>, TransportError> {
    let mut global = init_params;
    let mut steps = vec![0u64; n_workers];
    let mut done = vec![false; n_workers];
    // pulls delayed by the staleness bound: (worker, tag)
    let mut parked: Vec<(usize, u64)> = Vec::new();
    loop {
        if done.iter().all(|d| *d) {
            break;
        }
        let m = ep.recv_any()?;
        match m.payload {
            Payload::Grads(delta) => {
                for (g, d) in global.iter_mut().zip(&delta) {
                    *g += d;
                }
                steps[m.from] = m.tag + 1;
            }
            Payload::Control(CTRL_PULL) => parked.push((m.from, m.tag)),
            Payload::Control(CTRL_SHUTDOWN) => done[m.from] = true,
            other => {
                return Err(TransportError::Protocol(format!(
                    "unexpected SSP request {other:?} from rank {}",
                    m.from
                )))
            }
        }
        // release every parked pull now inside the staleness window
        let min_step = steps
            .iter()
            .zip(&done)
            .filter(|(_, d)| !**d)
            .map(|(s, _)| *s)
            .min()
            .unwrap_or(u64::MAX);
        let mut release_err = None;
        parked.retain(|&(w, tag)| {
            if release_err.is_none() && steps[w] <= min_step.saturating_add(staleness) {
                if let Err(e) = ep.send(w, tag, Payload::Params(global.clone())) {
                    release_err = Some(e);
                }
                false
            } else {
                true
            }
        });
        if let Some(e) = release_err {
            return Err(e);
        }
    }
    // release anything still parked so no worker deadlocks at shutdown
    for (w, tag) in parked {
        ep.send(w, tag, Payload::Params(global.clone()))?;
    }
    Ok(global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Endpoint, Fabric};
    use std::thread;

    /// n workers + server; run `worker` on each, round server on the last
    /// endpoint. Returns (per-worker results, final global).
    fn with_round_server<F>(n: usize, init: Vec<f32>, worker: F) -> (Vec<Vec<f32>>, Vec<f32>)
    where
        F: Fn(&mut Endpoint, usize, usize) -> Vec<f32> + Send + Sync + Copy + 'static,
    {
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let server = thread::spawn(move || run_round_server(server_ep, n, init).unwrap());
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let id = ep.id();
                    worker(&mut ep, id, n)
                })
            })
            .collect();
        let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let global = server.join().unwrap();
        (results, global)
    }

    #[test]
    fn initial_pull_round_returns_init() {
        let (results, _) = with_round_server(3, vec![1.0, 2.0], |ep, _, n| {
            let v = sync_round(ep, n, 0, SyncRequest::Pull).unwrap().into_vec();
            send_shutdown(ep, n, 1).unwrap();
            v
        });
        for r in results {
            assert_eq!(r, vec![1.0, 2.0]);
        }
    }

    #[test]
    fn param_push_round_averages_and_updates_global() {
        let (results, global) = with_round_server(4, vec![0.0], |ep, id, n| {
            let v = sync_round(ep, n, 0, SyncRequest::PushParams(vec![id as f32]))
                .unwrap()
                .into_vec();
            send_shutdown(ep, n, 1).unwrap();
            v
        });
        for r in results {
            assert_eq!(r, vec![1.5], "(0+1+2+3)/4");
        }
        assert_eq!(global, vec![1.5], "PA advances the stored global");
    }

    #[test]
    fn grad_push_round_averages_without_touching_global() {
        let (results, global) = with_round_server(2, vec![9.0], |ep, id, n| {
            let g = sync_round(ep, n, 0, SyncRequest::PushGrads(vec![id as f32 * 2.0]))
                .unwrap()
                .into_vec();
            send_shutdown(ep, n, 1).unwrap();
            g
        });
        for r in results {
            assert_eq!(r, vec![1.0], "(0+2)/2");
        }
        assert_eq!(global, vec![9.0], "GA leaves the stored global stale");
    }

    #[test]
    fn mixed_push_pull_round_fedavg_style() {
        // workers 0,1 push; workers 2,3 only pull — all get the average
        let (results, _) = with_round_server(4, vec![0.0], |ep, id, n| {
            let req = if id < 2 {
                SyncRequest::PushParams(vec![10.0 * (id + 1) as f32])
            } else {
                SyncRequest::Pull
            };
            let v = sync_round(ep, n, 0, req).unwrap().into_vec();
            send_shutdown(ep, n, 1).unwrap();
            v
        });
        for r in results {
            assert_eq!(r, vec![15.0], "average over the C-fraction pushers only");
        }
    }

    #[test]
    fn multiple_rounds_in_sequence() {
        let (results, global) = with_round_server(2, vec![0.0], |ep, id, n| {
            let mut v = vec![id as f32 + 1.0];
            for step in 0..5u64 {
                v = sync_round(ep, n, step, SyncRequest::PushParams(v.clone()))
                    .unwrap()
                    .into_vec();
                v[0] += 1.0; // local drift between rounds
            }
            send_shutdown(ep, n, 99).unwrap();
            v
        });
        // round 0: avg(1,2)=1.5 → both 2.5; each next round avg equals both
        for r in &results {
            assert_eq!(r, &vec![6.5]);
        }
        assert_eq!(global, vec![5.5]);
    }

    /// `id` goes through `black_box` so that a constant `id` (the
    /// references) and a runtime one (the workers) both call `sin` at
    /// run time: the optimiser would otherwise fold the constant calls,
    /// and its folded `sin` can differ from the library's by one ulp.
    fn wavy(id: usize) -> Vec<f32> {
        let id = std::hint::black_box(id);
        (0..13).map(|i| ((id * 31 + i) as f32).sin()).collect()
    }

    #[test]
    fn bucketed_grad_push_matches_monolithic_bitwise() {
        let (mono, _) = with_round_server(3, vec![0.0; 13], |ep, id, n| {
            let v = sync_round(ep, n, 0, SyncRequest::PushGrads(wavy(id)))
                .unwrap()
                .into_vec();
            send_shutdown(ep, n, 1).unwrap();
            v
        });
        let (bucketed, _) = with_round_server(3, vec![0.0; 13], |ep, id, n| {
            let v = sync_round_bucketed(ep, n, 0, &wavy(id), 4)
                .unwrap()
                .into_vec();
            send_shutdown(ep, n, 1).unwrap();
            v
        });
        let bits = |vs: &[Vec<f32>]| -> Vec<Vec<u32>> {
            vs.iter()
                .map(|v| v.iter().map(|x| x.to_bits()).collect())
                .collect()
        };
        assert_eq!(
            bits(&bucketed),
            bits(&mono),
            "bucketed and monolithic rounds must agree bit-for-bit"
        );
    }

    /// The reduction as it was before it accumulated into the first
    /// push's buffer: sum into a fresh copy of `vs[0]`.
    fn copying_average(vs: &[&[f32]]) -> Vec<f32> {
        let n = vs.len() as f32;
        let mut out = vs[0].to_vec();
        for v in &vs[1..] {
            for (o, x) in out.iter_mut().zip(*v) {
                *o += x;
            }
        }
        for o in &mut out {
            *o /= n;
        }
        out
    }

    #[test]
    fn in_place_reduce_matches_the_copying_average_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let pushed: Vec<Vec<f32>> = (0..3).map(wavy).collect();
        let views: Vec<&[f32]> = pushed.iter().map(|v| v.as_slice()).collect();
        let want = bits(&copying_average(&views));

        let (params, global) = with_round_server(3, vec![0.0; 13], |ep, id, n| {
            let v = sync_round(ep, n, 0, SyncRequest::PushParams(wavy(id))).unwrap();
            send_shutdown(ep, n, 1).unwrap();
            v.into_vec()
        });
        let (grads, _) = with_round_server(3, vec![0.0; 13], |ep, id, n| {
            let v = sync_round(ep, n, 0, SyncRequest::PushGrads(wavy(id))).unwrap();
            send_shutdown(ep, n, 1).unwrap();
            v.into_vec()
        });
        let (bucketed, _) = with_round_server(3, vec![0.0; 13], |ep, id, n| {
            let v = sync_round_bucketed(ep, n, 0, &wavy(id), 4).unwrap();
            send_shutdown(ep, n, 1).unwrap();
            v.into_vec()
        });
        assert_eq!(bits(&global), want, "stored global after a Params round");
        for reply in params.iter().chain(&grads).chain(&bucketed) {
            assert_eq!(bits(reply), want);
        }
    }

    #[test]
    fn mixed_bucketed_compressed_and_dense_round() {
        // worker 0 streams buckets, worker 1 pushes dense, worker 2
        // ships a sparse payload — one round, all normalized at intake
        let (results, _) = with_round_server(3, vec![0.0; 4], |ep, id, n| {
            let v = match id {
                0 => sync_round_bucketed(ep, n, 0, &[4.0, 0.0, 0.0, 0.0], 2).unwrap(),
                1 => {
                    sync_round(ep, n, 0, SyncRequest::PushGrads(vec![0.0, 8.0, 0.0, 0.0])).unwrap()
                }
                _ => {
                    ep.send(
                        n,
                        0,
                        Payload::SparseGrad {
                            len: 4,
                            indices: vec![2],
                            values: vec![12.0],
                        },
                    )
                    .unwrap();
                    recv_round_reply(ep, n, 0).unwrap()
                }
            }
            .into_vec();
            send_shutdown(ep, n, 1).unwrap();
            v
        });
        for r in results {
            assert_eq!(r, vec![4.0 / 3.0, 8.0 / 3.0, 4.0, 0.0]);
        }
    }

    #[test]
    fn hostile_compressed_push_errors_the_server() {
        let mut eps = Fabric::new(2);
        let server_ep = eps.pop().unwrap();
        let w = eps.pop().unwrap();
        let server = thread::spawn(move || run_round_server(server_ep, 1, vec![0.0]));
        w.send(
            1,
            0,
            Payload::SparseGrad {
                len: 2,
                indices: vec![9],
                values: vec![1.0],
            },
        )
        .unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(matches!(err, TransportError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn unequal_length_pushes_error_the_server() {
        // a shorter first push would otherwise truncate the averaged
        // "global" that is stored and broadcast
        let mut eps = Fabric::new(3);
        let server_ep = eps.pop().unwrap();
        let server = thread::spawn(move || run_round_server(server_ep, 2, vec![0.0; 2]));
        eps[0].send(2, 0, Payload::Params(vec![1.0])).unwrap();
        eps[1].send(2, 0, Payload::Params(vec![1.0, 2.0])).unwrap();
        let err = server.join().unwrap().unwrap_err();
        assert!(
            matches!(&err, TransportError::Protocol(why) if why.contains("agree in length")),
            "{err:?}"
        );
    }

    #[test]
    fn ssp_server_applies_deltas_and_respects_staleness() {
        let n = 2;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let server = thread::spawn(move || run_ssp_server(server_ep, n, vec![0.0], 2).unwrap());
        let handles: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let mut last = Vec::new();
                    for step in 0..10u64 {
                        last = ssp_step(&mut ep, n, step, vec![1.0]).unwrap().into_vec();
                    }
                    send_shutdown(&mut ep, n, 10).unwrap();
                    last
                })
            })
            .collect();
        for h in handles {
            let last = h.join().unwrap();
            // by a worker's final pull at least its own 10 pushes landed
            assert!(last[0] >= 10.0, "global accumulated deltas: {}", last[0]);
        }
        let global = server.join().unwrap();
        assert_eq!(global, vec![20.0], "all 2×10 unit deltas applied");
    }

    #[test]
    fn ssp_staleness_bound_is_enforced() {
        // worker 1 never pushes (simulated dead-slow straggler that only
        // registered step 0); worker 0 sprints. With s = 3, worker 0 must
        // be parked once it gets 3+ steps ahead — we verify it cannot
        // complete 10 steps before worker 1 advances.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let n = 2;
        let mut eps = Fabric::new(n + 1);
        let server_ep = eps.pop().unwrap();
        let _server = thread::spawn(move || run_ssp_server(server_ep, n, vec![0.0], 3).unwrap());
        let mut slow = eps.pop().unwrap(); // id 1
        let mut fast = eps.pop().unwrap(); // id 0
        let fast_steps = Arc::new(AtomicU64::new(0));
        let fs = Arc::clone(&fast_steps);
        let fast_h = thread::spawn(move || {
            for step in 0..10u64 {
                let _ = ssp_step(&mut fast, n, step, vec![0.0]).unwrap();
                fs.store(step + 1, Ordering::SeqCst);
            }
            send_shutdown(&mut fast, n, 10).unwrap();
        });
        thread::sleep(std::time::Duration::from_millis(200));
        let blocked_at = fast_steps.load(Ordering::SeqCst);
        assert!(
            blocked_at <= 4,
            "fast worker should be parked within s+1 steps, got {blocked_at}"
        );
        // let the slow worker catch up, releasing the fast one
        for step in 0..10u64 {
            let _ = ssp_step(&mut slow, n, step, vec![0.0]).unwrap();
        }
        send_shutdown(&mut slow, n, 10).unwrap();
        fast_h.join().unwrap();
        assert_eq!(fast_steps.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn dead_worker_surfaces_as_error_not_panic() {
        // 2 workers expected, but one endpoint is dropped before ever
        // sending: the server's round can never complete. With the old
        // panicking fabric this aborted the process; now we can bound the
        // wait and observe the failure. We emulate by having worker 0
        // push then drop — the server blocks in recv; the *client* path
        // is what we exercise: sending to a dropped server errors.
        let mut eps = Fabric::new(2);
        let server_ep = eps.pop().unwrap();
        let mut w = eps.pop().unwrap();
        drop(server_ep);
        let err = sync_round(&mut w, 1, 0, SyncRequest::Pull).unwrap_err();
        assert_eq!(err, TransportError::PeerUnreachable { peer: 1 });
    }
}
