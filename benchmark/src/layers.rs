//! The per-layer ladder: every layer a sync step crosses, timed from
//! outside through its public functions. Each row is the median of a
//! stated number of timed repeats after warm-up calls; rows are named
//! `<crate>.<what>` so a later change can say which row it expects to move.

use crate::fabric::Mesh;
use crate::metrics::{median, Metric};
// the ladder's inputs are fixed: each `filled` call names its own LCG start
use crate::workloads::{lcg_floats as filled, N_WORKERS};
use selsync_comm::collectives::allgather_flags;
use selsync_comm::ps::{run_round_server, send_shutdown, sync_round, SyncRequest};
use selsync_comm::{Endpoint, NetworkModel, Payload};
use selsync_core::workload::{AnyModel, Workload, WorkloadData, SEQ_LEN};
use selsync_data::{BatchCursor, TextBatchCursor};
use selsync_net::{crc32, decode_frame, encode_frame, PollTcpEndpoint, TcpEndpoint};
use selsync_nn::flat::{flat_grads_into, set_flat_params};
use selsync_nn::loss::softmax_cross_entropy;
use selsync_nn::models::ModelKind;
use selsync_nn::{Batch, Optimizer, Sgd};
use selsync_stats::RelativeGradChange;
use selsync_tensor::matmul::matmul_into;
use selsync_tensor::reduce::sqnorm_slice;
use selsync_tensor::Tensor;
use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Floats in the two frame sizes the codec and PS rows use: the VggMini
/// scale the trainer ships (64 KB) and the dense workload's 4 MB.
const LEN_64K: usize = 16 * 1024;
const LEN_4M: usize = 1 << 20;

/// Median seconds per call: `warm` untimed batches, then `reps` timed
/// batches of `inner` calls each (a batch amortizes the clock read for
/// calls that take well under a microsecond).
fn time_per_call(warm: usize, reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..warm * inner {
        f();
    }
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..inner {
                f();
            }
            start.elapsed().as_secs_f64() / inner as f64
        })
        .collect();
    median(&samples)
}

fn gemm_gflops(m: usize, k: usize, n: usize, reps: usize, inner: usize) -> f64 {
    let a = Tensor::from_vec(filled(m * k, 1), [m, k]);
    let b = Tensor::from_vec(filled(k * n, 2), [k, n]);
    let mut c = Tensor::zeros([m, n]);
    let secs = time_per_call(2, reps, inner, || {
        matmul_into(black_box(&a), black_box(&b), &mut c)
    });
    black_box(&c);
    2.0 * (m * k * n) as f64 / secs / 1e9
}

fn tensor_rows(out: &mut Vec<Metric>) {
    out.push(Metric::new(
        "tensor.matmul_nn_gflops",
        gemm_gflops(256, 256, 256, 21, 1),
        "GFLOP/s",
    ));
    // the im2col GEMM of the conv minis: 256 patches x 72 taps x 8 filters
    out.push(Metric::new(
        "tensor.conv_gemm_gflops",
        gemm_gflops(256, 72, 8, 21, 20),
        "GFLOP/s",
    ));
}

/// A model of `kind` with one batch of 8 from its own dataset.
fn model_and_batch(kind: ModelKind) -> (AnyModel, Batch) {
    let workload = match kind {
        ModelKind::TransformerMini => Workload::text(64 * SEQ_LEN, 1),
        _ => Workload::vision(kind, 64, 16, 1),
    };
    let units: Vec<usize> = (0..workload.num_train_units()).collect();
    let batch = match &workload.data {
        WorkloadData::Vision { train, .. } => BatchCursor::new(units, 8).next_batch(train),
        WorkloadData::Text { train, .. } => {
            TextBatchCursor::new(units, SEQ_LEN, 8).next_batch(train)
        }
    };
    (workload.build_model(), batch)
}

fn nn_rows(out: &mut Vec<Metric>) {
    const REPS: usize = 31;
    let mut vgg = None;
    for (label, kind) in [
        ("resnet", ModelKind::ResNetMini),
        ("vgg", ModelKind::VggMini),
        ("transformer", ModelKind::TransformerMini),
    ] {
        let (mut model, batch) = model_and_batch(kind);
        let (mut forward, mut backward) = (Vec::new(), Vec::new());
        for rep in 0..REPS + 3 {
            let start = Instant::now();
            let logits = model.as_model().forward(&batch.input, true);
            let (loss, dlogits) = softmax_cross_entropy(&logits, &batch.targets);
            let mid = Instant::now();
            model.as_model().zero_grad();
            model.as_model().backward(&dlogits);
            let end = Instant::now();
            black_box(loss);
            if rep >= 3 {
                forward.push((mid - start).as_secs_f64());
                backward.push((end - mid).as_secs_f64());
            }
        }
        out.push(Metric::new(
            format!("nn.forward_ms.{label}"),
            median(&forward) * 1e3,
            "ms",
        ));
        out.push(Metric::new(
            format!("nn.backward_ms.{label}"),
            median(&backward) * 1e3,
            "ms",
        ));
        if kind == ModelKind::VggMini {
            vgg = Some(model);
        }
    }
    // the VggMini replica now holds real gradients
    let mut vgg = vgg.expect("VggMini was timed above");
    let mut opt = Sgd::with_momentum(0.02, 0.5, 5e-4);
    let secs = time_per_call(3, 51, 1, || opt.step(vgg.as_model()));
    out.push(Metric::new("nn.optim_step_us", secs * 1e6, "us"));
    let mut flat = Vec::new();
    flat_grads_into(vgg.as_visitor(), &mut flat);
    let params = flat.clone();
    let secs = time_per_call(3, 51, 4, || {
        flat_grads_into(vgg.as_visitor(), &mut flat);
        set_flat_params(vgg.as_model(), black_box(&params));
    });
    out.push(Metric::new("nn.flatten_us", secs * 1e6, "us"));
}

fn data_and_stats_rows(out: &mut Vec<Metric>) {
    let vision = Workload::vision(ModelKind::ResNetMini, 768, 16, 1);
    if let WorkloadData::Vision { train, .. } = &vision.data {
        let mut cursor = BatchCursor::new((0..train.len()).collect(), 8);
        let secs = time_per_call(3, 51, 8, || {
            black_box(cursor.next_batch(train));
        });
        out.push(Metric::new("data.next_batch_us.vision", secs * 1e6, "us"));
    }
    let text = Workload::text(768 * SEQ_LEN, 1);
    if let WorkloadData::Text { train, .. } = &text.data {
        let windows = (0..train.num_windows(SEQ_LEN)).collect();
        let mut cursor = TextBatchCursor::new(windows, SEQ_LEN, 8);
        let secs = time_per_call(3, 51, 8, || {
            black_box(cursor.next_batch(train));
        });
        out.push(Metric::new("data.next_batch_us.text", secs * 1e6, "us"));
    }
    // a VggMini-sized gradient: its squared norm, then the window-25 EWMA
    let grad = filled(14_644, 3);
    let mut tracker = RelativeGradChange::new(25, 0.02);
    let secs = time_per_call(3, 51, 8, || {
        black_box(tracker.update(sqnorm_slice(black_box(&grad))));
    });
    out.push(Metric::new("stats.relchange_update_us", secs * 1e6, "us"));
}

fn codec_rows(out: &mut Vec<Metric>) {
    for (label, len, reps) in [("64k", LEN_64K, 31), ("4m", LEN_4M, 9)] {
        let payload = Payload::Params(filled(len, 4));
        let gb = payload.wire_bytes() as f64 / 1e9;
        let secs = time_per_call(2, reps, 1, || {
            black_box(encode_frame(0, 7, black_box(&payload)));
        });
        out.push(Metric::new(
            format!("net.codec.encode_gbps.{label}"),
            gb / secs,
            "GB/s",
        ));
        let frame = encode_frame(0, 7, &payload);
        let secs = time_per_call(2, reps, 1, || {
            black_box(decode_frame(black_box(&frame)).expect("own frame decodes"));
        });
        out.push(Metric::new(
            format!("net.codec.decode_gbps.{label}"),
            gb / secs,
            "GB/s",
        ));
    }
    let bytes = vec![0xA5u8; 4 * LEN_4M];
    let secs = time_per_call(2, 9, 1, || {
        black_box(crc32(black_box(&bytes)));
    });
    out.push(Metric::new(
        "net.codec.crc32_gbps",
        bytes.len() as f64 / 1e9 / secs,
        "GB/s",
    ));
    // the frame the two-worker flags allgather sends every step
    let flags = Payload::Flags(vec![1]);
    let secs = time_per_call(3, 51, 64, || {
        black_box(encode_frame(0, 7, black_box(&flags)));
    });
    out.push(Metric::new("net.codec.encode_flags_us", secs * 1e6, "us"));
    let frame = encode_frame(0, 7, &flags);
    let secs = time_per_call(3, 51, 64, || {
        black_box(decode_frame(black_box(&frame)).expect("own frame decodes"));
    });
    out.push(Metric::new("net.codec.decode_flags_us", secs * 1e6, "us"));
}

/// Run `rank0` and `rank1` on the two ends of a fresh mesh; returns what
/// `rank0` measured and the link faults both ends saw.
fn on_pair<E: Mesh, R: Send>(
    rank0: impl FnOnce(&mut E) -> R + Send,
    rank1: impl FnOnce(&mut E) + Send,
) -> (R, usize) {
    let mut eps = E::connect(2).expect("two-rank mesh");
    let (a, b) = eps.split_at_mut(1);
    let measured = thread::scope(|s| {
        let peer = s.spawn(|| rank1(&mut b[0]));
        let measured = rank0(&mut a[0]);
        peer.join().expect("peer thread panicked");
        measured
    });
    let faults = eps.iter_mut().map(Mesh::link_fault_count).sum();
    (measured, faults)
}

/// Median round trip of a `Control` frame between two ranks, in seconds.
fn pingpong<E: Mesh>(reps: u64) -> (f64, usize) {
    const WARM: u64 = 20;
    let total = WARM + reps;
    on_pair::<E, _>(
        |ep| {
            let mut samples = Vec::with_capacity(reps as usize);
            for i in 0..total {
                let start = Instant::now();
                ep.send(1, i, Payload::Control(i)).expect("ping");
                ep.recv_tagged(Some(1), i).expect("pong");
                if i >= WARM {
                    samples.push(start.elapsed().as_secs_f64());
                }
            }
            median(&samples)
        },
        |ep| {
            for i in 0..total {
                let m = ep.recv_tagged(Some(0), i).expect("ping");
                ep.send(0, i, m.payload).expect("pong");
            }
        },
    )
}

/// One-way streaming rate of 4 MB frames: the median of `bursts` bursts
/// of `frames` frames, each burst timed from the first send to the
/// receiver's acknowledgement of the last frame. Bytes per second.
fn stream<E: Mesh>(bursts: u64, frames: u64) -> (f64, usize) {
    let payload = Arc::new(filled(LEN_4M, 5));
    let burst_bytes =
        frames as f64 * Payload::SharedParams(Arc::clone(&payload)).wire_bytes() as f64;
    on_pair::<E, _>(
        |ep| {
            let samples: Vec<f64> = (0..bursts)
                .map(|burst| {
                    let start = Instant::now();
                    for _ in 0..frames {
                        // shares the buffer: the copy a `Params` clone
                        // would cost is not the fabric's
                        ep.send(1, burst, Payload::SharedParams(Arc::clone(&payload)))
                            .expect("stream frame");
                    }
                    ep.recv_tagged(Some(1), burst).expect("ack");
                    burst_bytes / start.elapsed().as_secs_f64()
                })
                .collect();
            median(&samples)
        },
        |ep| {
            for burst in 0..bursts {
                for _ in 0..frames {
                    ep.recv_tagged(Some(0), burst).expect("stream frame");
                }
                ep.send(0, burst, Payload::Control(burst)).expect("ack");
            }
        },
    )
}

/// Median seconds per two-worker flags allgather, timed on rank 0.
fn allgather<E: Mesh>(reps: u64) -> (f64, usize) {
    const WARM: u64 = 20;
    let total = WARM + reps;
    on_pair::<E, _>(
        |ep| {
            let mut samples = Vec::with_capacity(reps as usize);
            for step in 0..total {
                let start = Instant::now();
                allgather_flags(ep, 2, step, 1).expect("allgather");
                if step >= WARM {
                    samples.push(start.elapsed().as_secs_f64());
                }
            }
            median(&samples)
        },
        |ep| {
            for step in 0..total {
                allgather_flags(ep, 2, step, 0).expect("allgather");
            }
        },
    )
}

/// Median seconds per PS round — every worker pushes `len` floats with
/// `sync_round`, `run_round_server` reduces and replies — timed on
/// worker 0 after two warm-up rounds.
fn ps_round<E: Mesh>(len: usize, reps: u64) -> (f64, usize) {
    const WARM: u64 = 2;
    let total = WARM + reps;
    let push = filled(len, 6);
    let mut eps = E::connect(N_WORKERS + 1).expect("PS mesh");
    let (workers, server) = eps.split_at_mut(N_WORKERS);
    let measured = thread::scope(|s| {
        s.spawn(|| run_round_server(&mut server[0], N_WORKERS, Vec::new()).expect("round server"));
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|ep| {
                let push = &push;
                s.spawn(move || {
                    let mut samples = Vec::with_capacity(reps as usize);
                    for round in 0..total {
                        let start = Instant::now();
                        sync_round(ep, N_WORKERS, round, SyncRequest::PushGrads(push.clone()))
                            .expect("sync round");
                        if round >= WARM {
                            samples.push(start.elapsed().as_secs_f64());
                        }
                    }
                    send_shutdown(ep, N_WORKERS, total).expect("shutdown");
                    median(&samples)
                })
            })
            .collect();
        let per_worker: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        per_worker[0]
    });
    let faults = eps.iter_mut().map(Mesh::link_fault_count).sum();
    (measured, faults)
}

/// Fabric and comm rows; returns the link faults seen on the way.
fn fabric_and_comm_rows(out: &mut Vec<Metric>) -> usize {
    let mut faults = 0;
    let mut row =
        |out: &mut Vec<Metric>, name: String, (value, f): (f64, usize), scale: f64, unit| {
            faults += f;
            out.push(Metric::new(name, value * scale, unit));
            value
        };
    row(
        out,
        "net.fabric.pingpong_us.chan".into(),
        pingpong::<Endpoint>(2000),
        1e6,
        "us",
    );
    let rtt_tcp = row(
        out,
        "net.fabric.pingpong_us.tcp".into(),
        pingpong::<TcpEndpoint>(1000),
        1e6,
        "us",
    );
    row(
        out,
        "net.fabric.pingpong_us.poll".into(),
        pingpong::<PollTcpEndpoint>(300),
        1e6,
        "us",
    );
    let rate_tcp = row(
        out,
        "net.fabric.stream_gbps.tcp".into(),
        stream::<TcpEndpoint>(3, 8),
        1e-9,
        "GB/s",
    );
    row(
        out,
        "net.fabric.stream_gbps.poll".into(),
        stream::<PollTcpEndpoint>(3, 8),
        1e-9,
        "GB/s",
    );
    row(
        out,
        "comm.allgather_flags_us.chan".into(),
        allgather::<Endpoint>(2000),
        1e6,
        "us",
    );
    row(
        out,
        "comm.allgather_flags_us.tcp".into(),
        allgather::<TcpEndpoint>(1000),
        1e6,
        "us",
    );
    row(
        out,
        "comm.allgather_flags_us.poll".into(),
        allgather::<PollTcpEndpoint>(300),
        1e6,
        "us",
    );
    row(
        out,
        "comm.ps_round_ms.chan.64k".into(),
        ps_round::<Endpoint>(LEN_64K, 200),
        1e3,
        "ms",
    );
    row(
        out,
        "comm.ps_round_ms.chan.4m".into(),
        ps_round::<Endpoint>(LEN_4M, 11),
        1e3,
        "ms",
    );
    let round_tcp = row(
        out,
        "comm.ps_round_ms.tcp.4m".into(),
        ps_round::<TcpEndpoint>(LEN_4M, 9),
        1e3,
        "ms",
    );
    // the closed form, fed this host's measured link instead of the
    // paper's 5 Gbps, against the round it is meant to predict
    let model = NetworkModel {
        bandwidth_bps: rate_tcp * 8.0,
        latency_s: rtt_tcp / 2.0,
        ps_parallelism: 1.0,
    };
    let predicted = model.ps_sync_time(4 * LEN_4M as u64, N_WORKERS);
    out.push(Metric::new(
        "comm.netmodel_ps_sync_rel_err",
        ((predicted - round_tcp) / round_tcp).abs(),
        "ratio",
    ));
    faults
}

/// Run every direct row. `net.link_faults` counts the byte-level faults
/// the ladder's own meshes reported (expected 0).
pub fn run_ladder() -> Vec<Metric> {
    let mut out = Vec::new();
    tensor_rows(&mut out);
    nn_rows(&mut out);
    data_and_stats_rows(&mut out);
    codec_rows(&mut out);
    let faults = fabric_and_comm_rows(&mut out);
    out.push(Metric::new("net.link_faults", faults as f64, "count"));
    out
}
