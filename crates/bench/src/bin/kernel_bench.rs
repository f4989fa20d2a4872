//! Kernel micro-benchmarks — the perf trajectory recorder.
//!
//! Times the packed/tiled GEMM kernels, the im2col-based convolution
//! and the attention layer against the naive reference kernels kept in
//! `selsync_tensor::matmul::reference`, plus end-to-end
//! `run_distributed` steps/sec for the mini workloads, and writes the
//! whole table to `BENCH_kernels.json` at the repo root.
//!
//! Every kernel row carries a checksum of its output; an optimized row
//! whose checksum diverges from the reference row beyond float
//! reassociation tolerance fails the run (nonzero exit), so CI catches
//! a kernel that got fast by getting wrong. Training rows carry no
//! checksum comparison — reference and optimized kernels reassociate
//! float sums differently, so their trajectories legitimately diverge.
//! The `overlap_steps_per_sec` rows are stricter: the bucketed pipeline
//! reduces in a fixed order by construction (DESIGN.md §12), so the
//! `overlap=on` row must match `overlap=off` **bit for bit** — any
//! divergence fails the run.
//!
//! Flags:
//!
//! * `--quick`      smaller rep counts and train budgets (CI scale)
//! * `--reference`  emit only the reference (baseline) rows
//! * `--out PATH`   write the JSON table here (default BENCH_kernels.json)

use selsync_bench::{banner, json_row, paper_config, Scale};
use selsync_core::prelude::*;
use selsync_nn::layers::{Conv2d, MultiHeadSelfAttention};
use selsync_nn::module::ParamVisitor;
use selsync_nn::{Module, Workspace};
use selsync_tensor::matmul::{matmul_into, matmul_nt_into, matmul_tn_into, set_reference_mode};
use selsync_tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Instant;

/// Relative tolerance for reference-vs-optimized checksums: the packed
/// kernels reassociate the k-dimension sum (KC blocking + FMA), so
/// bit-equality is not expected, but anything past ~1e-3 relative on a
/// whole-matrix sum means a real indexing bug, not rounding.
const CHECKSUM_RTOL: f64 = 1e-3;

// Plain field names and explicit nulls: the vendored offline serde
// derive does not process field attributes (rename / skip_serializing),
// so the schema uses what the derive actually emits.
#[derive(Debug, Serialize, Deserialize)]
struct Row {
    bench: String,
    shape: String,
    impl_name: String,
    ms_per_call: f64,
    gflops: Option<f64>,
    steps_per_sec: Option<f64>,
    checksum: f64,
    checksum_ok: Option<bool>,
}

#[derive(Debug, Serialize, Deserialize)]
struct Report {
    schema: String,
    mode: String,
    rows: Vec<Row>,
}

/// Deterministic pseudo-random fill (no RNG dependency, same data every
/// run and in both impl modes).
fn fill(t: &mut Tensor, seed: u64) {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    for x in t.as_mut_slice() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *x = ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5;
    }
}

fn filled(shape: [usize; 2], seed: u64) -> Tensor {
    let mut t = Tensor::zeros(shape);
    fill(&mut t, seed);
    t
}

fn checksum(t: &Tensor) -> f64 {
    t.as_slice().iter().map(|&x| x as f64).sum()
}

/// Time `f` over enough repetitions to fill `min_secs`, returning
/// ms/call. One warm-up call runs first (fills pack buffers, pages in
/// the operands), then a probe call sizes the rep count.
fn time_ms<F: FnMut()>(mut f: F, min_secs: f64) -> f64 {
    f();
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-6);
    let reps = ((min_secs / once).ceil() as usize).clamp(1, 10_000);
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_secs_f64() * 1e3 / reps as f64
}

struct Bench {
    quick: bool,
    reference_only: bool,
    rows: Vec<Row>,
    failures: Vec<String>,
}

impl Bench {
    fn min_secs(&self) -> f64 {
        if self.quick {
            0.1
        } else {
            0.5
        }
    }

    fn impls(&self) -> &'static [bool] {
        // reference first so the optimized row can compare against it
        if self.reference_only {
            &[true]
        } else {
            &[true, false]
        }
    }

    /// Run one kernel benchmark in reference and optimized mode.
    /// `flops` is per call (0 = don't report GFLOP/s); `check`
    /// summarizes whatever output `run` produced last.
    fn kernel<F, C>(&mut self, bench: &str, shape: &str, flops: f64, mut run: F, check: C)
    where
        F: FnMut(),
        C: Fn() -> f64,
    {
        let mut reference_sum = None;
        for &reference in self.impls() {
            set_reference_mode(reference);
            let ms = time_ms(&mut run, self.min_secs());
            set_reference_mode(false);
            let sum = check();
            let checksum_ok = if reference {
                reference_sum = Some(sum);
                None
            } else {
                let want = reference_sum.expect("reference row ran first");
                let tol = CHECKSUM_RTOL * want.abs().max(1.0);
                Some((sum - want).abs() <= tol)
            };
            if checksum_ok == Some(false) {
                self.failures.push(format!(
                    "{bench} {shape}: optimized checksum {sum} diverged from reference {}",
                    reference_sum.unwrap_or(f64::NAN)
                ));
            }
            self.push(Row {
                bench: bench.to_string(),
                shape: shape.to_string(),
                impl_name: if reference { "reference" } else { "optimized" }.to_string(),
                ms_per_call: ms,
                gflops: (flops > 0.0).then(|| flops / (ms * 1e-3) / 1e9),
                steps_per_sec: None,
                checksum: sum,
                checksum_ok,
            });
        }
    }

    /// End-to-end distributed training throughput for one mini model.
    fn train(&mut self, kind: ModelKind, scale: &Scale) {
        let workload = Workload::for_kind(kind, scale.data, 42);
        let config = paper_config(
            kind,
            Strategy::SelSync {
                delta: 0.3,
                aggregation: Aggregation::Parameter,
            },
            scale,
        );
        for &reference in self.impls() {
            set_reference_mode(reference);
            let start = Instant::now();
            let result = run_distributed(&config, &workload);
            let secs = start.elapsed().as_secs_f64();
            set_reference_mode(false);
            self.push(Row {
                bench: "train_steps_per_sec".to_string(),
                shape: format!("{}:w{}b8", kind.paper_name(), scale.workers),
                impl_name: if reference { "reference" } else { "optimized" }.to_string(),
                ms_per_call: secs * 1e3 / scale.steps as f64,
                gflops: None,
                steps_per_sec: Some(scale.steps as f64 / secs),
                checksum: result.final_params.iter().map(|&x| x as f64).sum(),
                // trajectories under the two kernel sets legitimately
                // differ (float reassociation), so no equality check
                checksum_ok: None,
            });
        }
    }

    /// Bucketed compute/comm overlap rows (DESIGN.md §12): run the
    /// real BSP+GA cluster monolithic (`overlap=off`) and bucketed
    /// (`overlap=on`) — the two runs must produce bit-identical final
    /// parameters, checked here exactly, not within tolerance — and
    /// report the paper-scale modeled steps/sec at the 5 Gbps point:
    /// serial `1/(Tc+Ts)` vs pipelined `1/max(Tc, Ts)`. The `ms_per_call`
    /// column carries the real local wall time per step.
    fn overlap(&mut self, kind: ModelKind, scale: &Scale) {
        let workload = Workload::for_kind(kind, scale.data, 42);
        let base = paper_config(
            kind,
            Strategy::Bsp {
                aggregation: Aggregation::Gradient,
            },
            scale,
        );
        let p = TimingParams::paper(kind, scale.workers);
        let serial_step = p.compute_time_s + p.net.ps_sync_time(p.model_bytes, p.n_workers);
        let pipelined_step =
            p.net
                .pipelined_sync_time(p.model_bytes, p.n_workers, p.compute_time_s);
        set_reference_mode(self.reference_only);
        let mut baseline_bits: Option<Vec<u32>> = None;
        for overlap_on in [false, true] {
            let mut config = base.clone();
            config.overlap_buckets = overlap_on.then_some(4096);
            let start = Instant::now();
            let result = run_distributed(&config, &workload);
            let secs = start.elapsed().as_secs_f64();
            let bits: Vec<u32> = result.final_params.iter().map(|v| v.to_bits()).collect();
            let checksum_ok = if overlap_on {
                Some(baseline_bits.as_deref() == Some(&bits[..]))
            } else {
                baseline_bits = Some(bits);
                None
            };
            if checksum_ok == Some(false) {
                self.failures.push(format!(
                    "overlap_steps_per_sec {}: bucketed run diverged bit-wise from monolithic",
                    kind.paper_name()
                ));
            }
            self.push(Row {
                bench: "overlap_steps_per_sec".to_string(),
                shape: format!("{}:w{}b8", kind.paper_name(), scale.workers),
                impl_name: if overlap_on {
                    "overlap=on"
                } else {
                    "overlap=off"
                }
                .to_string(),
                ms_per_call: secs * 1e3 / scale.steps as f64,
                gflops: None,
                steps_per_sec: Some(
                    1.0 / if overlap_on {
                        pipelined_step
                    } else {
                        serial_step
                    },
                ),
                checksum: result.final_params.iter().map(|&x| x as f64).sum(),
                checksum_ok,
            });
        }
        set_reference_mode(false);
    }

    fn push(&mut self, row: Row) {
        println!(
            "{:<20} {:<26} {:<10} {:>10.3} ms {}",
            row.bench,
            row.shape,
            row.impl_name,
            row.ms_per_call,
            match (row.gflops, row.steps_per_sec) {
                (Some(g), _) => format!("{g:>8.2} GFLOP/s"),
                (_, Some(s)) => format!("{s:>8.2} steps/s"),
                _ => String::new(),
            }
        );
        json_row(&row);
        self.rows.push(row);
    }
}

fn matmul_benches(b: &mut Bench) {
    // (label, m, k, n): the acceptance shape plus shapes the minis
    // actually hit (transformer FF/projection GEMMs, conv im2col GEMMs)
    let nn_shapes: &[(&str, usize, usize, usize)] = &[
        ("256x256x256", 256, 256, 256),
        ("transformer-ff:128x64x128", 128, 64, 128),
        ("conv-gemm:256x72x8", 256, 72, 8),
    ];
    for &(label, m, k, n) in nn_shapes {
        let a = filled([m, k], 1);
        let bm = filled([k, n], 2);
        let c = RefCell::new(Tensor::zeros([m, n]));
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        b.kernel(
            "matmul_nn",
            label,
            flops,
            || matmul_into(&a, &bm, &mut c.borrow_mut()),
            || checksum(&c.borrow()),
        );
    }
    // transposed variants at the acceptance shape
    let (m, k, n) = (256usize, 256usize, 256usize);
    let flops = 2.0 * (m * k * n) as f64;
    {
        let a = filled([m, k], 3);
        let bm = filled([m, n], 4);
        let c = RefCell::new(Tensor::zeros([k, n]));
        b.kernel(
            "matmul_tn",
            "256x256x256",
            flops,
            || matmul_tn_into(&a, &bm, &mut c.borrow_mut()),
            || checksum(&c.borrow()),
        );
    }
    {
        let a = filled([m, n], 5);
        let bm = filled([k, n], 6);
        let c = RefCell::new(Tensor::zeros([m, k]));
        b.kernel(
            "matmul_nt",
            "256x256x256",
            flops,
            || matmul_nt_into(&a, &bm, &mut c.borrow_mut()),
            || checksum(&c.borrow()),
        );
    }
}

fn layer_benches(b: &mut Bench) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // ResNetMini block-1 geometry: 8 images of 8×16×16, 3×3 kernel; both
    // directions, recycling buffers as the models do
    let mut rng = StdRng::seed_from_u64(7);
    let conv = RefCell::new(Conv2d::new("bench.conv", 8, 8, 16, 16, 3, 1, 1, &mut rng));
    let ws = RefCell::new(Workspace::new());
    let mut x = Tensor::zeros([8, 8, 16, 16]);
    fill(&mut x, 8);
    let out = RefCell::new(Tensor::zeros([0]));
    let flops = 2.0 * (8 * 16 * 16) as f64 * (8 * 3 * 3) as f64 * 8.0;
    // hand the previous call's output back, as a model's step does
    let recycle = |ws: &mut Workspace, next: Tensor| ws.give(out.replace(next));
    b.kernel(
        "conv2d_fwd",
        "8x8x16x16-k3",
        flops,
        || {
            let ws = &mut *ws.borrow_mut();
            let y = conv.borrow_mut().forward(&x, false, ws);
            recycle(ws, y);
        },
        || checksum(&out.borrow()),
    );
    // dW and dcols GEMMs: twice the forward's flops. The forward above
    // left the layer's im2col cache for `x` in place.
    let mut dy = Tensor::zeros([8, 8, 16, 16]);
    fill(&mut dy, 11);
    b.kernel(
        "conv2d_bwd",
        "8x8x16x16-k3",
        2.0 * flops,
        || {
            let ws = &mut *ws.borrow_mut();
            let mut conv = conv.borrow_mut();
            conv.zero_grad();
            let dx = conv.backward(&dy, ws);
            recycle(ws, dx);
        },
        // input gradient plus the weight gradient it was computed beside
        || checksum(&out.borrow()) + checksum(&conv.borrow().w.grad),
    );

    // batch 4, seq 32, dim 64, 4 heads: a larger attention than any model
    // here runs (TransformerMini is batch 8, seq 12, dim 16, 2 heads; its
    // layer-by-layer table is DESIGN.md §7's)
    let mut rng = StdRng::seed_from_u64(9);
    let attn = RefCell::new(MultiHeadSelfAttention::new("bench.attn", 64, 4, &mut rng));
    let x = filled([4 * 32, 64], 10);
    b.kernel(
        "attention_fwd",
        "b4-s32-d64-h4",
        0.0,
        || {
            let ws = &mut *ws.borrow_mut();
            let y = attn.borrow_mut().forward_seq(&x, 4, 32, true, ws);
            recycle(ws, y);
        },
        || checksum(&out.borrow()),
    );
}

fn parse_flags(args: &[String]) -> Result<(bool, bool, String), String> {
    let mut quick = false;
    let mut reference_only = false;
    let mut out_path = "BENCH_kernels.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--reference" => reference_only = true,
            "--out" => {
                out_path = it.next().ok_or("missing value for --out")?.clone();
            }
            other => {
                return Err(format!(
                    "unknown flag '{other}' (kernel_bench [--quick] [--reference] [--out PATH])"
                ))
            }
        }
    }
    Ok((quick, reference_only, out_path))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, reference_only, out_path) = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };

    banner(
        "Kernels",
        "Packed-GEMM / conv / attention / train throughput",
    );
    let mut b = Bench {
        quick,
        reference_only,
        rows: Vec::new(),
        failures: Vec::new(),
    };

    matmul_benches(&mut b);
    layer_benches(&mut b);

    let train_scale = Scale {
        workers: 4,
        steps: if quick { 12 } else { 48 },
        data: if quick { 192 } else { 512 },
        eval_every: u64::MAX, // timing run: one eval at the end only
    };
    let kinds: &[ModelKind] = if quick {
        &[ModelKind::ResNetMini, ModelKind::TransformerMini]
    } else {
        &ModelKind::ALL
    };
    for &kind in kinds {
        b.train(kind, &train_scale);
    }
    for &kind in kinds {
        b.overlap(kind, &train_scale);
    }

    let report = Report {
        schema: "selsync-kernel-bench-v1".to_string(),
        mode: if quick { "quick" } else { "full" }.to_string(),
        rows: b.rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));

    // Re-read and validate what actually landed on disk: CI trusts the
    // file, so the file (not the in-memory table) is what gets checked.
    let disk = std::fs::read_to_string(&out_path).expect("re-read report");
    let parsed: Report = match serde_json::from_str(&disk) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("FAIL: {out_path} is not valid kernel-bench JSON: {e}");
            std::process::exit(1);
        }
    };
    let mut failures = b.failures;
    for row in &parsed.rows {
        if !row.ms_per_call.is_finite() || row.ms_per_call <= 0.0 {
            failures.push(format!(
                "{} {} ({}): non-positive ms_per_call {}",
                row.bench, row.shape, row.impl_name, row.ms_per_call
            ));
        }
        if row.checksum_ok == Some(false) {
            failures.push(format!(
                "{} {} ({}): checksum diverged on disk",
                row.bench, row.shape, row.impl_name
            ));
        }
    }
    println!("\nwrote {} rows to {out_path}", parsed.rows.len());
    if !failures.is_empty() {
        failures.sort();
        failures.dedup();
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("all checksums within {CHECKSUM_RTOL} relative tolerance");
}
