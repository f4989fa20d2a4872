//! `set_reference_mode(true)` reroutes the GEMMs under the convolution
//! through the naive kernels, which associate the k-sum differently from
//! the packed ones; the layer must still agree within the tolerance the
//! kernel checksums use. The switch is process-global, so this test has
//! a binary to itself.

use rand::rngs::StdRng;
use rand::SeedableRng;
use selsync_nn::layers::Conv2d;
use selsync_nn::module::ParamVisitor;
use selsync_nn::{Module, Workspace};
use selsync_tensor::{init, set_reference_mode, Tensor};

fn close(a: &Tensor, b: &Tensor) -> bool {
    a.shape().same(b.shape())
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| (x - y).abs() <= 1e-3 * y.abs().max(1.0))
}

#[test]
fn conv2d_in_reference_mode_stays_within_tolerance() {
    // (in_ch, out_ch, h, w, kernel, stride, pad); the last crosses KC
    for (ic, oc, h, w, k, s, p) in [
        (8, 8, 8, 8, 3, 1, 1),
        (8, 16, 8, 8, 3, 2, 1),
        (3, 5, 7, 6, 5, 1, 2),
        (32, 7, 8, 8, 3, 1, 1),
    ] {
        let mut rng = StdRng::seed_from_u64(7);
        let mut c = Conv2d::new("c", ic, oc, h, w, k, s, p, &mut rng);
        let x = init::randn([5, ic, h, w], 1.0, &mut rng);
        let dy = init::randn([5, oc, c.out_h(), c.out_w()], 1.0, &mut rng);
        let mut ws = Workspace::new();
        let mut run = |c: &mut Conv2d| {
            let y = c.forward(&x, true, &mut ws);
            c.zero_grad();
            let dx = c.backward(&dy, &mut ws);
            (y, dx, c.w.grad.clone(), c.b.grad.clone())
        };
        let packed = run(&mut c);
        set_reference_mode(true);
        let naive = run(&mut c);
        set_reference_mode(false);
        assert!(close(&packed.0, &naive.0), "y {ic}->{oc} k{k} s{s}");
        assert!(close(&packed.1, &naive.1), "dx {ic}->{oc} k{k} s{s}");
        assert!(close(&packed.2, &naive.2), "dW {ic}->{oc} k{k} s{s}");
        assert!(close(&packed.3, &naive.3), "db {ic}->{oc} k{k} s{s}");
    }
}
