// Fixture: libm-call polices the model crates only.
pub fn decay(t: f64) -> f64 {
    (-t).exp()
}
