// Fixture: outside crates/tensor/src the rule does not run.
fn zero() -> f32 {
    let v = std::arch::x86_64::_mm_setzero_ps();
    let _ = v;
    0.0
}
