// Fixture: per-element libm calls on the step path — both fire.
pub fn softmax(row: &mut [f32]) {
    for v in row.iter_mut() {
        *v = v.exp();
    }
    let t = f32::tanh(row[0]);
    row[0] = t;
}
