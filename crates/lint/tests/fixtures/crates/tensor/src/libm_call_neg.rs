// Fixture: nothing here fires libm-call.
// A comment that says x.exp() is not a call.
pub fn kernel(xs: &mut [f32]) -> f32 {
    let s = "x.ln() in a string";
    for x in xs.iter_mut() {
        // instructions, not libm calls
        *x = x.sqrt().mul_add(2.0, x.abs());
    }
    // lint:allow(libm-call): set-up only, once per call, not per element
    let scale = (xs.len() as f32).ln();
    scale + s.len() as f32
}

#[cfg(test)]
mod tests {
    #[test]
    fn oracle() {
        assert!(1.0f32.exp() > 2.0);
    }
}
