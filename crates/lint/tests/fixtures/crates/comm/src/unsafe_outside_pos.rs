// fixture: true positive for unsafe-outside-kernels — the allowance for
// crates/comm/src/crc.rs is for that file, not for the comm crate.
// SAFETY comment present so this fixture isolates one rule.
fn first(xs: &[u8]) -> u8 {
    assert!(!xs.is_empty());
    // SAFETY: the assert above guarantees one element.
    unsafe { *xs.as_ptr() }
}
