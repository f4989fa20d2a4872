// fixture: true negative for unsafe-outside-kernels — this one file of
// crates/comm holds the carry-less-multiply checksum kernel, so a
// documented unsafe block is permitted here.
fn first(xs: &[u8]) -> u8 {
    assert!(!xs.is_empty());
    // SAFETY: the assert above guarantees one element.
    unsafe { *xs.as_ptr() }
}
