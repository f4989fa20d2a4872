// fixture: suppression lifecycle for poll-blocking — a justified
// lint:allow silences the deliberate bounded readiness wait, and no
// bare-allow / unused-allow hygiene findings appear.
pub fn driver_loop(endpoint: &mut Endpoint) {
    loop {
        if endpoint.sweep() {
            continue;
        }
        // SAFETY: fds is a live slice and nfds() is its exact length
        // lint:allow(poll-blocking): readiness wait bounded by PARK_CAP (100ms)
        unsafe { poll(endpoint.fds.as_mut_ptr(), endpoint.nfds(), 100) };
        if endpoint.done() {
            return;
        }
    }
}
