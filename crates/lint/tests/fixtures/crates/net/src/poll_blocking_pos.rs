// fixture: true positive for poll-blocking — the driver loop itself
// sleeps, a helper reachable from it does a blocking channel recv, and
// another waits in poll(2) with no timeout. Any of them stalls every
// connection the single driver thread multiplexes.
pub fn driver_loop(endpoint: &mut Endpoint) {
    loop {
        sweep_once(endpoint);
        std::thread::sleep(endpoint.idle);
    }
}

fn sweep_once(endpoint: &mut Endpoint) {
    drain_control(endpoint);
    wait_forever(endpoint);
}

fn drain_control(endpoint: &mut Endpoint) {
    while let Ok(msg) = endpoint.control.recv() {
        endpoint.apply(msg);
    }
}

fn wait_forever(endpoint: &mut Endpoint) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    // SAFETY: fds is a live slice and its exact length is passed with it
    unsafe { poll(endpoint.fds.as_mut_ptr(), endpoint.fds.len() as u64, -1) };
}
