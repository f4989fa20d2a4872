// fixture: true negative for poll-blocking — the driver uses try_recv
// (nonblocking) and only *declares* poll(2), and the blocking connect
// and the poll call live in a setup path the driver loop never calls,
// so the call graph keeps them out of scope.
pub fn driver_loop(endpoint: &mut Endpoint) {
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }
    loop {
        if let Ok(msg) = endpoint.control.try_recv() {
            endpoint.apply(msg);
        }
        if endpoint.queue_empty() || endpoint.poll_interval.is_zero() {
            return;
        }
    }
}

pub fn blocking_setup(addr: &str) -> Endpoint {
    let stream = TcpStream::connect(addr);
    let mut endpoint = Endpoint::new(stream);
    // SAFETY: fds holds at least the one record poll is told about
    unsafe { poll(endpoint.fds.as_mut_ptr(), 1, -1) };
    endpoint
}
