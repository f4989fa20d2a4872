// fixture: true positive for nondet-time — the elastic server's protocol
// core sits beside the allowlisted shell but is not itself allowlisted:
// its decisions take the time as an argument and must never read it.
use std::time::Instant;

pub fn grace_deadline() -> Instant {
    Instant::now()
}
