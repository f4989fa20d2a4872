//! Torn-frame sweep against the real TCP readers: a raw connection
//! delivers an encoded frame truncated at every possible byte
//! boundary, and each cut must surface as a typed link fault carrying
//! the peer address and stream byte offset — never a panic, never a
//! silent generic disconnect. Plus: CRC damage and hostile length
//! prefixes on the wire are typed and tallied the same way. The whole
//! suite runs once per socket driver; the contract is the endpoint's,
//! not a driver's.

use selsync_comm::{Payload, Transport, TransportError};
use selsync_net::{encode_frame, encode_handshake, PollTcpEndpoint, TcpEndpoint, HANDSHAKE_BYTES};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

/// The suite over endpoint type `$Ep`, as test module `$driver`.
macro_rules! torn_frame_suite {
    ($driver:ident, $Ep:ty) => {
        mod $driver {
            use super::*;
            type Ep = $Ep;

            /// A two-rank loopback fabric; rank 0 is the observation point.
            fn fabric2(max_frame_bytes: usize) -> (Ep, Ep) {
                let mut eps = Ep::loopback_mesh(2, |config| {
                    config.recv_timeout = Duration::from_secs(20);
                    config.max_frame_bytes = max_frame_bytes;
                })
                .unwrap();
                let b = eps.pop().unwrap();
                let a = eps.pop().unwrap();
                (a, b)
            }

            /// Open a raw connection into `ep`'s listener and complete the
            /// protocol preamble, returning a stream ready for frame bytes.
            fn raw_dial(ep: &Ep) -> TcpStream {
                let mut s = TcpStream::connect(ep.local_addr()).unwrap();
                s.write_all(&encode_handshake()).unwrap();
                let mut echo = [0u8; HANDSHAKE_BYTES];
                s.read_exact(&mut echo).unwrap();
                s
            }

            /// Poll until rank 0 has collected `want` link faults (drivers report
            /// asynchronously).
            fn wait_for_faults(ep: &mut Ep, want: usize) -> usize {
                let deadline = Instant::now() + Duration::from_secs(20);
                loop {
                    let have = ep.link_faults().len();
                    if have >= want || Instant::now() >= deadline {
                        return have;
                    }
                    thread::sleep(Duration::from_millis(10));
                }
            }

            #[test]
            fn every_truncation_boundary_is_a_typed_fault() {
                let (mut a, b) = fabric2(1 << 30);
                let frame = encode_frame(1, 42, &Payload::Params(vec![1.0, -2.0, 3.5])).to_vec();

                // cut the frame at every boundary short of complete: 1..4 tears the
                // length prefix itself, 4.. tears the body
                let cuts: Vec<usize> = (1..frame.len()).collect();
                for &cut in &cuts {
                    let mut s = raw_dial(&a);
                    s.write_all(&frame[..cut]).unwrap();
                    drop(s); // FIN mid-frame
                }

                let got = wait_for_faults(&mut a, cuts.len());
                assert_eq!(got, cuts.len(), "one typed fault per torn connection");
                for f in a.link_faults() {
                    match &f.error {
                        TransportError::Protocol(detail) => {
                            assert!(
                                detail.contains("torn frame") && detail.contains("byte offset"),
                                "fault lacks torn-frame context: {detail}"
                            );
                            assert!(detail.contains(&f.peer.to_string()), "fault names its peer");
                        }
                        other => panic!("torn frame surfaced as {other:?}, not Protocol"),
                    }
                    // every fault's offset lands inside the attempted first frame
                    // (positions count from after the 8-byte handshake)
                    assert!(
                        (f.offset as usize) < HANDSHAKE_BYTES + frame.len(),
                        "offset {} outside the torn frame",
                        f.offset
                    );
                }
                // torn frames are damage, tallied as corrupt — one per connection
                assert_eq!(a.stats().corrupt_messages(), cuts.len() as u64);

                // the un-torn control case: the complete frame still delivers
                let mut s = raw_dial(&a);
                s.write_all(&frame).unwrap();
                let m = a
                    .recv_deadline(Some(1), Some(42), Duration::from_secs(10))
                    .expect("pristine frame after the sweep");
                assert_eq!(m.payload, Payload::Params(vec![1.0, -2.0, 3.5]));
                drop(s);
                a.close();
                b.close();
            }

            #[test]
            fn crc_damage_on_the_wire_is_typed_and_tallied() {
                let (mut a, b) = fabric2(1 << 30);
                let mut frame = encode_frame(1, 7, &Payload::Params(vec![4.0, 5.0])).to_vec();
                frame[20] ^= 0x40; // flip one covered bit; CRC must catch it

                let mut s = raw_dial(&a);
                s.write_all(&frame).unwrap();
                let got = wait_for_faults(&mut a, 1);
                assert_eq!(got, 1);
                let f = &a.link_faults()[0];
                match &f.error {
                    TransportError::Protocol(detail) => {
                        assert!(
                            detail.contains("CRC"),
                            "fault should name the CRC: {detail}"
                        );
                    }
                    other => panic!("CRC damage surfaced as {other:?}"),
                }
                assert_eq!(f.offset, HANDSHAKE_BYTES as u64, "fault at the first frame");
                assert_eq!(a.stats().corrupt_messages(), 1);
                assert_eq!(a.stats().corrupt_bytes(), frame.len() as u64);
                drop(s);

                // only the damaged connection was torn down: a fresh one delivers
                let mut clean = raw_dial(&a);
                clean
                    .write_all(&encode_frame(1, 8, &Payload::Control(8)))
                    .unwrap();
                let m = a
                    .recv_deadline(Some(1), Some(8), Duration::from_secs(10))
                    .expect("clean frame on a fresh connection");
                assert_eq!(m.payload, Payload::Control(8));
                drop(clean);
                a.close();
                b.close();
            }

            #[test]
            fn hostile_length_prefix_respects_the_configured_cap() {
                // a deliberately tiny cap: a frame claiming 2 KiB must be rejected
                // before any allocation, even though the default cap would take it
                // — and so must one claiming 4 GiB
                let (mut a, b) = fabric2(1024);
                for (i, claimed) in [2048u32, u32::MAX].into_iter().enumerate() {
                    let mut s = raw_dial(&a);
                    s.write_all(&claimed.to_be_bytes()).unwrap();
                    let got = wait_for_faults(&mut a, i + 1);
                    assert_eq!(got, i + 1);
                    match &a.link_faults()[i].error {
                        TransportError::Protocol(detail) => {
                            assert!(
                                detail.contains(&format!("hostile frame length {claimed}"))
                                    && detail.contains("1024"),
                                "fault should name the length and the cap: {detail}"
                            );
                        }
                        other => panic!("hostile length surfaced as {other:?}"),
                    }
                    drop(s);
                }
                a.close();
                b.close();
            }
        }
    };
}

torn_frame_suite!(blocking, TcpEndpoint);
torn_frame_suite!(poll, PollTcpEndpoint);
