//! Wire-codec coverage: every message round-trips, malformed frames are
//! rejected with typed errors, and random bytes never panic a decoder.

use lrp_exec::Xorshift64;
use lrp_serve::codec::{
    decode_request, decode_response, encode_request, encode_response, read_frame, request_id,
    response_id, write_frame, WireError,
};
use lrp_serve::{Request, Response, MAX_FRAME};

fn all_requests() -> Vec<Request> {
    vec![
        Request::Get { id: 1, key: 42 },
        Request::Put {
            id: 2,
            key: u64::MAX,
        },
        Request::Del { id: 3, key: 0 },
        Request::Ping { id: 4 },
        Request::Crash { id: 6, shard: 3 },
        Request::Shutdown { id: u64::MAX },
        Request::Metrics { id: 8 },
        Request::Resolve {
            id: 9,
            key: 77,
            rid: (3 << 48) | 12,
        },
    ]
}

fn all_responses() -> Vec<Response> {
    vec![
        Response::Value {
            id: 1,
            present: true,
            durable: false,
            batch: 9,
            seq: 3,
        },
        Response::Done {
            id: 2,
            applied: false,
            durable: true,
            batch: 0,
            seq: u64::MAX,
            persist_cycles: 123_456,
        },
        Response::Overloaded {
            id: 3,
            retry_after_ms: 250,
            queue_depth: 64,
        },
        Response::Crashed {
            id: 4,
            shard: 1,
            batch: 17,
        },
        Response::Pong { id: 5 },
        Response::Report {
            id: 6,
            json: r#"{"record":"serve-metrics","shards":[]}"#.into(),
        },
        Response::ShuttingDown { id: 7 },
        Response::Error {
            id: 8,
            msg: "bad request: unknown opcode 0x7f".into(),
        },
        Response::Resolved {
            id: 9,
            rid: (3 << 48) | 12,
            done: true,
            applied: false,
            key: 77,
            batch: u64::MAX,
        },
        Response::Resolved {
            id: 10,
            rid: 1,
            done: false,
            applied: false,
            key: 0,
            batch: 0,
        },
    ]
}

#[test]
fn every_request_round_trips() {
    for req in all_requests() {
        let bytes = encode_request(&req);
        let back = decode_request(&bytes).unwrap_or_else(|e| panic!("{req:?}: {e}"));
        assert_eq!(back, req);
        assert_eq!(request_id(&back), request_id(&req));
    }
}

#[test]
fn every_response_round_trips() {
    for resp in all_responses() {
        let bytes = encode_response(&resp);
        let back = decode_response(&bytes).unwrap_or_else(|e| panic!("{resp:?}: {e}"));
        assert_eq!(back, resp);
        assert_eq!(response_id(&back), response_id(&resp));
    }
}

#[test]
fn framed_messages_survive_a_pipe() {
    let mut buf = Vec::new();
    for req in all_requests() {
        write_frame(&mut buf, &encode_request(&req)).unwrap();
    }
    let mut r = &buf[..];
    for req in all_requests() {
        let payload = read_frame(&mut r).unwrap().expect("frame present");
        assert_eq!(decode_request(&payload).unwrap(), req);
    }
    assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
}

#[test]
fn truncated_payloads_are_typed_errors() {
    for req in all_requests() {
        let bytes = encode_request(&req);
        for cut in 0..bytes.len() {
            match decode_request(&bytes[..cut]) {
                Err(WireError::Truncated) => {}
                Err(WireError::BadOpcode(_)) if cut == 0 => {}
                other => panic!("{req:?} cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }
    // Responses with string fields also detect truncation inside the
    // string body.
    for resp in all_responses() {
        let bytes = encode_response(&resp);
        for cut in 1..bytes.len() {
            assert!(
                decode_response(&bytes[..cut]).is_err(),
                "{resp:?} cut at {cut} decoded"
            );
        }
    }
}

#[test]
fn truncated_frames_on_the_wire_are_invalid_data() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"hello world").unwrap();
    for cut in 1..buf.len() {
        let mut r = &buf[..cut];
        let err = read_frame(&mut r).expect_err("truncated frame accepted");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "cut {cut}");
    }
}

#[test]
fn oversized_length_prefix_is_rejected_without_allocating() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
    wire.extend_from_slice(&[0u8; 16]);
    let mut r = &wire[..];
    let err = read_frame(&mut r).expect_err("oversized frame accepted");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

    // A huge declared string length inside a payload is also rejected.
    let mut payload = encode_response(&Response::Report {
        id: 1,
        json: "x".into(),
    });
    let len_at = payload.len() - 1 - 4;
    payload[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_response(&payload),
        Err(WireError::Oversized(_))
    ));
}

#[test]
fn unknown_opcodes_are_rejected_on_both_sides() {
    // 0x05 is the retired counters-only scrape.
    for op in [0x00u8, 0x05, 0x0a, 0x40, 0x7f, 0x8a, 0xff] {
        let mut payload = vec![op];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&9u64.to_le_bytes());
        let req = decode_request(&payload);
        let resp = decode_response(&payload);
        assert!(
            matches!(req, Err(WireError::BadOpcode(o)) if o == op),
            "request opcode {op:#04x}: {req:?}"
        );
        assert!(
            matches!(resp, Err(WireError::BadOpcode(o)) if o == op),
            "response opcode {op:#04x}: {resp:?}"
        );
    }
}

#[test]
fn bad_utf8_in_string_fields_is_a_typed_error() {
    let mut payload = encode_response(&Response::Error {
        id: 1,
        msg: "ab".into(),
    });
    let n = payload.len();
    payload[n - 1] = 0xff; // invalid UTF-8 continuation
    assert_eq!(decode_response(&payload), Err(WireError::BadUtf8));
}

#[test]
fn random_bytes_never_panic_the_decoders() {
    let mut rng = Xorshift64::new(0xF422);
    for round in 0..2000 {
        let len = (rng.below(64) + 1) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Must return Ok or a typed error — never panic.
        let _ = decode_request(&bytes);
        let _ = decode_response(&bytes);
        let _ = round;
    }
    // Mutated valid frames as well: flip one byte of each encoding.
    for resp in [
        Response::Report {
            id: 2,
            json: "{\"k\":1}".into(),
        },
        Response::Done {
            id: 3,
            applied: true,
            durable: true,
            batch: 1,
            seq: 2,
            persist_cycles: 3,
        },
        Response::Resolved {
            id: 4,
            rid: (7 << 48) | 31,
            done: true,
            applied: true,
            key: 12,
            batch: 9,
        },
    ] {
        let bytes = encode_response(&resp);
        for i in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut m = bytes.clone();
                m[i] ^= flip;
                let _ = decode_response(&m);
            }
        }
    }
    // Same never-panic line for mutated Resolve request frames.
    let bytes = encode_request(&Request::Resolve {
        id: 5,
        key: 3,
        rid: (2 << 48) | 8,
    });
    for i in 0..bytes.len() {
        for flip in [0x01u8, 0x80, 0xff] {
            let mut m = bytes.clone();
            m[i] ^= flip;
            let _ = decode_request(&m);
        }
    }
}
