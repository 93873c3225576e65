//! Zero-dependency length-prefixed wire protocol.
//!
//! Frames are `u32` little-endian length followed by `length` payload
//! bytes (capped at [`MAX_FRAME`]); the payload is an opcode byte, the
//! client-assigned request id, and fixed-width little-endian fields.
//! Strings are `u32` length + UTF-8 bytes. Every reply echoes the
//! request id, so clients may pipeline: replies can arrive out of order
//! across shards.
//!
//! Decoding is total: malformed input (truncated frame, oversized
//! length, unknown opcode, bad UTF-8) yields a typed [`WireError`],
//! never a panic — the fuzz test drives seeded random bytes through
//! both decoders to hold that line.

use std::io::{self, Read, Write};

/// Hard cap on payload length; larger prefixes are rejected without
/// allocating.
pub const MAX_FRAME: usize = 64 * 1024;

/// A client → server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Membership/value query.
    Get {
        /// Client-assigned id echoed in the reply.
        id: u64,
        /// Key queried.
        key: u64,
    },
    /// Insert `key` (set semantics: the LFDs store `value = key`).
    Put {
        /// Client-assigned id echoed in the reply.
        id: u64,
        /// Key inserted.
        key: u64,
    },
    /// Delete `key`.
    Del {
        /// Client-assigned id echoed in the reply.
        id: u64,
        /// Key deleted.
        key: u64,
    },
    /// Liveness probe; answered from the accept path, never queued.
    Ping {
        /// Client-assigned id echoed in the reply.
        id: u64,
    },
    /// Server counters snapshot as a JSON string reply.
    Stats {
        /// Client-assigned id echoed in the reply.
        id: u64,
    },
    /// Admin: kill shard `shard` at its next batch and restart it from
    /// its NVM image (null recovery).
    Crash {
        /// Client-assigned id echoed in the reply.
        id: u64,
        /// Shard to kill.
        shard: u32,
    },
    /// Admin: drain queues, write metrics, and stop the server.
    Shutdown {
        /// Client-assigned id echoed in the reply.
        id: u64,
    },
    /// Live telemetry snapshot as a JSON string reply: per-shard
    /// throughput, queue depth, shed count, durable-ack latency
    /// histograms, and telemetry drop counters. Unlike
    /// [`Request::Stats`] (lifetime counters only), this is the
    /// machine-readable scrape endpoint for `lrp-load --probe` and CI.
    Metrics {
        /// Client-assigned id echoed in the reply.
        id: u64,
    },
    /// Detectable-operation query: did the mutation the client issued
    /// as request `rid` against `key` durably take effect? Routed by
    /// `key` to the owning shard and answered from its recovered slot
    /// table, so a client holding an uncertain outcome (`Crashed` or a
    /// non-durable ack) can decide between *retry* and *already done*
    /// without risking a duplicate effect.
    Resolve {
        /// Client-assigned id echoed in the reply (for this frame, not
        /// the op being resolved).
        id: u64,
        /// Key the uncertain mutation targeted (routing only).
        key: u64,
        /// The request id of the uncertain mutation.
        rid: u64,
    },
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Get`].
    Value {
        /// Echo of the request id.
        id: u64,
        /// Key present at the linearization point.
        present: bool,
        /// The observation is backed by persisted state only.
        durable: bool,
        /// Shard batch that executed the op.
        batch: u64,
        /// Execution rank within the batch (global event order).
        seq: u64,
    },
    /// Reply to [`Request::Put`]/[`Request::Del`].
    Done {
        /// Echo of the request id.
        id: u64,
        /// Operation took effect (`false` = key already present/absent).
        applied: bool,
        /// Effect (and everything it depends on) persisted before the
        /// batch completed: the durable ack. `false` is retryable.
        durable: bool,
        /// Shard batch that executed the op.
        batch: u64,
        /// Execution rank within the batch (global event order).
        seq: u64,
        /// Simulated cycle, within the batch, at which the op's last
        /// write persisted (0 for no-op/read-only outcomes).
        persist_cycles: u64,
    },
    /// Admission control: the shard queue is full; retry after the hint.
    Overloaded {
        /// Echo of the request id.
        id: u64,
        /// Suggested client back-off.
        retry_after_ms: u32,
        /// Queue depth observed at rejection.
        queue_depth: u32,
    },
    /// The op was in flight when its shard crashed: **unacked**, effect
    /// unknown; retry to find out.
    Crashed {
        /// Echo of the request id.
        id: u64,
        /// Shard that crashed.
        shard: u32,
        /// Batch the op was riding in when the crash hit.
        batch: u64,
    },
    /// Reply to [`Request::Ping`].
    Pong {
        /// Echo of the request id.
        id: u64,
    },
    /// JSON payload reply ([`Request::Stats`], [`Request::Crash`]).
    Report {
        /// Echo of the request id.
        id: u64,
        /// Compact JSON document.
        json: String,
    },
    /// Reply to [`Request::Shutdown`].
    ShuttingDown {
        /// Echo of the request id.
        id: u64,
    },
    /// Server-side failure (e.g. unroutable request).
    Error {
        /// Echo of the request id.
        id: u64,
        /// Human-readable cause.
        msg: String,
    },
    /// Reply to [`Request::Resolve`]: the deterministic verdict for an
    /// uncertain mutation. `done = false` means no durable stamp exists
    /// for `rid` — the op is **not started** as far as durable state is
    /// concerned and the client must retry to make it happen; `done =
    /// true` means the stamp (and with it, under a release-ordering
    /// discipline, the effect) persisted, and `applied`/`key`/`batch`
    /// replay the recorded outcome.
    Resolved {
        /// Echo of the request id.
        id: u64,
        /// The uncertain mutation's request id, echoed back.
        rid: u64,
        /// A durable stamp exists: the op completed before the crash.
        done: bool,
        /// Recorded outcome (`false` for set-semantics no-ops; 0 when
        /// `done` is false).
        applied: bool,
        /// Key recorded in the stamp (0 when `done` is false).
        key: u64,
        /// Shard batch recorded in the stamp (0 when `done` is false).
        batch: u64,
    },
}

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before a declared field.
    Truncated,
    /// Length prefix exceeded [`MAX_FRAME`].
    Oversized(usize),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// A string field was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::Oversized(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

// -- primitive readers/writers ----------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.at).ok_or(WireError::Truncated)?;
        self.at += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.at.checked_add(4).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.at.checked_add(8).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FRAME {
            return Err(WireError::Oversized(len));
        }
        let end = self.at.checked_add(len).ok_or(WireError::Truncated)?;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Truncated)?;
        self.at = end;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

// -- opcodes ----------------------------------------------------------

const OP_GET: u8 = 0x01;
const OP_PUT: u8 = 0x02;
const OP_DEL: u8 = 0x03;
const OP_PING: u8 = 0x04;
const OP_STATS: u8 = 0x05;
const OP_CRASH: u8 = 0x06;
const OP_SHUTDOWN: u8 = 0x07;
const OP_METRICS: u8 = 0x08;
const OP_RESOLVE: u8 = 0x09;

const OP_VALUE: u8 = 0x81;
const OP_DONE: u8 = 0x82;
const OP_OVERLOADED: u8 = 0x83;
const OP_CRASHED: u8 = 0x84;
const OP_PONG: u8 = 0x85;
const OP_REPORT: u8 = 0x86;
const OP_SHUTTING_DOWN: u8 = 0x87;
const OP_ERROR: u8 = 0x88;
const OP_RESOLVED: u8 = 0x89;

/// Encodes a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(17);
    match req {
        Request::Get { id, key } => {
            out.push(OP_GET);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Put { id, key } => {
            out.push(OP_PUT);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Del { id, key } => {
            out.push(OP_DEL);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Ping { id } => {
            out.push(OP_PING);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Stats { id } => {
            out.push(OP_STATS);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Crash { id, shard } => {
            out.push(OP_CRASH);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
        }
        Request::Shutdown { id } => {
            out.push(OP_SHUTDOWN);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Metrics { id } => {
            out.push(OP_METRICS);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Request::Resolve { id, key, rid } => {
            out.push(OP_RESOLVE);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&rid.to_le_bytes());
        }
    }
    out
}

/// Decodes a request payload.
pub fn decode_request(buf: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(buf);
    let op = r.u8()?;
    let id = r.u64()?;
    match op {
        OP_GET => Ok(Request::Get { id, key: r.u64()? }),
        OP_PUT => Ok(Request::Put { id, key: r.u64()? }),
        OP_DEL => Ok(Request::Del { id, key: r.u64()? }),
        OP_PING => Ok(Request::Ping { id }),
        OP_STATS => Ok(Request::Stats { id }),
        OP_CRASH => Ok(Request::Crash {
            id,
            shard: r.u32()?,
        }),
        OP_SHUTDOWN => Ok(Request::Shutdown { id }),
        OP_METRICS => Ok(Request::Metrics { id }),
        OP_RESOLVE => Ok(Request::Resolve {
            id,
            key: r.u64()?,
            rid: r.u64()?,
        }),
        other => Err(WireError::BadOpcode(other)),
    }
}

/// Encodes a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(41);
    match resp {
        Response::Value {
            id,
            present,
            durable,
            batch,
            seq,
        } => {
            out.push(OP_VALUE);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(*present as u8);
            out.push(*durable as u8);
            out.extend_from_slice(&batch.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
        }
        Response::Done {
            id,
            applied,
            durable,
            batch,
            seq,
            persist_cycles,
        } => {
            out.push(OP_DONE);
            out.extend_from_slice(&id.to_le_bytes());
            out.push(*applied as u8);
            out.push(*durable as u8);
            out.extend_from_slice(&batch.to_le_bytes());
            out.extend_from_slice(&seq.to_le_bytes());
            out.extend_from_slice(&persist_cycles.to_le_bytes());
        }
        Response::Overloaded {
            id,
            retry_after_ms,
            queue_depth,
        } => {
            out.push(OP_OVERLOADED);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            out.extend_from_slice(&queue_depth.to_le_bytes());
        }
        Response::Crashed { id, shard, batch } => {
            out.push(OP_CRASHED);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&shard.to_le_bytes());
            out.extend_from_slice(&batch.to_le_bytes());
        }
        Response::Pong { id } => {
            out.push(OP_PONG);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Report { id, json } => {
            out.push(OP_REPORT);
            out.extend_from_slice(&id.to_le_bytes());
            put_string(&mut out, json);
        }
        Response::ShuttingDown { id } => {
            out.push(OP_SHUTTING_DOWN);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Error { id, msg } => {
            out.push(OP_ERROR);
            out.extend_from_slice(&id.to_le_bytes());
            put_string(&mut out, msg);
        }
        Response::Resolved {
            id,
            rid,
            done,
            applied,
            key,
            batch,
        } => {
            out.push(OP_RESOLVED);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&rid.to_le_bytes());
            out.push(*done as u8);
            out.push(*applied as u8);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&batch.to_le_bytes());
        }
    }
    out
}

/// Decodes a response payload.
pub fn decode_response(buf: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(buf);
    let op = r.u8()?;
    let id = r.u64()?;
    match op {
        OP_VALUE => Ok(Response::Value {
            id,
            present: r.u8()? != 0,
            durable: r.u8()? != 0,
            batch: r.u64()?,
            seq: r.u64()?,
        }),
        OP_DONE => Ok(Response::Done {
            id,
            applied: r.u8()? != 0,
            durable: r.u8()? != 0,
            batch: r.u64()?,
            seq: r.u64()?,
            persist_cycles: r.u64()?,
        }),
        OP_OVERLOADED => Ok(Response::Overloaded {
            id,
            retry_after_ms: r.u32()?,
            queue_depth: r.u32()?,
        }),
        OP_CRASHED => Ok(Response::Crashed {
            id,
            shard: r.u32()?,
            batch: r.u64()?,
        }),
        OP_PONG => Ok(Response::Pong { id }),
        OP_REPORT => Ok(Response::Report {
            id,
            json: r.string()?,
        }),
        OP_SHUTTING_DOWN => Ok(Response::ShuttingDown { id }),
        OP_ERROR => Ok(Response::Error {
            id,
            msg: r.string()?,
        }),
        OP_RESOLVED => Ok(Response::Resolved {
            id,
            rid: r.u64()?,
            done: r.u8()? != 0,
            applied: r.u8()? != 0,
            key: r.u64()?,
            batch: r.u64()?,
        }),
        other => Err(WireError::BadOpcode(other)),
    }
}

/// The id a request carries (every variant has one).
pub fn request_id(req: &Request) -> u64 {
    match req {
        Request::Get { id, .. }
        | Request::Put { id, .. }
        | Request::Del { id, .. }
        | Request::Ping { id }
        | Request::Stats { id }
        | Request::Crash { id, .. }
        | Request::Shutdown { id }
        | Request::Metrics { id }
        | Request::Resolve { id, .. } => *id,
    }
}

/// The id a response echoes (every variant has one).
pub fn response_id(resp: &Response) -> u64 {
    match resp {
        Response::Value { id, .. }
        | Response::Done { id, .. }
        | Response::Overloaded { id, .. }
        | Response::Crashed { id, .. }
        | Response::Pong { id }
        | Response::Report { id, .. }
        | Response::ShuttingDown { id }
        | Response::Error { id, .. }
        | Response::Resolved { id, .. } => *id,
    }
}

// -- framing ----------------------------------------------------------

/// Writes one length-prefixed frame with a single `write_all`.
///
/// Prefix and payload leave in one write, so a socket sends the frame
/// as one segment: writing the 4-byte prefix alone would leave the
/// payload behind it waiting for the peer's delayed ACK whenever
/// Nagle's algorithm is on.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_FRAME);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one length-prefixed frame. `Ok(None)` on clean EOF at a frame
/// boundary; oversized or truncated frames are [`io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    match r.read(&mut len) {
        Ok(0) => return Ok(None),
        Ok(n) if n < 4 => r.read_exact(&mut len[n..]).map_err(truncated)?,
        Ok(_) => {}
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(WireError::Oversized(len).into());
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(truncated)?;
    Ok(Some(payload))
}

fn truncated(e: io::Error) -> io::Error {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        WireError::Truncated.into()
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// A sink that counts `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write() {
        let mut w = CountingWriter::default();
        let payload = encode_request(&Request::Ping { id: 7 });
        write_frame(&mut w, &payload).unwrap();
        assert_eq!(w.writes, 1, "prefix and payload must leave together");
        write_frame(&mut w, b"").unwrap();
        assert_eq!(w.writes, 2);
        let mut r = &w.bytes[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), payload);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
    }

    #[test]
    fn ids_are_extractable_from_every_variant() {
        let req = Request::Crash { id: 9, shard: 1 };
        assert_eq!(request_id(&req), 9);
        let resp = Response::Overloaded {
            id: 12,
            retry_after_ms: 5,
            queue_depth: 3,
        };
        assert_eq!(response_id(&resp), 12);
    }
}
