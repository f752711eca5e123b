//! The wire protocol: length-prefixed JSON frames over a byte stream.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! little-endian `u32` byte length followed by that many bytes of UTF-8
//! JSON. The prefix makes message boundaries explicit (no sniffing for
//! newlines inside string literals) and lets the server reject an
//! oversized request **before** allocating a buffer for it: a hostile
//! `0xffff_ffff` prefix costs four bytes of reading, not 4 GiB of
//! memory.
//!
//! Requests are JSON objects:
//!
//! ```json
//! {"id": 1, "op": "run", "target": "sani", "input": "node[0,1,0](...)"}
//! ```
//!
//! `op` is one of `run`, `pipeline`, `check`, `stats`, `ping`.
//! `target`/`input` are required for the first three; `timeout_ms` and
//! `cap` optionally tighten (never loosen) the server's own admission
//! limits. `id` is echoed verbatim into the response so clients may
//! pipeline requests over one connection.
//!
//! Responses carry `"ok": true` plus op-specific fields, or
//! `"ok": false` with a `code` (HTTP-flavored: 400 malformed, 404
//! unknown target, 408 deadline, 413 over budget, 429 shed, 500
//! internal fault, 503 shutting down) and a human-readable `error`.

use fast_json::Json;
use std::io::{self, Read, Write};

/// Bytes in the frame length prefix.
pub const LEN_PREFIX_BYTES: usize = 4;

/// Malformed frame or request (bad UTF-8, bad JSON, missing fields).
pub const CODE_BAD_REQUEST: i64 = 400;
/// The named transducer or pipeline is not in any loaded artifact.
pub const CODE_NOT_FOUND: i64 = 404;
/// The request exceeded its (or the server's) deadline.
pub const CODE_TIMEOUT: i64 = 408;
/// Request frame, output set, or response size over the configured cap.
pub const CODE_TOO_LARGE: i64 = 413;
/// Admission control shed the request (queue full or connection cap).
pub const CODE_SHED: i64 = 429;
/// Contained internal fault (a worker panic, a poisoned lock).
pub const CODE_INTERNAL: i64 = 500;
/// The server is shutting down; the run was cancelled.
pub const CODE_UNAVAILABLE: i64 = 503;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The length prefix announced more bytes than the configured
    /// maximum; nothing was allocated.
    TooLarge {
        /// Announced payload length.
        len: u64,
        /// The configured ceiling it exceeded.
        max: usize,
    },
    /// The stream ended mid-prefix or mid-payload.
    Truncated,
    /// An underlying I/O error (includes read timeouts).
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte limit")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Io(e) => write!(f, "i/o error reading frame: {e}"),
        }
    }
}

fn eof_is_truncation(e: io::Error) -> FrameError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        FrameError::Truncated
    } else {
        FrameError::Io(e)
    }
}

/// Reads one frame. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); a close mid-frame is [`FrameError::Truncated`].
/// A prefix announcing more than `max_bytes` fails **before** any
/// payload allocation.
pub fn read_frame(r: &mut impl Read, max_bytes: usize) -> Result<Option<Vec<u8>>, FrameError> {
    let mut prefix = [0u8; LEN_PREFIX_BYTES];
    // The first byte decides clean-close vs truncation.
    let mut got = 0;
    while got == 0 {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Ok(None),
            Ok(n) => got = n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    r.read_exact(&mut prefix[1..]).map_err(eof_is_truncation)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > max_bytes {
        return Err(FrameError::TooLarge {
            len: len as u64,
            max: max_bytes,
        });
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(eof_is_truncation)?;
    Ok(Some(body))
}

/// Writes one frame (prefix + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Serializes `response` and writes it as one frame.
pub fn write_json(w: &mut impl Write, response: &Json) -> io::Result<()> {
    write_frame(w, response.to_string().as_bytes())
}

/// A request operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Run a transducer on one input tree; return the output trees.
    Run,
    /// Run a pipeline on one input tree; return the output trees.
    Pipeline,
    /// Run a transducer but return only domain membership + output count.
    Check,
    /// Report the server's windowed telemetry and SLO state.
    Stats,
    /// Liveness probe.
    Ping,
}

/// A parsed, shape-validated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client correlation id, echoed verbatim (Null when absent).
    pub id: Json,
    /// The operation.
    pub op: Op,
    /// Transducer or pipeline name (`run`/`pipeline`/`check`).
    pub target: String,
    /// Input tree in `Tree::parse` syntax (`run`/`pipeline`/`check`).
    pub input: String,
    /// Optional per-request deadline; the server clamps it to its own.
    pub timeout_ms: Option<u64>,
    /// Optional per-request output-set budget; clamped likewise.
    pub cap: Option<usize>,
}

/// Parses raw frame bytes into a [`Request`]. On error, returns the
/// best-effort echoed id plus a 400-style message — the connection
/// survives a malformed request.
pub fn parse_request(bytes: &[u8]) -> Result<Request, (Json, String)> {
    let text = std::str::from_utf8(bytes).map_err(|_| (Json::Null, "frame is not UTF-8".into()))?;
    let doc = Json::parse(text).map_err(|e| (Json::Null, format!("bad JSON: {e}")))?;
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let Json::Object(mut fields) = doc else {
        return Err((id, "request must be a JSON object".into()));
    };
    // Moved out of the decoded document, not copied: `input` is the
    // whole tree text.
    let mut take = |name: &str| match fields.iter_mut().rev().find(|(k, _)| k == name) {
        Some((_, Json::Str(s))) => Some(std::mem::take(s)),
        _ => None,
    };
    let (target, input) = (take("target"), take("input"));
    let doc = Json::Object(fields);
    let op = match doc.get("op").and_then(Json::as_str) {
        Some("run") => Op::Run,
        Some("pipeline") => Op::Pipeline,
        Some("check") => Op::Check,
        Some("stats") => Op::Stats,
        Some("ping") => Op::Ping,
        Some(other) => return Err((id, format!("unknown op {other:?}"))),
        None => return Err((id, "missing \"op\" field".into())),
    };
    let required = |value: Option<String>, name: &str| {
        value.ok_or_else(|| (id.clone(), format!("missing string field {name:?}")))
    };
    let (target, input) = match op {
        Op::Run | Op::Pipeline | Op::Check => {
            (required(target, "target")?, required(input, "input")?)
        }
        Op::Stats | Op::Ping => (String::new(), String::new()),
    };
    let uint = |name: &str| -> Result<Option<u64>, (Json, String)> {
        match doc.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => v
                .as_int()
                .filter(|n| *n >= 0)
                .map(|n| Some(n as u64))
                .ok_or_else(|| {
                    (
                        id.clone(),
                        format!("{name:?} must be a non-negative integer"),
                    )
                }),
        }
    };
    let timeout_ms = uint("timeout_ms")?;
    let cap = uint("cap")?.map(|n| n as usize);
    Ok(Request {
        id,
        op,
        target,
        input,
        timeout_ms,
        cap,
    })
}

/// An `"ok": true` response: `{"id", "ok": true, ...fields}`.
pub fn ok_response(id: &Json, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("id", id.clone()), ("ok", Json::Bool(true))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// An `"ok": false` response with a code and message.
pub fn error_response(id: &Json, code: i64, error: impl Into<String>) -> Json {
    Json::obj([
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        ("code", Json::Int(code)),
        ("error", Json::Str(error.into())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"{\"op\":\"ping\"}").unwrap();
        let mut r = &buf[..];
        let body = read_frame(&mut r, 1024).unwrap().unwrap();
        assert_eq!(body, b"{\"op\":\"ping\"}");
        assert!(read_frame(&mut r, 1024).unwrap().is_none());
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = u32::MAX.to_le_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        match read_frame(&mut &buf[..], 64).unwrap_err() {
            FrameError::TooLarge { len, max } => {
                assert_eq!(len, u64::from(u32::MAX));
                assert_eq!(max, 64);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_reported() {
        // Mid-prefix.
        assert!(matches!(
            read_frame(&mut &[5u8, 0][..], 64),
            Err(FrameError::Truncated)
        ));
        // Mid-payload.
        let mut buf = 10u32.to_le_bytes().to_vec();
        buf.extend_from_slice(b"only4");
        assert!(matches!(
            read_frame(&mut &buf[..], 64),
            Err(FrameError::Truncated)
        ));
    }

    #[test]
    fn request_parsing_validates_shape() {
        assert!(parse_request(b"\xff\xfe").is_err());
        assert!(parse_request(b"[1,2]").is_err());
        assert!(parse_request(b"{\"op\":\"fly\"}").is_err());
        assert!(parse_request(b"{\"op\":\"run\"}").is_err());
        let (id, msg) = parse_request(b"{\"id\":7,\"op\":\"run\",\"target\":\"t\"}").unwrap_err();
        assert_eq!(id, Json::Int(7));
        assert!(msg.contains("input"));
        let req = parse_request(b"{\"id\":7,\"op\":\"run\",\"target\":\"t\",\"input\":\"nil[0]\"}")
            .unwrap();
        assert_eq!(req.op, Op::Run);
        assert_eq!(req.target, "t");
        assert!(
            parse_request(b"{\"op\":\"run\",\"target\":\"t\",\"input\":\"x\",\"cap\":-1}").is_err()
        );
    }
}
