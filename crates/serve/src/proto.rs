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
//!
//! The server reads a request once and writes a response once.
//! [`decode_request`] decodes a frame in place into a [`RequestRef`],
//! whose `input` is still the escaped span of the frame (a [`RawStr`]);
//! the executor unescapes it into a buffer of its own.
//! [`write_outputs`] writes a `run`/`pipeline` response with each output
//! tree rendered JSON-escaped straight into the response buffer, byte
//! for byte what [`write_json`] of the [`ok_response`] would write.
//! [`parse_request`] and [`write_json`] remain the owned forms, for
//! clients and for replaying a request outside the server.

use fast_json::{Escaped, Json, JsonRef, RawStr};
use fast_trees::{Tree, TreeType};
use std::borrow::Cow;
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

impl Op {
    /// The op's name on the wire.
    pub fn name(self) -> &'static str {
        match self {
            Op::Run => "run",
            Op::Pipeline => "pipeline",
            Op::Check => "check",
            Op::Stats => "stats",
            Op::Ping => "ping",
        }
    }
}

/// A request decoded in place: what [`decode_request`] returns. The
/// target and the input borrow from the frame text; the input is not
/// even unescaped yet ([`fast_json::unescape_into`] does that, on
/// demand).
#[derive(Debug, Clone)]
pub struct RequestRef<'a> {
    /// Client correlation id, echoed verbatim (Null when absent).
    pub id: Json,
    /// The operation.
    pub op: Op,
    /// Transducer or pipeline name (`run`/`pipeline`/`check`; empty
    /// otherwise).
    pub target: Cow<'a, str>,
    /// Input tree in `Tree::parse` syntax, as the frame spells it
    /// (`run`/`pipeline`/`check`; empty otherwise).
    pub input: RawStr<'a>,
    /// Optional per-request deadline; the server clamps it to its own.
    pub timeout_ms: Option<u64>,
    /// Optional per-request output-set budget; clamped likewise.
    pub cap: Option<usize>,
}

/// Parses raw frame bytes into a [`Request`]: [`decode_request`], with
/// the target and input decoded into owned strings. On error, returns
/// the best-effort echoed id plus a 400-style message — the connection
/// survives a malformed request.
pub fn parse_request(bytes: &[u8]) -> Result<Request, (Json, String)> {
    let text = std::str::from_utf8(bytes).map_err(|_| (Json::Null, "frame is not UTF-8".into()))?;
    let req = decode_request(text)?;
    Ok(Request {
        id: req.id,
        op: req.op,
        target: req.target.into_owned(),
        input: req.input.decode().into_owned(),
        timeout_ms: req.timeout_ms,
        cap: req.cap,
    })
}

/// Decodes a request frame's text in place: one pass of the borrowing
/// JSON parser, after which only the id is copied. The server's
/// connection threads decode every request this way; on error it
/// returns what [`parse_request`] returns.
pub fn decode_request(text: &str) -> Result<RequestRef<'_>, (Json, String)> {
    let doc = JsonRef::parse(text).map_err(|e| (Json::Null, format!("bad JSON: {e}")))?;
    let id = doc.get("id").map_or(Json::Null, JsonRef::to_json);
    if !matches!(doc, JsonRef::Object(_)) {
        return Err((id, "request must be a JSON object".into()));
    }
    let op = match doc.get("op") {
        Some(JsonRef::Str(s)) => match &*s.decode() {
            "run" => Op::Run,
            "pipeline" => Op::Pipeline,
            "check" => Op::Check,
            "stats" => Op::Stats,
            "ping" => Op::Ping,
            other => return Err((id, format!("unknown op {other:?}"))),
        },
        _ => return Err((id, "missing \"op\" field".into())),
    };
    let required = |name: &str| match doc.get(name) {
        Some(JsonRef::Str(s)) => Ok(*s),
        _ => Err((id.clone(), format!("missing string field {name:?}"))),
    };
    let (target, input) = match op {
        Op::Run | Op::Pipeline | Op::Check => (required("target")?.decode(), required("input")?),
        Op::Stats | Op::Ping => (Cow::Borrowed(""), RawStr::default()),
    };
    let uint = |name: &str| -> Result<Option<u64>, (Json, String)> {
        match doc.get(name) {
            None | Some(JsonRef::Null) => Ok(None),
            Some(JsonRef::Int(n)) if *n >= 0 => Ok(Some(*n as u64)),
            Some(_) => Err((
                id.clone(),
                format!("{name:?} must be a non-negative integer"),
            )),
        }
    };
    let timeout_ms = uint("timeout_ms")?;
    let cap = uint("cap")?.map(|n| n as usize);
    Ok(RequestRef {
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

/// Writes the `"ok": true` response of a `run` or `pipeline` request
/// into `out`: byte for byte what [`write_json`] writes for
/// `ok_response(id, [op, target, count, outputs])`, with each output
/// tree's text rendered JSON-escaped straight into `out` (no `String`
/// per output, no second escaping pass).
///
/// The response-size cap counts the outputs' text as printed, before
/// escaping, as the server always has: when it exceeds `max_text`
/// bytes the write stops and returns `Err` with the count so far, and
/// `out` holds a partial response.
///
/// # Errors
///
/// The text byte count, once it exceeds `max_text`.
pub fn write_outputs(
    out: &mut String,
    id: &Json,
    op: Op,
    target: &str,
    ty: &TreeType,
    outputs: &[Tree],
    max_text: usize,
) -> Result<(), usize> {
    use std::fmt::Write as _;
    write!(
        out,
        "{{\"id\":{id},\"ok\":true,\"op\":{},\"target\":{},\"count\":{},\"outputs\":[",
        Json::Str(op.name().into()),
        Json::Str(target.into()),
        outputs.len(),
    )
    .expect("writing to a String cannot fail");
    let mut total = 0;
    for (i, t) in outputs.iter().enumerate() {
        out.push_str(if i == 0 { "\"" } else { ",\"" });
        let mut w = Escaped::new(out);
        t.display(ty)
            .write_to(&mut w)
            .expect("writing to a String cannot fail");
        total += w.text_len();
        if total > max_text {
            return Err(total);
        }
        out.push('"');
    }
    out.push_str("]}");
    Ok(())
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
