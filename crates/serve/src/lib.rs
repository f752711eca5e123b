//! `fast-serve` — a long-running transduction service.
//!
//! Compiling a Fast program is expensive relative to running it: plans,
//! dispatch tables, and interned trees all warm up over time. This crate
//! keeps that state resident in one process and serves transductions
//! over a tiny dependency-free wire protocol ([`proto`]:
//! length-prefixed JSON frames over TCP), with admission control sized
//! so that overload degrades into explicit 429 responses instead of
//! unbounded queues ([`server`]).
//!
//! ```text
//! fastc build program.fast -o program.fastc
//! fastc serve program.fastc --addr 127.0.0.1:7878
//! ```
//!
//! then, from any client:
//!
//! ```text
//! {"id": 1, "op": "run", "target": "sani", "input": "nil[0]"}
//! ```
//!
//! The server shares one [`fast_rt::BatchMemo`] per transducer target,
//! and one per segment of each pipeline target, across every
//! connection, runs a background telemetry
//! [`Engine`](fast_obs::engine::Engine) for its whole lifetime, and —
//! when started with an SLO spec — evaluates [`fast_obs::slo`]
//! objectives on the engine's thread each time a window closes,
//! exposing the violation state through the `stats` operation.

#![warn(missing_docs)]

pub mod proto;
pub mod server;

pub use server::{start, ServeConfig, ServerHandle};

use fast_json::Json;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A minimal blocking client for the wire protocol — enough for tests,
/// benches, and shell one-liners via `fastc`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: i64,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            next_id: 0,
        })
    }

    /// Sends one request object and reads one response frame.
    pub fn call(&mut self, request: &Json) -> io::Result<Json> {
        proto::write_json(&mut self.writer, request)?;
        self.read_response()
    }

    /// Sends raw frame bytes (not necessarily valid JSON — used by the
    /// hostile-input tests) and reads one response frame.
    pub fn call_raw(&mut self, frame: &[u8]) -> io::Result<Json> {
        proto::write_frame(&mut self.writer, frame)?;
        self.read_response()
    }

    /// Writes raw bytes *without* framing (to exercise truncated or
    /// corrupt prefixes) and flushes.
    pub fn send_bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Reads one response frame and parses it.
    pub fn read_response(&mut self) -> io::Result<Json> {
        match proto::read_frame(&mut self.reader, 64 << 20) {
            Ok(Some(bytes)) => {
                let text = std::str::from_utf8(&bytes)
                    .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 frame"))?;
                Json::parse(text)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
            Ok(None) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Err(proto::FrameError::Io(e)) => Err(e),
            Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
        }
    }

    /// Convenience: a `run` request against `target`.
    pub fn run(&mut self, target: &str, input: &str) -> io::Result<Json> {
        self.next_id += 1;
        let req = Json::obj([
            ("id", Json::Int(self.next_id)),
            ("op", Json::Str("run".into())),
            ("target", Json::Str(target.into())),
            ("input", Json::Str(input.into())),
        ]);
        self.call(&req)
    }

    /// Convenience: a `stats` request.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.next_id += 1;
        let req = Json::obj([
            ("id", Json::Int(self.next_id)),
            ("op", Json::Str("stats".into())),
        ]);
        self.call(&req)
    }

    /// Drains anything buffered on the read side for `dur` — used after
    /// deliberately corrupt frames where the server may close at any
    /// point.
    pub fn drain_for(&mut self, dur: Duration) {
        let _ = self.reader.get_ref().set_read_timeout(Some(dur));
        let mut sink = [0u8; 1024];
        while matches!(self.reader.read(&mut sink), Ok(n) if n > 0) {}
    }
}
