//! The server proper: acceptor, bounded work queue, executors.
//!
//! Admission control has three gates, hit in order, each shedding load
//! *before* the expensive part behind it:
//!
//! 1. **Connection cap** — an accept over [`ServeConfig::max_connections`]
//!    is answered with one 429 frame and closed (`serve.conn_rejected`).
//! 2. **Frame cap** — a length prefix over
//!    [`ServeConfig::max_request_bytes`] is rejected before any payload
//!    allocation (413). The JSON parser enforces its own hard nesting
//!    ceiling ([`fast_json::MAX_PARSE_DEPTH`]), which bounds its
//!    recursion, and the tree parser rejects input nested deeper than
//!    [`ServeConfig::max_input_depth`] (413, via
//!    [`Tree::parse_bounded`]). The tree parser and the evaluator keep
//!    their stacks on the heap, so that limit is policy — how deep a
//!    document the server accepts — and executors run on the default
//!    thread stack.
//! 3. **Work queue** — `run`/`pipeline`/`check` requests go through a
//!    bounded queue; when it is full the request is shed with a 429
//!    (`serve.shed`) instead of queuing unbounded latency. `stats` and
//!    `ping` are answered inline and are never shed — the telemetry
//!    plane must stay responsive exactly when the data plane is
//!    saturated.
//!
//! Admitted requests run under the runtime's own guard rails: a
//! per-request deadline (clamped to the server's), an output-set budget,
//! the process-wide cancellation token (tripped on shutdown), and
//! per-target [`BatchMemo`]s shared across all connections — one for a
//! transducer target, one per segment for a pipeline target — so a
//! repeated document is transduced once per process, not once per
//! request.

use crate::proto::{self, FrameError, Op};
use fast_core::TransducerError;
use fast_json::Json;
use fast_obs::engine::{Engine, Sampler};
use fast_obs::slo::{SloSpec, SloViolation};
use fast_rt::{Artifact, BatchMemo, RunOptions};
use fast_trees::{ParseError, Tree};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Server tuning. [`ServeConfig::default`] is sized for a small
/// single-process deployment; every limit is a ceiling that per-request
/// `timeout_ms`/`cap` fields may tighten but never exceed.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Executor threads (0 = one per core, capped at 8).
    pub workers: usize,
    /// Bounded work-queue depth; a full queue sheds with 429.
    pub queue_depth: usize,
    /// Concurrent connections; excess accepts are rejected with 429.
    pub max_connections: usize,
    /// Per-request wall-clock ceiling.
    pub timeout: Duration,
    /// Per-request output-set budget ceiling.
    pub cap: usize,
    /// Largest accepted request frame, in bytes.
    pub max_request_bytes: usize,
    /// Largest serialized output set returned, in bytes.
    pub max_response_bytes: usize,
    /// Maximum input-tree nesting depth: the `(`-nesting the tree
    /// parser accepts, parens inside labels not counted. A policy
    /// limit on document size: the parser and the evaluator keep their
    /// stacks on the heap, so it is not sized to the executor stack.
    pub max_input_depth: usize,
    /// Per-connection read *and* write timeout (`None` = wait forever):
    /// closes connections idle past it, and connections whose peer
    /// stops draining responses.
    pub idle_timeout: Option<Duration>,
    /// Capacity of each shared [`BatchMemo`]: the one of a transducer
    /// target, and each per-segment one of a pipeline target. The memo
    /// holds one entry per distinct input root it has answered; the
    /// per-node tables of a request live with the request.
    pub memo_capacity: usize,
    /// Telemetry sampling interval (window width).
    pub engine_interval: Duration,
    /// Windows merged into each `stats` / SLO evaluation; the telemetry
    /// ring retains exactly this many.
    pub stats_windows: usize,
    /// Service-level objectives, evaluated over the windowed view each
    /// time a window closes, when set.
    pub slo: Option<SloSpec>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 0,
            queue_depth: 64,
            max_connections: 64,
            timeout: Duration::from_secs(10),
            cap: RunOptions::default().cap,
            max_request_bytes: 4 << 20,
            max_response_bytes: 16 << 20,
            max_input_depth: 512,
            idle_timeout: Some(Duration::from_secs(60)),
            memo_capacity: RunOptions::default().memo_capacity,
            engine_interval: Duration::from_millis(500),
            stats_windows: 20,
            slo: None,
        }
    }
}

/// What a published name runs, with the memos its runs share across
/// every connection.
enum TargetKind {
    /// A transducer and its one memo.
    Transducer(BatchMemo),
    /// A pipeline and one memo per segment, in chain order.
    Pipeline(Vec<BatchMemo>),
}

/// Where a published name points.
struct TargetEntry {
    kind: TargetKind,
    artifact: usize,
}

/// SLO evaluation state, updated on the telemetry engine's thread each
/// time it closes a window.
#[derive(Debug, Default, Clone)]
struct SloState {
    /// Violations in the most recent evaluation (empty = healthy).
    current: Vec<SloViolation>,
    /// Windows closed since the server started, one evaluation each
    /// (0 without a spec).
    checks: u64,
    /// Closed windows whose evaluation found at least one violation.
    violated_checks: u64,
}

impl SloState {
    /// Judges the view ending at a just-closed window.
    fn record(&mut self, violations: Vec<SloViolation>) {
        self.checks += 1;
        if !violations.is_empty() {
            self.violated_checks += 1;
            fast_obs::count!("serve.slo_violations");
        }
        self.current = violations;
    }
}

struct Shared {
    cfg: ServeConfig,
    artifacts: Vec<Artifact>,
    targets: HashMap<String, TargetEntry>,
    engine: Engine,
    slo_state: Arc<Mutex<SloState>>,
    stop: AtomicBool,
    /// Cooperative cancellation token threaded into every run; tripped
    /// on shutdown so in-flight items fail fast with `Cancelled`.
    cancel: Arc<AtomicBool>,
    conns: AtomicUsize,
    started: Instant,
}

fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An admitted `run`/`pipeline`/`check` request on its way to an
/// executor. The connection thread decoded the frame in place (which
/// checked every escape of the input) and moved it here, not a copy of
/// its input; the executor reads the tree from `frame[input]`, escapes
/// as written ([`Tree::parse_escaped`]). The reply is the response
/// payload.
struct Job {
    frame: String,
    /// Where the input lies in `frame`, escapes as written.
    input: Range<usize>,
    id: Json,
    op: Op,
    target: String,
    timeout_ms: Option<u64>,
    cap: Option<usize>,
    /// Time the connection thread spent decoding the frame.
    decode: Duration,
    /// When the job entered the work queue.
    queued: Instant,
    reply: SyncSender<Vec<u8>>,
}

/// A running server. Dropping the handle (or calling
/// [`ServerHandle::shutdown`]) stops the acceptor, trips the
/// cancellation token, and joins the service threads it can join;
/// handler threads for connections the *client* still holds open exit
/// when those connections close or time out.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with a `:0` request port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, cancels in-flight runs, and joins the acceptor.
    pub fn shutdown(self) {
        drop(self);
    }

    /// Blocks the calling thread for the server's lifetime (until the
    /// process is killed) — the foreground `fastc serve` mode.
    pub fn wait(mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }

    fn stop_threads(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.cancel.store(true, Ordering::SeqCst);
        // Unblock the acceptor's blocking `accept`.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_threads();
    }
}

/// Starts a server over `artifacts` on `addr` (e.g. `"127.0.0.1:7878"`,
/// port 0 for ephemeral). Every transducer and pipeline in every
/// artifact becomes a published target; on a name collision the first
/// artifact wins (transducers before pipelines within one artifact).
pub fn start(artifacts: Vec<Artifact>, addr: &str, cfg: ServeConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;

    let memo = || BatchMemo::new(cfg.memo_capacity);
    let mut targets = HashMap::new();
    for (i, art) in artifacts.iter().enumerate() {
        for name in art.transducer_names() {
            targets
                .entry(name.to_owned())
                .or_insert_with(|| TargetEntry {
                    kind: TargetKind::Transducer(memo()),
                    artifact: i,
                });
        }
        for name in art.pipeline_names() {
            targets.entry(name.to_owned()).or_insert_with(|| {
                let segments = art
                    .pipeline(name)
                    .expect("listed pipeline is present")
                    .segment_count();
                TargetEntry {
                    kind: TargetKind::Pipeline((0..segments).map(|_| memo()).collect()),
                    artifact: i,
                }
            });
        }
    }

    // The SLO is judged on the engine's own thread, once per closed
    // window, over the same view `stats` reads.
    let slo_state = Arc::new(Mutex::new(SloState::default()));
    let on_tick = {
        let spec = cfg.slo.clone();
        let windows = cfg.stats_windows;
        let state = Arc::clone(&slo_state);
        move |sampler: &Sampler| {
            if let Some(spec) = &spec {
                lock_unpoisoned(&state).record(spec.evaluate(&sampler.view(windows)));
            }
        }
    };
    let engine = Engine::start(cfg.engine_interval, cfg.stats_windows, on_tick);
    let shared = Arc::new(Shared {
        cfg,
        artifacts,
        targets,
        engine,
        slo_state,
        stop: AtomicBool::new(false),
        cancel: Arc::new(AtomicBool::new(false)),
        conns: AtomicUsize::new(0),
        started: Instant::now(),
    });

    // Executors: they own the receive side of the bounded work queue
    // and exit when every sender (acceptor + connection handlers) is
    // gone.
    let (jobs_tx, jobs_rx) = sync_channel::<Job>(shared.cfg.queue_depth.max(1));
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));
    let n_workers = if shared.cfg.workers > 0 {
        shared.cfg.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8)
    };
    let mut executors = 0usize;
    let mut spawn_err = None;
    for w in 0..n_workers.max(1) {
        let shared = Arc::clone(&shared);
        let rx = Arc::clone(&jobs_rx);
        let builder = std::thread::Builder::new().name(format!("fast-serve-exec-{w}"));
        // A refused spawn degrades parallelism, not correctness — the
        // executors that did start drain the same queue. But at least
        // one must start: with zero executors, admitted jobs would
        // enqueue and never run, and their connection handlers would
        // block in `reply_rx.recv()` forever (the job senders stay
        // alive, so the channel never disconnects).
        match builder.spawn(move || executor_loop(&shared, &rx)) {
            Ok(_) => executors += 1,
            Err(e) => spawn_err = Some(e),
        }
    }
    if executors == 0 {
        return Err(
            spawn_err.unwrap_or_else(|| io::Error::other("no executor thread could be started"))
        );
    }

    // Acceptor.
    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || acceptor_loop(&shared, &listener, &jobs_tx))
    };

    Ok(ServerHandle {
        addr: local,
        shared,
        acceptor: Some(acceptor),
    })
}

fn acceptor_loop(shared: &Arc<Shared>, listener: &TcpListener, jobs_tx: &SyncSender<Job>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                // Persistent accept errors (EMFILE under fd exhaustion —
                // i.e. exactly when overloaded) must not busy-spin the
                // acceptor at 100% CPU; back off briefly before retrying.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Connection cap: one 429 frame, then close.
        let live = shared.conns.fetch_add(1, Ordering::SeqCst);
        if live >= shared.cfg.max_connections {
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            fast_obs::count!("serve.conn_rejected");
            // This write runs on the acceptor thread: bound it so a
            // peer that connects and never reads cannot stall accepts.
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let mut w = BufWriter::new(stream);
            let _ = proto::write_json(
                &mut w,
                &proto::error_response(
                    &Json::Null,
                    proto::CODE_SHED,
                    "connection limit reached, retry later",
                ),
            );
            continue;
        }
        fast_obs::gauge("serve.connections").set(shared.conns.load(Ordering::SeqCst) as u64);
        let conn_shared = Arc::clone(shared);
        let jobs_tx = jobs_tx.clone();
        let spawned = std::thread::Builder::new()
            .name("fast-serve-conn".into())
            .spawn(move || {
                handle_conn(&conn_shared, &jobs_tx, stream);
                conn_shared.conns.fetch_sub(1, Ordering::SeqCst);
                fast_obs::gauge("serve.connections")
                    .set(conn_shared.conns.load(Ordering::SeqCst) as u64);
            });
        if spawned.is_err() {
            // Could not spawn a handler: treat like an over-cap accept.
            shared.conns.fetch_sub(1, Ordering::SeqCst);
            fast_obs::count!("serve.conn_rejected");
        }
    }
}

fn handle_conn(shared: &Arc<Shared>, jobs_tx: &SyncSender<Job>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if let Some(t) = shared.cfg.idle_timeout {
        let _ = stream.set_read_timeout(Some(t));
        // Also bound writes: a client that pipelines requests but never
        // drains responses would otherwise block this handler in
        // `write_all` forever (the read timeout cannot fire while
        // blocked on write), wedging a connection slot and a thread.
        let _ = stream.set_write_timeout(Some(t));
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            let _ = proto::write_json(
                &mut writer,
                &proto::error_response(&Json::Null, proto::CODE_UNAVAILABLE, "shutting down"),
            );
            return;
        }
        match proto::read_frame(&mut reader, shared.cfg.max_request_bytes) {
            Ok(None) => return,
            Ok(Some(frame)) => {
                let response = dispatch(shared, jobs_tx, frame);
                if proto::write_frame(&mut writer, &response).is_err() {
                    return;
                }
            }
            Err(FrameError::TooLarge { len, max }) => {
                // The announced payload was never read, so the stream
                // position is unknown — answer once, then close.
                fast_obs::count!("serve.errors");
                let _ = proto::write_json(
                    &mut writer,
                    &proto::error_response(
                        &Json::Null,
                        proto::CODE_TOO_LARGE,
                        format!("request frame of {len} bytes exceeds the {max}-byte limit"),
                    ),
                );
                return;
            }
            Err(FrameError::Truncated | FrameError::Io(_)) => return,
        }
    }
}

/// Routes one raw frame and returns the response payload: decode it in
/// place, answer `ping`/`stats` inline, and move everything else, frame
/// and all, through the bounded work queue.
fn dispatch(shared: &Arc<Shared>, jobs_tx: &SyncSender<Job>, frame: Vec<u8>) -> Vec<u8> {
    let started = Instant::now();
    let bad_request = |id: &Json, msg: String| {
        fast_obs::count!("serve.errors");
        proto::error_response(id, proto::CODE_BAD_REQUEST, msg)
            .to_string()
            .into_bytes()
    };
    let Ok(text) = String::from_utf8(frame) else {
        return bad_request(&Json::Null, "frame is not UTF-8".into());
    };
    let req = match proto::decode_request(&text) {
        Ok(r) => r,
        Err((id, msg)) => return bad_request(&id, msg),
    };
    let resp = match req.op {
        Op::Ping => proto::ok_response(
            &req.id,
            vec![("op", Json::Str("ping".into())), ("pong", Json::Bool(true))],
        ),
        // The telemetry plane is never shed: answered inline, no queue.
        Op::Stats => stats_response(shared, &req.id),
        Op::Run | Op::Pipeline | Op::Check => {
            let raw = req.input.raw();
            let at = raw.as_ptr() as usize - text.as_ptr() as usize;
            let id = req.id.clone();
            let (reply_tx, reply_rx) = sync_channel(1);
            let job = Job {
                input: at..at + raw.len(),
                id: req.id,
                op: req.op,
                target: req.target.into_owned(),
                timeout_ms: req.timeout_ms,
                cap: req.cap,
                decode: started.elapsed(),
                queued: Instant::now(),
                frame: text,
                reply: reply_tx,
            };
            match jobs_tx.try_send(job) {
                Ok(()) => match reply_rx.recv() {
                    Ok(response) => return response,
                    Err(_) => {
                        fast_obs::count!("serve.errors");
                        proto::error_response(
                            &id,
                            proto::CODE_INTERNAL,
                            "executor dropped the request",
                        )
                    }
                },
                Err(TrySendError::Full(_)) => {
                    fast_obs::count!("serve.shed");
                    proto::error_response(&id, proto::CODE_SHED, "work queue full, retry later")
                }
                Err(TrySendError::Disconnected(_)) => {
                    proto::error_response(&id, proto::CODE_UNAVAILABLE, "server is shutting down")
                }
            }
        }
    };
    resp.to_string().into_bytes()
}

fn executor_loop(shared: &Arc<Shared>, rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the lock only for the dequeue, not the execution.
        let job = match lock_unpoisoned(rx).recv() {
            Ok(j) => j,
            Err(_) => return,
        };
        fast_obs::count!("serve.requests");
        let start = Instant::now();
        let queued = start.duration_since(job.queued);
        fast_obs::observe!("serve.phase.queue", queued.as_nanos() as u64);
        // A response about as long as the request is the common case.
        let mut out = String::with_capacity(job.frame.len());
        if let Err(resp) = execute(shared, &job, &mut out) {
            fast_obs::count!("serve.errors");
            out.clear();
            write!(out, "{resp}").expect("writing to a String cannot fail");
        }
        fast_obs::observe!("serve.request", start.elapsed().as_nanos() as u64);
        // A vanished requester (connection handler gone) is fine.
        let _ = job.reply.send(out.into_bytes());
    }
}

fn run_error_response(id: &Json, e: &TransducerError) -> Json {
    let code = match e {
        TransducerError::Timeout { .. } => proto::CODE_TIMEOUT,
        TransducerError::Budget { .. } => proto::CODE_TOO_LARGE,
        TransducerError::Cancelled => proto::CODE_UNAVAILABLE,
        TransducerError::Automata(_)
        | TransducerError::Internal { .. }
        | TransducerError::InexactComposition { .. } => proto::CODE_INTERNAL,
    };
    proto::error_response(id, code, e.to_string())
}

/// Executes an admitted `run`/`pipeline`/`check` request, writing the
/// `ok` response payload into `out`, or returning the error response.
/// Each phase it reaches is timed into its `serve.phase.*` histogram:
/// decode (the connection's in-place decode of the frame), parse (the
/// tree read from the input's escaped span, and interned), eval and
/// render.
fn execute(shared: &Shared, job: &Job, out: &mut String) -> Result<(), Json> {
    let Some(entry) = shared.targets.get(&job.target) else {
        return Err(proto::error_response(
            &job.id,
            proto::CODE_NOT_FOUND,
            format!("unknown transducer or pipeline {:?}", job.target),
        ));
    };
    let art = &shared.artifacts[entry.artifact];
    let ty = match entry.kind {
        TargetKind::Transducer(_) => art.transducer_type(&job.target),
        TargetKind::Pipeline(_) => art.pipeline_type(&job.target),
    };
    let Some(ty) = ty else {
        return Err(proto::error_response(
            &job.id,
            proto::CODE_INTERNAL,
            "artifact is missing the target's input type",
        ));
    };

    fast_obs::observe!("serve.phase.decode", job.decode.as_nanos() as u64);

    let t = Instant::now();
    let input = &job.frame[job.input.clone()];
    let tree = Tree::parse_escaped(ty, input, shared.cfg.max_input_depth);
    fast_obs::observe!("serve.phase.parse", t.elapsed().as_nanos() as u64);
    let tree = match tree {
        Ok(t) => t,
        Err(ParseError::TooDeep { limit }) => {
            return Err(proto::error_response(
                &job.id,
                proto::CODE_TOO_LARGE,
                format!("input nesting depth exceeds the limit of {limit}"),
            ))
        }
        Err(e) => {
            return Err(proto::error_response(
                &job.id,
                proto::CODE_BAD_REQUEST,
                format!("input does not parse: {e}"),
            ))
        }
    };

    // Per-request limits tighten the server's ceilings, never exceed
    // them. Runs are single-threaded: parallelism comes from the
    // executor pool, not nested worker pools per request.
    let timeout = job
        .timeout_ms
        .map(Duration::from_millis)
        .unwrap_or(shared.cfg.timeout)
        .min(shared.cfg.timeout);
    let opts = RunOptions {
        cap: job.cap.unwrap_or(shared.cfg.cap).min(shared.cfg.cap).max(1),
        timeout: Some(timeout),
        workers: 1,
        cancel: Some(Arc::clone(&shared.cancel)),
        ..RunOptions::default()
    };

    let t = Instant::now();
    let items = std::slice::from_ref(&tree);
    let mut results = match &entry.kind {
        TargetKind::Transducer(memo) => {
            let plan = art
                .transducer(&job.target)
                .expect("target map points at a present transducer");
            plan.run_batch_shared(items, &opts, memo).0
        }
        TargetKind::Pipeline(memos) => {
            let pipe = art
                .pipeline(&job.target)
                .expect("target map points at a present pipeline");
            pipe.run_batch_shared(items, &opts, memos).0
        }
    };
    fast_obs::observe!("serve.phase.eval", t.elapsed().as_nanos() as u64);
    let outputs = match results.remove(0) {
        Ok(outs) => outs,
        Err(e) => return Err(run_error_response(&job.id, &e)),
    };

    let t = Instant::now();
    if job.op == Op::Check {
        let resp = proto::ok_response(
            &job.id,
            vec![
                ("op", Json::Str("check".into())),
                ("target", Json::Str(job.target.clone())),
                ("in_domain", Json::Bool(!outputs.is_empty())),
                ("outputs", Json::Int(outputs.len() as i64)),
            ],
        );
        write!(out, "{resp}").expect("writing to a String cannot fail");
    } else {
        // Rendered under the response-size cap: over it, fail the
        // request rather than truncate the output set. Rendering uses
        // the target's tree type, so responses round-trip through
        // `Tree::parse`.
        let max = shared.cfg.max_response_bytes;
        if proto::write_outputs(out, &job.id, job.op, &job.target, ty, &outputs, max).is_err() {
            return Err(proto::error_response(
                &job.id,
                proto::CODE_TOO_LARGE,
                format!("serialized output exceeds the {max}-byte response limit"),
            ));
        }
    }
    fast_obs::observe!("serve.phase.render", t.elapsed().as_nanos() as u64);
    Ok(())
}

fn quantile_json(view: &fast_obs::engine::WindowView, name: &str, q: f64) -> Json {
    view.quantile_ns(name, q)
        .map_or(Json::Null, |ns| Json::Int(ns as i64))
}

/// Builds the `stats` response from the windowed view, the cumulative
/// snapshot, and the SLO state.
fn stats_response(shared: &Shared, id: &Json) -> Json {
    let view = shared
        .engine
        .with_sampler(|s| s.view(shared.cfg.stats_windows));
    let cum = fast_obs::snapshot();
    let slo = lock_unpoisoned(&shared.slo_state).clone();
    let exemplars = view
        .snap
        .exemplars
        .get("rt.item")
        .map(|v| v.iter().map(fast_obs::Exemplar::to_json).collect())
        .unwrap_or_default();
    proto::ok_response(
        id,
        vec![
            ("op", Json::Str("stats".into())),
            (
                "uptime_ms",
                Json::Int(shared.started.elapsed().as_millis() as i64),
            ),
            ("windows", Json::Int(view.windows as i64)),
            ("span_ms", Json::Int(view.span_ms as i64)),
            (
                "rates",
                Json::obj([
                    ("requests_per_s", Json::Float(view.rate("serve.requests"))),
                    ("items_per_s", Json::Float(view.rate("rt.batch_items"))),
                    ("errors_per_s", Json::Float(view.rate("serve.errors"))),
                    ("shed_per_s", Json::Float(view.rate("serve.shed"))),
                ]),
            ),
            (
                "latency_ns",
                Json::obj([
                    ("request_p50", quantile_json(&view, "serve.request", 0.50)),
                    ("request_p99", quantile_json(&view, "serve.request", 0.99)),
                    (
                        "request_max",
                        view.max_ns("serve.request")
                            .map_or(Json::Null, |ns| Json::Int(ns as i64)),
                    ),
                    ("item_p50", quantile_json(&view, "rt.item", 0.50)),
                    ("item_p99", quantile_json(&view, "rt.item", 0.99)),
                ]),
            ),
            (
                "memo_hit_rate",
                view.hit_rate("rt.memo_hits", "rt.memo_misses")
                    .map_or(Json::Null, Json::Float),
            ),
            (
                "gauges",
                Json::obj([
                    (
                        "connections",
                        Json::Int(cum.gauge("serve.connections") as i64),
                    ),
                    (
                        "intern_resident_bytes",
                        Json::Int(cum.gauge("intern.resident_bytes") as i64),
                    ),
                    (
                        "memo_entries",
                        Json::Int(cum.gauge("rt.memo.entries") as i64),
                    ),
                    ("memo_bytes", Json::Int(cum.gauge("rt.memo.bytes") as i64)),
                ]),
            ),
            (
                "totals",
                Json::obj([
                    ("requests", Json::Int(cum.get("serve.requests") as i64)),
                    ("shed", Json::Int(cum.get("serve.shed") as i64)),
                    ("errors", Json::Int(cum.get("serve.errors") as i64)),
                    (
                        "conn_rejected",
                        Json::Int(cum.get("serve.conn_rejected") as i64),
                    ),
                    ("timeouts", Json::Int(cum.get("rt.timeouts") as i64)),
                    ("item_errors", Json::Int(cum.get("rt.item_errors") as i64)),
                ]),
            ),
            ("exemplars", Json::Array(exemplars)),
            (
                "slo",
                Json::obj([
                    ("configured", Json::Bool(shared.cfg.slo.is_some())),
                    ("violating", Json::Bool(!slo.current.is_empty())),
                    (
                        "violations",
                        Json::Array(slo.current.iter().map(SloViolation::to_json).collect()),
                    ),
                    ("checks", Json::Int(slo.checks as i64)),
                    ("violated_checks", Json::Int(slo.violated_checks as i64)),
                ]),
            ),
        ],
    )
}
