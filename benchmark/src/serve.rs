//! serve-repeat and serve-fresh: an in-process `fast-serve` server
//! driven by a closed-loop load generator, plus the traced replay of its
//! request path.

use crate::calibrate::Clock;
use crate::pages::{self, Page};
use crate::spans::{Recorder, Span};
use crate::{ms_since, record_trace, record_window, s_since, Segment, Size};
use fast_bench::sanitizer::{baseline_sanitize, compile_fig2};
use fast_json::Json;
use fast_rt::{Artifact, ArtifactBuilder, BatchMemo, Plan, RunOptions};
use fast_serve::{proto, ServeConfig};
use fast_trees::{Tree, TreeType};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hash::{DefaultHasher, Hasher};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connections, and so generator threads: one per core of the 2-core
/// machine the bounds were measured on.
const CONNECTIONS: usize = 2;
/// Largest reply frame the generator accepts.
const MAX_REPLY_BYTES: usize = 64 << 20;
/// Requests per chunk of the calibrated clock (~100 ms): the generator
/// lets both connections drain, so the server is idle while it probes.
const CHUNK: usize = 8;

struct Spec {
    /// serve-repeat: working-set pages; serve-fresh: never-seen pages.
    pages: usize,
    /// Rendered page sizes are log-uniform in `[lo, hi]` bytes.
    lo: usize,
    hi: usize,
    /// serve-repeat: shuffled passes over the working set.
    passes: usize,
    /// serve-fresh: warm-up pages (a disjoint sub-seed) sent in set-up.
    warm_pages: usize,
    /// serve-fresh: pages of a further sub-seed replayed under tracing.
    replay_pages: usize,
}

fn spec(fresh: bool, size: Size) -> Spec {
    match (fresh, size) {
        (false, Size::Full) => Spec {
            pages: 24,
            lo: 5_000,
            hi: 50_000,
            passes: 10,
            warm_pages: 0,
            replay_pages: 0,
        },
        (true, Size::Full) => Spec {
            pages: 140,
            lo: 2_000,
            hi: 20_000,
            passes: 1,
            warm_pages: 8,
            replay_pages: 16,
        },
        (false, Size::Tiny) => Spec {
            pages: 3,
            lo: 500,
            hi: 2_000,
            passes: 2,
            warm_pages: 0,
            replay_pages: 0,
        },
        (true, Size::Tiny) => Spec {
            pages: 4,
            lo: 500,
            hi: 2_000,
            passes: 1,
            warm_pages: 2,
            replay_pages: 2,
        },
    }
}

/// Seed streams: the timed pages, the warm-up pages and the replayed
/// pages of serve-fresh never share a generator seed.
const STREAM_PAGES: u64 = 1;
const STREAM_WARM: u64 = 2;
const STREAM_REPLAY: u64 = 3;
const STREAM_ORDER: u64 = 4;

/// The server configuration of `serve_load`: depth and frame caps with
/// headroom for the corpus, two executors for the two cores.
fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        queue_depth: 64,
        max_connections: 8,
        max_input_depth: 1024,
        max_request_bytes: 8 << 20,
        timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

fn gen_pages(seed: u64, stream: u64, n: usize, spec: &Spec, id0: i64) -> Vec<Page> {
    let seed = pages::sub_seed(seed, stream);
    let sizes = pages::stratified_sizes(&mut StdRng::seed_from_u64(seed), n, spec.lo, spec.hi);
    pages::pages(seed, &sizes, id0)
}

struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        })
    }

    /// One closed-loop round trip: the frame was built before the
    /// window, and the reply is neither decoded nor checked here.
    fn round_trip(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        proto::write_frame(&mut self.writer, frame).map_err(|e| format!("send: {e}"))?;
        match proto::read_frame(&mut self.reader, MAX_REPLY_BYTES) {
            Ok(Some(bytes)) => Ok(bytes),
            Ok(None) => Err("server closed the connection".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What the generator kept of one reply: serve-repeat keeps a hash (its
/// replies repeat byte for byte), serve-fresh the raw bytes.
enum Kept {
    Hash(u64),
    Raw(Vec<u8>),
    Failed(String),
}

fn hash(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    h.write(bytes);
    h.finish()
}

/// Checks one reply against the expected sanitized page text.
fn check_reply(bytes: &[u8], id: i64, expected: &str) -> Result<(), String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "reply is not UTF-8".to_string())?;
    let reply = Json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    if reply.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("request {id} failed: {}", truncate(text)));
    }
    if reply.get("id").and_then(Json::as_int) != Some(id) {
        return Err(format!("reply to request {id} carries the wrong id"));
    }
    match reply.get("outputs").and_then(Json::as_array) {
        Some([Json::Str(out)]) if out == expected => Ok(()),
        _ => Err(format!(
            "request {id}: output differs from the baseline sanitizer"
        )),
    }
}

fn truncate(s: &str) -> &str {
    &s[..s.char_indices().nth(200).map_or(s.len(), |(i, _)| i)]
}

/// One request as the generator saw it: `(page, latency ms, reply)`.
type Reply = (usize, f64, Kept);

/// Sends `sequence` (indices into `pages`) as a closed loop: request `i`
/// goes out on connection `i % n`, and each connection sends its next
/// request when the previous reply has arrived. Replies are kept whole
/// when `keep_raw`, else hashed. Connection `c` records one span per
/// request in `recs[c]`.
fn closed_loop(
    conns: &mut [Conn],
    recs: &mut [Recorder],
    pages: &[Page],
    sequence: &[usize],
    keep_raw: bool,
) -> Vec<Reply> {
    let n = conns.len();
    std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(recs.iter_mut())
            .enumerate()
            .map(|(c, (conn, rec))| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for &p in sequence.iter().skip(c).step_by(n) {
                        let span = rec.open("request", pages[p].id as u64, None);
                        let t = Instant::now();
                        let reply = conn.round_trip(&pages[p].frame);
                        let dt = ms_since(t);
                        rec.close(span);
                        let kept = match reply {
                            Ok(bytes) if keep_raw => Kept::Raw(bytes),
                            Ok(bytes) => Kept::Hash(hash(&bytes)),
                            Err(e) => Kept::Failed(e),
                        };
                        out.push((p, dt, kept));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    })
}

/// One span recorder per connection, timed from `epoch`.
fn recorders(epoch: Instant, enabled: bool) -> Vec<Recorder> {
    (0..CONNECTIONS)
        .map(|_| Recorder::new(epoch, enabled))
        .collect()
}

/// Runs one serve segment; returns the span lists for the trace file.
pub(crate) fn segment(
    seg: &mut Segment,
    fresh: bool,
    seed: u64,
    size: Size,
    started: Instant,
) -> Vec<Vec<Span>> {
    let spec = spec(fresh, size);

    // ---- set-up --------------------------------------------------------
    let t = Instant::now();
    let compiled = compile_fig2();
    let sani = compiled.transducer("sani").expect("sani is defined");
    seg.add("setup.compile.s", s_since(t));

    let t = Instant::now();
    let mut builder = ArtifactBuilder::new();
    builder.add_transducer("sani", sani);
    let artifact = Artifact::decode(&builder.build().encode()).expect("artifact decodes");
    let plan = Arc::clone(artifact.transducer("sani").expect("sani in artifact"));
    let ty = Arc::clone(artifact.transducer_type("sani").expect("sani type"));
    seg.add("setup.artifact.s", s_since(t));

    let t = Instant::now();
    let server = fast_serve::start(vec![artifact], "127.0.0.1:0", config()).expect("server starts");
    let mut conns: Vec<Conn> = (0..CONNECTIONS)
        .map(|_| Conn::open(server.addr()).expect("generator connects"))
        .collect();
    seg.add("setup.server_start.s", s_since(t));

    let t = Instant::now();
    // serve-repeat's request ids are page indices, fixed for the run, so
    // every reply to one page is byte-identical and a hash checks it.
    let pages = gen_pages(seed, STREAM_PAGES, spec.pages, &spec, 0);
    let warm = if fresh {
        gen_pages(seed, STREAM_WARM, spec.warm_pages, &spec, 1 << 20)
    } else {
        Vec::new()
    };
    let mut order_rng = StdRng::seed_from_u64(pages::sub_seed(seed, STREAM_ORDER));
    let mut sequence = Vec::with_capacity(spec.pages * spec.passes);
    for _ in 0..spec.passes {
        let mut pass: Vec<usize> = (0..pages.len()).collect();
        pages::shuffle(&mut order_rng, &mut pass);
        sequence.extend(pass);
    }
    seg.add("setup.inputs.s", s_since(t));

    // One warm pass: serve-repeat's working set (filling the interner and
    // the shared memo), serve-fresh's disjoint warm-up pages.
    let t = Instant::now();
    let warm_set = if fresh { &warm } else { &pages };
    let all: Vec<usize> = (0..warm_set.len()).collect();
    let mut off = recorders(t, false);
    let warm_replies = closed_loop(&mut conns, &mut off, warm_set, &all, true);
    seg.add("setup.warm.s", s_since(t));
    let setup_s = s_since(started);

    // ---- timed window ----------------------------------------------------
    let mut clock = Clock::start();
    seg.setup_s = setup_s * clock.start_factor();
    seg.add("setup.s", setup_s);
    let before = fast_obs::snapshot();
    let epoch = Instant::now();
    let mut recs = recorders(epoch, seg.traced);
    let mut replies = Vec::with_capacity(sequence.len());
    for chunk in sequence.chunks(CHUNK) {
        let t = Instant::now();
        let chunk_replies = closed_loop(&mut conns, &mut recs, &pages, chunk, fresh);
        let wall_s = s_since(t);
        let factor = clock.chunk_factor();
        seg.window_s += wall_s * factor;
        for &(_, ms, _) in &chunk_replies {
            seg.latencies_ms.push(ms * factor);
            seg.add("op.ms", ms);
        }
        replies.extend(chunk_replies);
    }
    seg.slowdown = clock.slowdown();
    record_window(seg, &before);
    let mut spans: Vec<Vec<Span>> = recs.into_iter().map(Recorder::into_spans).collect();
    drop(conns);
    server.shutdown();

    // ---- verification, after the window ---------------------------------
    let mut baseline_ms = vec![0.0; pages.len()];
    let expected: Vec<String> = pages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let t = Instant::now();
            let clean = baseline_sanitize(&p.doc);
            baseline_ms[i] = ms_since(t);
            pages::tree_text(&clean)
        })
        .collect();
    // serve-repeat: the warm reply to each page, checked in full, is the
    // hash every timed reply to that page must match.
    let mut want_hash: Vec<Option<u64>> = vec![None; pages.len()];
    for (i, _, kept) in warm_replies {
        let p = &warm_set[i];
        let want = if fresh {
            pages::tree_text(&baseline_sanitize(&p.doc))
        } else {
            expected[i].clone()
        };
        let checked = match kept {
            Kept::Raw(b) => check_reply(&b, p.id, &want).map(|()| hash(&b)),
            Kept::Failed(e) => Err(e),
            Kept::Hash(_) => unreachable!("warm replies are kept whole"),
        };
        match checked {
            Ok(h) if !fresh => want_hash[i] = Some(h),
            Ok(_) => {}
            Err(e) => seg.fail(format!("warm-up: {e}")),
        }
    }
    for (p, _, kept) in replies {
        seg.attempted += 1;
        seg.add("baseline.ms", baseline_ms[p]);
        seg.add("baseline.mb", pages[p].html_bytes as f64 / 1e6);
        let verdict = match kept {
            Kept::Failed(e) => Err(e),
            Kept::Raw(bytes) => check_reply(&bytes, pages[p].id, &expected[p]),
            Kept::Hash(h) if want_hash[p] == Some(h) => Ok(()),
            Kept::Hash(_) => Err(format!("reply to page {p} differs from its checked reply")),
        };
        if let Err(e) = verdict {
            seg.fail(e);
        }
    }

    // ---- traced replay of the request path --------------------------------
    if seg.traced {
        let replay = if fresh {
            gen_pages(seed, STREAM_REPLAY, spec.replay_pages, &spec, 1 << 21)
        } else {
            pages
        };
        let memo = BatchMemo::new(RunOptions::default().memo_capacity);
        if !fresh {
            // The server's memo is warm at this point; warm the replay's.
            let mut off = Recorder::new(Instant::now(), false);
            for p in &replay {
                replay_one(&mut off, &plan, &ty, &memo, p);
            }
        }
        let mut rec = Recorder::new(epoch, true);
        for p in &replay {
            let out = replay_one(&mut rec, &plan, &ty, &memo, p);
            if out.as_deref() != Some(pages::tree_text(&baseline_sanitize(&p.doc)).as_str()) {
                seg.fail("replay output differs from the baseline sanitizer".into());
            }
        }
        record_trace(seg, rec.spans());
        spans.push(rec.into_spans());
    }
    spans
}

/// Replays one request through the server's public functions, in the
/// server's order: read frame → decode → parse+intern → eval → render →
/// write. (The server's private depth scan and its queue are not
/// replayed; they fall into the glue.) Returns the rendered output.
fn replay_one(
    rec: &mut Recorder,
    plan: &Plan,
    ty: &TreeType,
    memo: &BatchMemo,
    page: &Page,
) -> Option<String> {
    let mut wire = Vec::with_capacity(page.frame.len() + proto::LEN_PREFIX_BYTES);
    proto::write_frame(&mut wire, &page.frame).expect("writing to a Vec cannot fail");
    let opts = RunOptions {
        workers: 1,
        ..RunOptions::default()
    };
    let id = page.id as u64;
    let root = rec.open("request", id, None);
    let response = (|| {
        let bytes = rec.wrap("serve.proto.read", id, root, || {
            proto::read_frame(&mut wire.as_slice(), 8 << 20)
        });
        let bytes = bytes.ok()??;
        let req = rec.wrap("json.parse", id, root, || proto::parse_request(&bytes));
        let req = req.ok()?;
        let tree = rec.wrap("trees.parse", id, root, || Tree::parse(ty, &req.input));
        let tree = tree.ok()?;
        let (mut results, _) = rec.wrap("rt.plan.eval", id, root, || {
            plan.run_batch_shared(std::slice::from_ref(&tree), &opts, memo)
        });
        let outputs = results.pop()?.ok()?;
        let rendered: Vec<Json> = rec.wrap("trees.display", id, root, || {
            outputs
                .iter()
                .map(|t| Json::Str(t.display(ty).to_string()))
                .collect()
        });
        Some(rec.wrap("serve.proto.write", id, root, || {
            let resp = proto::ok_response(
                &req.id,
                vec![
                    ("op", Json::Str("run".into())),
                    ("target", Json::Str(req.target.clone())),
                    ("count", Json::Int(rendered.len() as i64)),
                    ("outputs", Json::Array(rendered)),
                ],
            );
            let mut sink = Vec::new();
            proto::write_json(&mut sink, &resp).expect("writing to a Vec cannot fail");
            std::hint::black_box(sink);
            resp
        }))
    })();
    rec.close(root);
    match response?.get("outputs")?.as_array()? {
        [Json::Str(out)] => Some(out.clone()),
        _ => None,
    }
}
