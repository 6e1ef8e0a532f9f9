//! The traced run: replays each op of an end-to-end run in process and
//! times the call into every layer's public functions once per op.
//!
//! An op that the daemon answered from its cache (`cached: true`) is
//! replayed as what the daemon did for it: a cache lookup plus the HTTP
//! and JSON layers. Every other op is replayed as a fresh analysis,
//! split into the same calls `driver::analyze_one` makes, each timed on
//! its own. `analyze_one` is then timed whole inside the driver's
//! sandbox, so its remainder over the split calls is `unattributed_ms`
//! and the sandbox's time around it is `sandbox_ms`.

use crate::inputs::load_bytecode;
use crate::{ms_since, parallel_map, write_lines, Flags};
use decompiler::{DefUse, Dominators, Op, Program};
use ethainter::{AnalysisArtifacts, Config};
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use store::SharedCache;

/// One op to replay (a line of the ops file `run.py` writes).
#[derive(Deserialize)]
struct OpSpec {
    name: String,
    /// Whether the daemon answered this op from its cache.
    cached: bool,
    /// Whether the op asked for witnesses.
    witness: bool,
    /// File holding the raw HTTP request the client sent, for serve ops.
    #[serde(default)]
    request: Option<String>,
    /// File holding the `done` status body the client received.
    #[serde(default)]
    done: Option<String>,
}

/// Per-op layer timings (ms) and counts. A layer an op did not exercise
/// reads 0.
#[derive(Serialize, Default)]
struct OpTrace {
    name: String,
    analyzed: bool,
    decompile_ms: f64,
    validate_ms: f64,
    optimize_ms: f64,
    removed_frac: f64,
    dominators_ms: f64,
    defuse_ms: f64,
    consts_ms: f64,
    intervals_ms: f64,
    dead_edge_frac: f64,
    artifacts_build_ms: f64,
    evaluate_ms: f64,
    fixpoint_rounds: f64,
    witness_ms: f64,
    sandbox_ms: f64,
    unattributed_ms: f64,
    put_ms: f64,
    get_ms: f64,
    hit: f64,
    parse_request_ms: f64,
    request_kb: f64,
    write_status_ms: f64,
    http_read_ms: f64,
    /// Finding classes of the traced analysis (witness off).
    classes: Vec<ethainter::Vuln>,
}

/// Times `f`, returning its result and the elapsed milliseconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = black_box(f());
    (r, ms_since(t))
}

/// `trace --inputs dir --ops file --jobs j --miss-cache dir
/// [--hit-cache dir] --out file`: writes one [`OpTrace`] per op to
/// `--out` and prints `{"open_ms": …}` (median of five
/// `SharedCache::open` calls on the hit cache, or on the empty miss
/// cache when there is none).
pub fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let inputs = Path::new(flags.get("inputs")?);
    let ops_text = std::fs::read_to_string(flags.get("ops")?).map_err(|e| e.to_string())?;
    let ops: Vec<OpSpec> = ops_text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| serde_json::from_str(l).map_err(|e| format!("bad op `{l}`: {e}")))
        .collect::<Result<_, _>>()?;
    let jobs: usize = flags.num("jobs", 1)?;

    let miss_dir = flags.get("miss-cache")?;
    let open_dir = flags.opt("hit-cache").unwrap_or(miss_dir);
    let mut open_ms: Vec<f64> = (0..5)
        .map(|_| timed(|| SharedCache::open(open_dir)).1)
        .collect();
    open_ms.sort_by(f64::total_cmp);
    let miss_cache = SharedCache::open(miss_dir)?;
    let hit_cache = flags.opt("hit-cache").map(SharedCache::open).transpose()?;

    let rows = parallel_map(ops.len(), jobs, |i| -> Result<String, String> {
        let op = &ops[i];
        let code = load_bytecode(inputs, &op.name)?;
        let mut row = OpTrace {
            name: op.name.clone(),
            ..Default::default()
        };
        let key = store::cache_key(&code, &Config::default());
        if op.cached {
            let cache = hit_cache.as_ref().ok_or("a cached op needs --hit-cache")?;
            let (hit, get_ms) = timed(|| cache.lookup(&key));
            row.get_ms = get_ms;
            row.hit = f64::from(u8::from(hit.is_some()));
        } else {
            let (hit, get_ms) = timed(|| miss_cache.lookup(&key));
            row.get_ms = get_ms;
            row.hit = f64::from(u8::from(hit.is_some()));
            let result = trace_analysis(&mut row, &op.name, &code, op.witness);
            let (put, put_ms) = timed(|| miss_cache.insert(key, result));
            put?;
            row.put_ms = put_ms;
        }
        if let Some(path) = &op.request {
            trace_request(&mut row, path)?;
        }
        if let Some(path) = &op.done {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let body: server::api::JobStatusBody =
                serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
            let (json, ms) = timed(|| serde_json::to_string(&body));
            json.map_err(|e| e.to_string())?;
            row.write_status_ms = ms;
        }
        serde_json::to_string(&row).map_err(|e| e.to_string())
    });
    let rows: Vec<String> = rows.into_iter().collect::<Result<_, _>>()?;
    write_lines(flags.get("out")?, &rows)?;
    println!("{{\"open_ms\": {}}}", open_ms[open_ms.len() / 2]);
    Ok(())
}

/// Runs a fresh analysis as the split calls `driver::analyze_one` makes,
/// timing each, then runs `analyze_one` whole the way
/// `driver::analyze_job` does: in `driver::isolate_one` under a
/// deadline. The closure times `analyze_one` itself, so the sandbox's
/// share is the outer time minus that and cannot come out negative.
/// Returns what the daemon caches for the op.
fn trace_analysis(
    row: &mut OpTrace,
    name: &str,
    code: &[u8],
    witness: bool,
) -> store::CachedResult {
    let config = Config {
        witness,
        ..Default::default()
    };
    let plain = Config {
        witness: false,
        ..config
    };

    let (mut program, decompile_ms) = timed(|| decompiler::decompile(code));
    row.decompile_ms = decompile_ms;
    let mut parts = decompile_ms;
    if !program.incomplete {
        row.analyzed = true;
        let (_lint, validate_ms) = timed(|| decompiler::validate(&program));
        row.validate_ms = validate_ms;
        if config.optimize_ir {
            let (stats, ms) =
                timed(|| decompiler::optimize(&mut program, &decompiler::PassConfig::default()));
            row.optimize_ms = ms;
            row.removed_frac = ratio(stats.removed, stats.stmts_before);
        }
        row.dominators_ms = timed(|| Dominators::compute(&program)).1;
        row.defuse_ms = timed(|| DefUse::build(&program)).1;
        row.consts_ms = timed(|| decompiler::passes::constprop::constants(&program)).1;
        let (iv, intervals_ms) = timed(|| decompiler::passes::intervals::analyze(&program));
        row.intervals_ms = intervals_ms;
        row.dead_edge_frac = ratio(iv.dead_edges.len(), jumpi_edges(&program));

        let (artifacts, build_ms) = timed(|| AnalysisArtifacts::build(&program, &config));
        row.artifacts_build_ms = build_ms;
        let (report, evaluate_ms) = timed(|| artifacts.evaluate(&plain));
        row.evaluate_ms = evaluate_ms;
        row.fixpoint_rounds = report.stats.rounds as f64;
        row.classes = report.findings.iter().map(|f| f.vuln).collect();
        if witness {
            row.witness_ms = timed(|| artifacts.evaluate(&config)).1 - evaluate_ms;
        }
        parts += validate_ms + row.optimize_ms + build_ms + evaluate_ms + row.witness_ms;
    }

    let timeout = Duration::from_secs(120);
    let (outcome, job_ms) = timed(|| {
        driver::isolate_one(name.to_string(), code.to_vec(), timeout, move |code| {
            let deadline = Instant::now() + timeout;
            ethainter::with_deadline(deadline, || timed(|| driver::analyze_one(&code, &config)))
        })
    });
    let status = match outcome.result {
        driver::Isolated::Completed((status, one_ms)) => {
            row.unattributed_ms = one_ms - parts;
            row.sandbox_ms = job_ms - one_ms;
            status
        }
        driver::Isolated::TimedOut => driver::Status::TimedOut,
        driver::Isolated::Panicked { message } => driver::Status::Panicked { message },
    };
    store::CachedResult {
        status,
        elapsed_ms: outcome.elapsed_ms,
    }
}

/// `num / den`, or 0 when `den` is 0.
fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Number of `JumpI` out-edges (two per conditional jump).
fn jumpi_edges(p: &Program) -> usize {
    p.blocks
        .iter()
        .filter(|b| b.stmts.last().is_some_and(|&s| p.stmt(s).op == Op::JumpI))
        .map(|b| b.succs.len())
        .sum()
}

/// Times the request's HTTP read over a loopback socket, then the JSON
/// parse of the body that read produced — the daemon's order, on a
/// buffer built the way the daemon builds it.
fn trace_request(row: &mut OpTrace, path: &str) -> Result<(), String> {
    let raw = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let (request, http_read_ms) = http_read(&raw)?;
    row.http_read_ms = http_read_ms;
    let body = std::str::from_utf8(&request.body).map_err(|e| format!("{path}: {e}"))?;
    row.request_kb = body.len() as f64 / 1024.0;
    let (parsed, ms) = timed(|| serde_json::from_str::<server::api::JobRequest>(body));
    parsed.map_err(|e| format!("{path}: {e}"))?;
    row.parse_request_ms = ms;
    Ok(())
}

/// Sends `raw` to a loopback listener and times
/// `server::http::read_request` on the accepted side. The writer gets a
/// head start so the read measures parsing and copying, not the send.
fn http_read(raw: &[u8]) -> Result<(server::http::Request, f64), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let max_body = server::ServerConfig::default().max_body;
    std::thread::scope(|s| {
        let (sent_tx, sent_rx) = std::sync::mpsc::channel::<()>();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let writer = s.spawn(move || -> Result<(), String> {
            let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
            stream.write_all(raw).map_err(|e| e.to_string())?;
            let _ = sent_tx.send(());
            // Keep the connection open until the reader is done.
            let _ = done_rx.recv();
            Ok(())
        });
        let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
        // A body larger than the socket buffers cannot be sent in full
        // before the reader drains it; give up waiting after 50 ms.
        let _ = sent_rx.recv_timeout(Duration::from_millis(50));
        let (req, ms) =
            timed(|| server::http::read_request(&mut stream, max_body, Duration::from_secs(10)));
        let _ = done_tx.send(());
        writer
            .join()
            .map_err(|_| "loopback writer panicked".to_string())??;
        let req = req.map_err(|e| format!("read_request: {e:?}"))?;
        Ok((req, ms))
    })
}
