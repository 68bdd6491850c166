//! The `serve-warm-mix` workload: a serve daemon in its own process,
//! warm on two GNN-MLS specs, driven by an open loop at a fixed rate and
//! then by a closed loop. Every answer is checked against the in-process
//! `DesignSession` answer computed during set-up.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, ChildStdin, Command, ExitCode, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use gnn_mls::flow::FlowPolicy;
use gnn_mls::session::{InferResult, SessionSpec, WhatIfResult};
use gnn_mls::{AuditMode, DesignSession};
use gnnmls_serve::protocol::{
    decode_payload, encode_msg, read_frame, Request, Response, ResponseKind,
};
use gnnmls_serve::{ServeConfig, Server};

use crate::stats::{self, median, percentile, Rng};
use crate::{Args, Outcome};

/// The two warm specs (fast GNN-MLS configuration).
const DESIGNS: [&str; 2] = ["maeri16", "noc4x4"];
/// Open-loop send rate, requests per second: about a quarter of the
/// closed-loop capacity (~230 req/s on a 2-vCPU VM). At 100 req/s a run
/// in a slow host regime (closed loop 1.5x slower) queued to 3.3x the
/// usual open-loop p50; at 60 the queue stays short when the host slows,
/// and a 20-s loop leaves 12 samples beyond the p99.
const RATE: f64 = 60.0;
/// Nets per design in the what-if pool.
const POOL: usize = 192;
/// The pool is drawn with this fixed seed; the workload seed draws only
/// the traffic. What-if latency clusters by design and net size, and a
/// per-seed pool moved the what-if p50 between 4.2 and 8.0 ms from seed
/// to seed on a 2-vCPU VM — a property of the pool, not of the daemon.
const POOL_SEED: u64 = 0x9001;
/// Inference path counts are drawn uniformly from this range.
const K_MIN: u64 = 8;
const K_MAX: u64 = 64;
/// `WhatIf` requests per 10 of one spec (the rest is `InferMls`).
const WHATIF_OF_10: usize = 7;
/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Samples required beyond every reported tail percentile.
const MIN_BEYOND: usize = 10;
/// In-process what-if passes over every (pool net, allow) pair of a
/// traced run: 2 × 192 × 2 per spec, 1536 in all, leave 15 samples
/// beyond the p99.
const WHATIF_PASSES: usize = 2;

fn spec(design: &str) -> SessionSpec {
    SessionSpec::fast(design).with_policy(FlowPolicy::GnnMls)
}

/// Daemon mode: serve with the default configuration on a free port,
/// print the address, and exit when asked to or when the parent's pipe
/// on stdin closes (so a killed benchmark never leaves a daemon behind).
pub fn daemon() -> ExitCode {
    let server = match Server::start(ServeConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", server.local_addr());
    let _ = std::io::stdout().flush();
    thread::spawn(|| {
        let mut sink = Vec::new();
        let _ = std::io::Read::read_to_end(&mut std::io::stdin(), &mut sink);
        std::process::exit(0);
    });
    let _ = server.wait();
    ExitCode::SUCCESS
}

/// A daemon child process; killed and reaped on drop if still running.
struct Daemon {
    child: Child,
    _stdin: ChildStdin,
    addr: String,
}

impl Daemon {
    fn start() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .arg("--daemon")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning daemon: {e}"))?;
        let stdin = child.stdin.take().ok_or("daemon stdin")?;
        let stdout = child.stdout.take().ok_or("daemon stdout")?;
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let mut d = Daemon {
            child,
            _stdin: stdin,
            addr: line.trim().to_string(),
        };
        match read {
            Ok(n) if n > 0 => Ok(d),
            _ => {
                d.kill();
                Err("daemon exited before printing its address".into())
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<TcpStream, String> {
        let s =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        let _ = s.set_nodelay(true);
        Ok(s)
    }

    /// Drains the daemon with a `Shutdown` request and reaps it.
    fn stop(mut self) -> Result<(), String> {
        let sent = self
            .connect()
            .and_then(|mut s| exchange(&mut s, &Request::shutdown(u64::MAX)).map(|_| ()));
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return sent;
            }
            thread::sleep(Duration::from_millis(20));
        }
        self.kill();
        Err("daemon did not drain within 20 s".into())
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

fn send(s: &mut TcpStream, req: &Request) -> Result<(), String> {
    let frame = encode_msg(req).map_err(|e| e.to_string())?;
    s.write_all(&frame).map_err(|e| e.to_string())
}

fn exchange(s: &mut TcpStream, req: &Request) -> Result<Response, String> {
    send(s, req)?;
    read_frame(s).map_err(|e| format!("reading response: {e}"))
}

/// One request of the seeded mix.
#[derive(Clone, Copy)]
enum Op {
    WhatIf { spec: usize, net: u32, allow: bool },
    Infer { spec: usize, k: u64 },
}

/// The seeded inputs and the in-process answers they must get.
struct Expected {
    specs: Vec<SessionSpec>,
    pools: Vec<Vec<u32>>,
    what_if: HashMap<(usize, u32, bool), WhatIfResult>,
    infer: HashMap<(usize, u64), InferResult>,
}

/// The seeded request stream, stratified: each block of 10 requests per
/// spec holds exactly `WHATIF_OF_10` what-ifs, in seeded order. The
/// designs' what-if latencies form separate clusters and the p50 falls
/// between them, so with independent draws the p50 followed the seed's
/// chance share of each kind and spec.
struct Mix<'a> {
    exp: &'a Expected,
    rng: Rng,
    block: Vec<(usize, bool)>,
}

impl Iterator for Mix<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.block.is_empty() {
            for spec in 0..self.exp.specs.len() {
                self.block
                    .extend((0..10).map(|slot| (spec, slot < WHATIF_OF_10)));
            }
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        let (spec, what_if) = self.block.pop()?;
        Some(self.exp.op(&mut self.rng, spec, what_if))
    }
}

impl Expected {
    fn mix(&self, seed: u64) -> Mix<'_> {
        Mix {
            exp: self,
            rng: Rng::new(seed),
            block: Vec::new(),
        }
    }

    fn op(&self, rng: &mut Rng, spec: usize, what_if: bool) -> Op {
        if what_if {
            let pool = &self.pools[spec];
            Op::WhatIf {
                spec,
                net: pool[rng.below(pool.len() as u64) as usize],
                allow: rng.below(2) == 1,
            }
        } else {
            Op::Infer {
                spec,
                k: K_MIN + rng.below(K_MAX - K_MIN + 1),
            }
        }
    }

    fn request(&self, id: u64, op: Op) -> Request {
        match op {
            Op::WhatIf { spec, net, allow } => {
                Request::what_if(id, self.specs[spec].clone(), net, allow, None)
            }
            Op::Infer { spec, k } => Request::infer(id, self.specs[spec].clone(), Some(k)),
        }
    }

    /// `Ok(())` when the response is the in-process answer.
    fn verify(&self, op: Op, resp: &Response) -> Result<(), String> {
        if resp.kind != ResponseKind::Ok {
            return Err(format!(
                "{:?}: {}",
                resp.kind,
                resp.error.clone().unwrap_or_default()
            ));
        }
        let same = match op {
            Op::WhatIf { spec, net, allow } => {
                resp.what_if.as_ref() == self.what_if.get(&(spec, net, allow))
            }
            Op::Infer { spec, k } => {
                resp.infer.as_ref() == self.infer.get(&(spec, k))
                    && resp.model_version.as_deref() == Some("builtin")
            }
        };
        if same {
            Ok(())
        } else {
            Err(format!(
                "answer differs from the in-process session for {}",
                op_name(op)
            ))
        }
    }
}

fn op_name(op: Op) -> String {
    match op {
        Op::WhatIf { spec, net, allow } => format!("what-if spec {spec} net {net} allow {allow}"),
        Op::Infer { spec, k } => format!("infer spec {spec} k {k}"),
    }
}

/// In-process layer timings of a traced run; units as the field names
/// say, milliseconds otherwise.
#[derive(Default)]
struct SessionTimes {
    build_s: f64,
    restore: Vec<f64>,
    what_if: Vec<f64>,
    audit: Vec<f64>,
    infer: Vec<f64>,
    encode_us: Vec<f64>,
    decode_us: Vec<f64>,
}

/// Builds both sessions in-process, draws the net pools and precomputes
/// every answer the mix can ask for.
fn precompute(seed: u64, trace: bool) -> Result<(Expected, SessionTimes), String> {
    let mut rng = Rng::new(POOL_SEED);
    let mut t = SessionTimes::default();
    let mut exp = Expected {
        specs: DESIGNS.iter().map(|d| spec(d)).collect(),
        pools: Vec::new(),
        what_if: HashMap::new(),
        infer: HashMap::new(),
    };
    for (si, sp) in exp.specs.clone().iter().enumerate() {
        let t0 = Instant::now();
        let session =
            DesignSession::build(sp).map_err(|e| format!("building {}: {e}", sp.design))?;
        t.build_s += t0.elapsed().as_secs_f64();
        if session.model().is_none() {
            return Err(format!(
                "{}: session fell back to the heuristic policy",
                sp.design
            ));
        }
        let nets = session.stats().nets;
        let mut pool = Vec::new();
        let mut tries = 0;
        while pool.len() < POOL && tries < 50 * POOL {
            tries += 1;
            let net = rng.below(nets) as u32;
            if pool.contains(&net) {
                continue;
            }
            // Only nets both overrides can route join the pool: the
            // workload must not fail by construction.
            let answers = [false, true].map(|allow| session.what_if(net, allow, None));
            if let [Ok(deny), Ok(allow)] = &answers {
                exp.what_if.insert((si, net, false), deny.clone());
                exp.what_if.insert((si, net, true), allow.clone());
                pool.push(net);
            }
        }
        if pool.len() < POOL {
            return Err(format!(
                "{}: only {} routable nets in the pool",
                sp.design,
                pool.len()
            ));
        }
        for k in K_MIN..=K_MAX {
            let r = session
                .infer(k as usize)
                .map_err(|e| format!("infer {k}: {e}"))?;
            exp.infer.insert((si, k), r);
        }
        if trace {
            // Timed on warm passes, like the daemon's steady state.
            let ms = |t0: Instant| stats::ms(t0.elapsed());
            for _ in 0..64 {
                let t0 = Instant::now();
                let r = session.router().map_err(|e| e.to_string())?;
                t.restore.push(ms(t0));
                drop(std::hint::black_box(r));
                let t0 = Instant::now();
                session.audit(AuditMode::Cheap).map_err(|e| e.to_string())?;
                t.audit.push(ms(t0));
            }
            for _ in 0..WHATIF_PASSES {
                for &net in &pool {
                    for allow in [false, true] {
                        let t0 = Instant::now();
                        session
                            .what_if(net, allow, None)
                            .map_err(|e| e.to_string())?;
                        t.what_if.push(ms(t0));
                    }
                }
            }
            for k in K_MIN..=K_MAX {
                let t0 = Instant::now();
                session.infer(k as usize).map_err(|e| e.to_string())?;
                t.infer.push(ms(t0));
            }
        }
        exp.pools.push(pool);
    }
    if trace {
        // Codec cost of one exchange: the client encodes the request and
        // decodes the response, the daemon the reverse.
        for (i, op) in (1u64..).zip(exp.mix(seed ^ 0xc0dec).take(512)) {
            let req = exp.request(i, op);
            let resp = match op {
                Op::WhatIf { spec, net, allow } => {
                    Response::ok(i).with_what_if(exp.what_if[&(spec, net, allow)].clone())
                }
                Op::Infer { spec, k } => Response::ok(i)
                    .with_infer(exp.infer[&(spec, k)].clone())
                    .with_model_version("builtin"),
            };
            let t0 = Instant::now();
            let req_frame = encode_msg(&req).map_err(|e| e.to_string())?;
            let resp_frame = encode_msg(&resp).map_err(|e| e.to_string())?;
            t.encode_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let back: Request = decode_payload(&req_frame[5..]).map_err(|e| e.to_string())?;
            let back_resp: Response =
                decode_payload(&resp_frame[5..]).map_err(|e| e.to_string())?;
            t.decode_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if back != req || back_resp != resp {
                return Err("protocol round trip changed a message".into());
            }
        }
    }
    Ok((exp, t))
}

/// Starts a daemon and warms both specs; returns it with the time from
/// spawn until both answered.
fn start_warm(exp: &Expected) -> Result<(Daemon, f64), String> {
    let t0 = Instant::now();
    let d = Daemon::start()?;
    let mut s = d.connect()?;
    // Both warm-up requests go out at once so the two workers build the
    // sessions side by side, as two first callers would.
    let ops: Vec<Op> = exp
        .pools
        .iter()
        .enumerate()
        .map(|(spec, pool)| Op::WhatIf {
            spec,
            net: pool[0],
            allow: true,
        })
        .collect();
    for (i, &op) in ops.iter().enumerate() {
        send(&mut s, &exp.request(i as u64 + 1, op))?;
    }
    for _ in &ops {
        let resp: Response = read_frame(&mut s).map_err(|e| format!("warm-up: {e}"))?;
        let op = ops[(resp.id - 1) as usize];
        exp.verify(op, &resp).map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok((d, t0.elapsed().as_secs_f64()))
}

/// Latencies of one loop, per request kind.
#[derive(Default)]
struct Loop {
    what_if_ms: Vec<f64>,
    infer_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    wrong: Vec<String>,
}

impl Loop {
    /// Checks one answer and keeps its latency.
    fn record(&mut self, exp: &Expected, op: Op, resp: &Response, ms: f64) {
        match exp.verify(op, resp) {
            Ok(()) => {
                self.ok += 1;
                match op {
                    Op::WhatIf { .. } => self.what_if_ms.push(ms),
                    Op::Infer { .. } => self.infer_ms.push(ms),
                }
            }
            Err(e) => {
                self.failed += 1;
                if self.wrong.len() < 5 {
                    self.wrong.push(e);
                }
            }
        }
    }
}

/// Open loop: requests are due every `1/RATE` s whatever the answers
/// do; each latency runs from its due time, so a stall also charges the
/// requests queued behind it.
fn open_loop(d: &Daemon, exp: &Expected, seed: u64, secs: f64) -> Result<Loop, String> {
    let n = (RATE * secs).round() as usize;
    let ops: Vec<Op> = exp.mix(seed ^ 0x0be1).take(n).collect();
    let frames: Vec<Vec<u8>> = ops
        .iter()
        .enumerate()
        .map(|(i, &op)| encode_msg(&exp.request(i as u64 + 1, op)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let mut rx = d.connect()?;
    let mut tx = rx.try_clone().map_err(|e| e.to_string())?;
    let period = Duration::from_secs_f64(1.0 / RATE);
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + period * i as u32;
    let mut out = Loop::default();
    thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut lag = Vec::with_capacity(n);
            for (i, frame) in frames.iter().enumerate() {
                let at = due(i);
                let now = Instant::now();
                if at > now {
                    thread::sleep(at - now);
                }
                lag.push(stats::ms(Instant::now().saturating_duration_since(at)));
                if tx.write_all(frame).is_err() {
                    break;
                }
            }
            lag
        });
        for _ in 0..n {
            let resp: Response = match read_frame(&mut rx) {
                Ok(r) => r,
                Err(e) => {
                    out.wrong.push(format!("open loop: {e}"));
                    break;
                }
            };
            let i = resp.id.wrapping_sub(1) as usize;
            match ops.get(i) {
                Some(&op) => {
                    let ms = stats::ms(Instant::now().saturating_duration_since(due(i)));
                    out.record(exp, op, &resp, ms);
                }
                None => out.failed += 1,
            }
        }
        out.lag_ms = sender.join().unwrap_or_default();
    });
    // Requests never answered (the stream broke) count as failed.
    out.failed = n as u64 - out.ok;
    Ok(out)
}

/// Closed loop: two connections, each sending its next request as soon
/// as the previous answer arrives.
fn closed_loop(d: &Daemon, exp: &Expected, seed: u64, secs: f64) -> Result<(Loop, f64), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let worker = |c: u64| -> Result<Loop, String> {
        let mut s = d.connect()?;
        let mut mix = exp.mix(seed ^ (0xc105ed + c));
        let mut l = Loop::default();
        let mut id = 0u64;
        while Instant::now() < deadline {
            id += 1;
            let Some(op) = mix.next() else { break };
            let t0 = Instant::now();
            let resp = exchange(&mut s, &exp.request(id, op))?;
            l.record(exp, op, &resp, stats::ms(t0.elapsed()));
        }
        Ok(l)
    };
    let t0 = Instant::now();
    let (a, b) = thread::scope(|scope| {
        let other = scope.spawn(|| worker(1));
        let mine = worker(0);
        (
            mine,
            other
                .join()
                .unwrap_or_else(|_| Err("closed-loop thread panicked".into())),
        )
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let (mut a, b) = (a?, b?);
    a.ok += b.ok;
    a.failed += b.failed;
    a.wrong.extend(b.wrong);
    a.what_if_ms.extend(b.what_if_ms);
    a.infer_ms.extend(b.infer_ms);
    Ok((a, elapsed))
}

/// The highest of p99/p98/p95/p90 with `MIN_BEYOND` samples beyond it.
fn tail_name(sorted: &[f64]) -> Option<(u32, f64)> {
    [99u32, 98, 95, 90].into_iter().find_map(|p| {
        stats::tail(sorted, f64::from(p) / 100.0, MIN_BEYOND, "")
            .ok()
            .map(|v| (p, v))
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (exp, times) = precompute(args.seed, args.trace)?;

    // Set-up: daemon start until both specs are warm, several times.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let (d, s) = start_warm(&exp)?;
        setups.push(s);
        daemon = Some(d);
    }
    let d = daemon.ok_or("no daemon started")?;

    let secs = args.seconds.as_secs_f64();
    let open = open_loop(&d, &exp, args.seed, secs)?;
    let (closed, closed_s) = closed_loop(&d, &exp, args.seed, secs / 2.0)?;

    let mut ctl = d.connect()?;
    let stats_resp = exchange(
        &mut ctl,
        &Request::stats(u64::MAX - 1, exp.specs[0].clone()),
    )?;
    let metrics_resp = exchange(&mut ctl, &Request::metrics(u64::MAX - 2))?;
    let rss = stats::peak_rss_mb(&d.pid())?;
    drop(ctl);
    d.stop()?;

    let mut out = Outcome {
        attempted: open.ok + open.failed + closed.ok + closed.failed,
        failed: open.failed + closed.failed,
        ..Outcome::default()
    };
    out.wrong
        .extend(open.wrong.iter().chain(&closed.wrong).cloned());

    let all = stats::sorted(&[open.what_if_ms.clone(), open.infer_ms.clone()].concat());
    let wi = stats::sorted(&open.what_if_ms);
    let inf = stats::sorted(&open.infer_ms);
    if all.is_empty() || wi.is_empty() || inf.is_empty() {
        return Err("the open loop completed no requests of some kind".into());
    }
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", rss);
    out.set("p50_ms", percentile(&all, 0.5));
    out.set("rps", closed.ok as f64 / closed_s);

    out.note(
        "open_p99_ms",
        stats::tail(&all, 0.99, MIN_BEYOND, "open loop")?,
        "ms",
    );
    out.note("open_requests", all.len() as f64, "count");
    out.note("whatif_p50_ms", percentile(&wi, 0.5), "ms");
    out.note("infer_p50_ms", percentile(&inf, 0.5), "ms");
    for (kind, sorted) in [("whatif", &wi), ("infer", &inf)] {
        match tail_name(sorted) {
            Some((p, v)) => out.note(&format!("{kind}_p{p}_ms"), v, "ms"),
            None => out.note(
                &format!("{kind}_samples_too_few"),
                sorted.len() as f64,
                "count",
            ),
        }
        out.note(&format!("{kind}_samples"), sorted.len() as f64, "count");
    }
    out.note(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    let lag_p99 = percentile(&stats::sorted(&open.lag_ms), 0.99);
    out.note("loadgen_lag_p99_ms", lag_p99, "ms");

    if args.trace {
        let st = stats_resp.stats.ok_or("stats response carried no stats")?;
        let text = metrics_resp.metrics.unwrap_or_default();
        let p50 = median;
        let codec_ms = (p50(&times.encode_us) + p50(&times.decode_us)) / 1e3;
        let audit = p50(&times.audit);
        out.set("session.build_s", times.build_s);
        out.set("session.restore_p50_ms", p50(&times.restore));
        out.set("session.whatif_p50_ms", p50(&times.what_if));
        out.set(
            "session.whatif_p99_ms",
            stats::tail(
                &stats::sorted(&times.what_if),
                0.99,
                MIN_BEYOND,
                "session what-if",
            )?,
        );
        out.set("session.audit_p50_ms", audit);
        out.set("session.infer_p50_ms", p50(&times.infer));
        out.set("protocol.encode_p50_us", p50(&times.encode_us));
        out.set("protocol.decode_p50_us", p50(&times.decode_us));
        out.set(
            "server.whatif_overhead_p50_ms",
            percentile(&wi, 0.5) - (p50(&times.what_if) + audit + codec_ms),
        );
        out.set(
            "server.infer_overhead_p50_ms",
            percentile(&inf, 0.5) - (p50(&times.infer) + audit + codec_ms),
        );
        let lookups = (st.cache_hits + st.cache_misses).max(1);
        out.set(
            "server.cache_hit_frac",
            st.cache_hits as f64 / lookups as f64,
        );
        let batches = stats::exposition_value(&text, "gnnmls_serve_infer_batch_size_count");
        let batched = stats::exposition_value(&text, "gnnmls_serve_infer_batch_size_sum");
        out.set("server.infer_batch_mean", batched / batches.max(1.0));
        out.set("server.busy", st.busy as f64);
        out.set("server.served", st.served as f64);
        out.set("loadgen.lag_p99_ms", lag_p99);
    }
    Ok(out)
}
