//! The serving half of a trial: the trained model behind an in-process
//! `nf serve` server (one replica per core), driven by the benchmark's
//! own single-thread client over two connections. The client speaks the
//! wire protocol through the public `proto` frame codec only, so a
//! change to `nf loadgen` cannot move a serve metric.
//!
//! Two phases run back to back: an open loop at a fixed rate well below
//! the knee, with latency timed from each request's due time, and a
//! closed loop that keeps a fixed number of requests in flight. Every
//! reply is checked against offline single-sample `infer_batch` on the
//! same in-process engine.

use crate::metrics::MAX_EXITS;
use crate::probe;
use crate::stats::{mean, median, percentile, Fnv};
use crate::train::Trained;
use crate::trial::Report;
use crate::workload::{derived_seed, Workload};
use neuroflux_core::serve::splitmix64;
use neuroflux_core::{ServeEngine, ServeRequest, SloTier};
use nf_cli::proto::{self, RejectReason, Request, Response};
use nf_cli::{start_server_with_engines, ReplicaSnapshot, ServerHandle};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Client connections; the load comes from one thread.
const CONNECTIONS: usize = 2;
/// Requests the closed loop keeps in flight: a full micro-batch
/// (`max_batch` = 8) on each connection.
const CLOSED_WINDOW: usize = 16;
/// Longest the client sleeps in one wait for replies.
const MAX_IDLE: Duration = Duration::from_millis(10);
/// How long after the last send a phase waits for missing replies.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(5);
/// Offline `infer_batch` replays per tier and batch size.
const ENGINE_REPS: usize = 30;
/// Requests whose frames the protocol replay re-encodes and decodes.
const PROTO_REPLAY: usize = 2000;

/// The reply offline single-sample inference gives.
#[derive(Clone, Copy)]
struct Expected {
    class: usize,
    exit: usize,
    conf_bits: u32,
}

/// One request as the client saw it.
struct Rec {
    tier: SloTier,
    sample: usize,
    open: bool,
    due: Instant,
    sent: Option<Instant>,
    replies: u32,
    reply: Option<Reply>,
    rejected: Option<RejectReason>,
}

#[derive(Clone, Copy)]
struct Reply {
    at: Instant,
    class: u16,
    exit: u8,
    confidence: f32,
    server_us: u32,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: usize,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            inflight: 0,
        })
    }

    /// Writes as much of the outbox as the socket takes now.
    fn flush(&mut self) -> std::io::Result<()> {
        let mut done = 0;
        while done < self.wbuf.len() {
            match self.stream.write(&self.wbuf[done..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.wbuf.drain(..done);
        Ok(())
    }

    /// Reads what is ready and returns every complete response payload.
    fn receive(&mut self) -> Result<Vec<Vec<u8>>, String> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("server closed a client connection".into()),
                Ok(n) => self.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("client read: {e}")),
            }
        }
        let mut frames = Vec::new();
        let mut at = 0;
        while self.rbuf.len() - at >= 4 {
            let len = u32::from_le_bytes([
                self.rbuf[at],
                self.rbuf[at + 1],
                self.rbuf[at + 2],
                self.rbuf[at + 3],
            ]) as usize;
            if len > proto::MAX_PAYLOAD {
                return Err(format!("reply frame of {len} bytes"));
            }
            if self.rbuf.len() - at - 4 < len {
                break;
            }
            frames.push(self.rbuf[at + 4..at + 4 + len].to_vec());
            at += 4 + len;
        }
        self.rbuf.drain(..at);
        Ok(frames)
    }
}

/// The single-thread load generator.
struct Client<'d> {
    conns: Vec<Conn>,
    recs: Vec<Rec>,
    pixels: &'d dyn Fn(usize) -> &'d [f32],
    outstanding: usize,
    last_send: Option<Instant>,
    errors: Vec<String>,
}

impl Client<'_> {
    fn send(&mut self, id: usize, conn: usize) -> Result<(), String> {
        let rec = &mut self.recs[id];
        let req = Request::Infer {
            id: id as u64,
            tier: rec.tier,
            pixels: (self.pixels)(rec.sample).to_vec(),
        };
        let wire = proto::frame_bytes(&proto::encode_request(&req)).map_err(|e| e.to_string())?;
        let now = Instant::now();
        rec.sent = Some(now);
        self.last_send = Some(now);
        let c = &mut self.conns[conn];
        c.wbuf.extend_from_slice(&wire);
        c.inflight += 1;
        self.outstanding += 1;
        c.flush().map_err(|e| format!("client write: {e}"))
    }

    /// Flushes pending writes and takes in every ready reply; returns
    /// how many replies arrived on each connection.
    fn poll(&mut self) -> Result<[usize; CONNECTIONS], String> {
        let mut got = [0; CONNECTIONS];
        for (ci, slot) in got.iter_mut().enumerate() {
            self.conns[ci]
                .flush()
                .map_err(|e| format!("client write: {e}"))?;
            let frames = self.conns[ci].receive()?;
            let now = Instant::now();
            for payload in frames {
                *slot += 1;
                self.conns[ci].inflight = self.conns[ci].inflight.saturating_sub(1);
                self.outstanding = self.outstanding.saturating_sub(1);
                self.accept(&payload, now);
            }
        }
        Ok(got)
    }

    fn accept(&mut self, payload: &[u8], now: Instant) {
        let (id, reply, rejected) = match proto::decode_response(payload) {
            Ok(Response::Infer {
                id,
                class,
                exit,
                confidence,
                server_us,
            }) => {
                let reply = Reply {
                    at: now,
                    class,
                    exit,
                    confidence,
                    server_us,
                };
                (id, Some(reply), None)
            }
            Ok(Response::Rejected { id, reason }) => (id, None, Some(reason)),
            Ok(other) => {
                self.errors.push(format!("unexpected reply {other:?}"));
                return;
            }
            Err(e) => {
                self.errors.push(format!("undecodable reply: {e}"));
                return;
            }
        };
        let Some(rec) = self.recs.get_mut(id as usize) else {
            self.errors.push(format!("reply for unknown request {id}"));
            return;
        };
        rec.replies += 1;
        if rec.replies > 1 {
            self.errors
                .push(format!("request {id} got {} replies", rec.replies));
            return;
        }
        rec.reply = reply;
        rec.rejected = rejected;
    }

    /// Sleeps until a reply is readable, a pending write can proceed, or
    /// `until` (the next request's due time) comes.
    fn idle(&self, until: Option<Instant>) {
        let timeout = until.map_or(MAX_IDLE, |t| {
            t.saturating_duration_since(Instant::now()).min(MAX_IDLE)
        });
        let fds: Vec<(RawFd, bool)> = self
            .conns
            .iter()
            .map(|c| (c.stream.as_raw_fd(), !c.wbuf.is_empty()))
            .collect();
        crate::sys::wait(&fds, timeout);
    }

    /// Sends `ids` on their schedule, round-robin over the connections,
    /// and waits for their replies.
    fn open_loop(&mut self, ids: std::ops::Range<usize>) -> Result<(), String> {
        let mut next = ids.start;
        while next < ids.end || self.outstanding > 0 {
            let now = Instant::now();
            while next < ids.end && self.recs[next].due <= now {
                self.send(next, next % CONNECTIONS)?;
                next += 1;
            }
            let got = self.poll()?;
            if next == ids.end && self.drained_too_long() {
                break;
            }
            if got.iter().sum::<usize>() == 0 {
                self.idle((next < ids.end).then(|| self.recs[next].due));
            }
        }
        Ok(())
    }

    /// Keeps `window / CONNECTIONS` requests in flight on every
    /// connection until `ids` are all sent and answered. Returns the
    /// time from the first send to the last reply.
    fn closed_loop(&mut self, ids: std::ops::Range<usize>, window: usize) -> Result<f64, String> {
        let per_conn = (window / CONNECTIONS).max(1);
        let start = Instant::now();
        let mut next = ids.start;
        loop {
            for ci in 0..CONNECTIONS {
                while next < ids.end && self.conns[ci].inflight < per_conn {
                    self.send(next, ci)?;
                    next += 1;
                }
            }
            let got = self.poll()?;
            if next == ids.end && (self.outstanding == 0 || self.drained_too_long()) {
                break;
            }
            if got.iter().sum::<usize>() == 0 {
                self.idle(None);
            }
        }
        let last = self.recs[ids.clone()]
            .iter()
            .filter_map(|r| r.reply.map(|p| p.at))
            .max()
            .unwrap_or(start);
        Ok((last - start).as_secs_f64())
    }

    /// Whether the replies still missing are overdue.
    fn drained_too_long(&self) -> bool {
        self.last_send.is_some_and(|t| t.elapsed() > DRAIN_TIMEOUT)
    }
}

/// Replica counters summed over replicas, busy time in µs.
#[derive(Clone, Copy, Default)]
struct Replicas {
    busy_us: f64,
    batches: u64,
    served: u64,
}

fn replicas(handle: &ServerHandle, alive: Duration) -> Replicas {
    let alive_us = alive.as_secs_f64() * 1e6;
    handle
        .replica_stats()
        .iter()
        .fold(Replicas::default(), |acc, s: &ReplicaSnapshot| Replicas {
            busy_us: acc.busy_us + s.busy_frac * alive_us,
            batches: acc.batches + s.batches,
            served: acc.served + s.served,
        })
}

/// Runs the serving half on the model `trained` produced.
pub fn run(
    w: &Workload,
    seed: u64,
    trace: bool,
    trained: Trained,
    rep: &mut Report,
) -> Result<(), String> {
    let Trained {
        cfg,
        data,
        outcome,
        setup,
    } = trained;
    let policy = cfg.resolve_serve().map_err(|e| e.to_string())?;
    let (_, _, nf_config) = cfg.resolve().map_err(|e| e.to_string())?;
    let mut primary = ServeEngine::new(outcome.model, outcome.aux_heads, policy.threshold)
        .map_err(|e| e.to_string())?;
    primary.set_kernel_backend(nf_config.kernel_backend);
    primary.install_private_workspace();
    let mut fp = Fnv::new();
    for blob in primary.params_snapshot() {
        fp.update(&blob);
    }
    rep.info("params_fp", fp.hex());

    // The oracle: offline single-sample inference of every test sample
    // under every tier, on the engine the replicas are cloned from.
    let test = data.test.images();
    let input_len = primary.input_len();
    let n_test = test.shape()[0];
    let pixels = |i: usize| &test.data()[i * input_len..(i + 1) * input_len];
    let mut expected = Vec::with_capacity(n_test * 3);
    for i in 0..n_test {
        for tier in SloTier::ALL {
            let r = primary
                .infer_batch(&[request(0, tier, pixels(i))])
                .map_err(|e| format!("offline inference: {e}"))?;
            expected.push(Expected {
                class: r[0].class,
                exit: r[0].exit,
                conf_bits: r[0].confidence.to_bits(),
            });
        }
    }

    // Tune the kernel plans of every serving batch shape before the load
    // starts, as a server that has run for a while would have them. `nf
    // serve` does not do this at start-up, so it stays out of `setup_s`.
    let warmup_start = Instant::now();
    for batch in 1..=policy.max_batch {
        for tier in SloTier::ALL {
            let reqs: Vec<ServeRequest> = (0..batch)
                .map(|i| request(i as u64, tier, pixels(i % n_test)))
                .collect();
            primary
                .infer_batch(&reqs)
                .map_err(|e| format!("warm-up inference: {e}"))?;
        }
    }
    let warmup = warmup_start.elapsed();
    let setup_start = Instant::now();
    let n_replicas = policy.effective_replicas(nf_tensor::host_cores());
    let engines =
        nf_cli::serve::clone_engines(&cfg, &mut primary, n_replicas).map_err(|e| e.to_string())?;
    let server_start = Instant::now();
    let handle = start_server_with_engines(engines, policy.clone(), "127.0.0.1:0", false)
        .map_err(|e| e.to_string())?;
    let conns = (0..CONNECTIONS)
        .map(|_| Conn::connect(handle.addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connecting: {e}"))?;
    rep.metric("setup_s", (setup + setup_start.elapsed()).as_secs_f64());

    // The seeded schedule: a 1:1:1 tier mix over the test split.
    let sched = derived_seed(seed, 3);
    let total = w.open_requests + w.closed_requests;
    let phase_start = Instant::now();
    let recs = (0..total)
        .map(|k| {
            let draw = splitmix64(sched, k as u64);
            Rec {
                tier: SloTier::ALL[(draw % 3) as usize],
                sample: ((draw >> 8) % n_test as u64) as usize,
                open: k < w.open_requests,
                due: phase_start + Duration::from_secs_f64(k as f64 / w.open_rate),
                sent: None,
                replies: 0,
                reply: None,
                rejected: None,
            }
        })
        .collect();
    let mut client = Client {
        conns,
        recs,
        pixels: &pixels,
        outstanding: 0,
        last_send: None,
        errors: Vec::new(),
    };

    let usage_start = probe::usage();
    let r0 = replicas(&handle, server_start.elapsed());
    let open_result = client.open_loop(0..w.open_requests);
    let open_end = Instant::now();
    let r1 = replicas(&handle, server_start.elapsed());
    let closed_result =
        open_result.and_then(|()| client.closed_loop(w.open_requests..total, CLOSED_WINDOW));
    let r2 = replicas(&handle, server_start.elapsed());
    let usage = probe::usage().since(usage_start);
    drop(client.conns);
    handle.stop();
    let closed_s = closed_result?;
    for e in client.errors.drain(..) {
        rep.error(e);
    }

    // Every request sent gets exactly one reply, with the offline class
    // and exit; confidence bits that differ are counted, not failed.
    let mut failed = 0u64;
    let mut rejected = [0u64; 4];
    let mut exit_hist = [0u64; MAX_EXITS];
    let mut conf_mismatch = 0u64;
    let mut wrong = 0u64;
    let mut unanswered = 0u64;
    for r in &client.recs {
        if let Some(reason) = r.rejected {
            rejected[usize::from(reason.code()).saturating_sub(1).min(3)] += 1;
            failed += 1;
            continue;
        }
        let Some(reply) = r.reply else {
            unanswered += 1;
            failed += 1;
            continue;
        };
        let want = expected[r.sample * 3 + r.tier.index()];
        if usize::from(reply.class) != want.class || usize::from(reply.exit) != want.exit {
            wrong += 1;
            failed += 1;
        }
        if reply.confidence.to_bits() != want.conf_bits {
            conf_mismatch += 1;
        }
        if let Some(slot) = exit_hist.get_mut(usize::from(reply.exit)) {
            *slot += 1;
        }
    }
    if wrong > 0 {
        rep.error(format!(
            "{wrong} replies differ from offline inference in class or exit"
        ));
    }
    if unanswered > 0 {
        rep.error(format!("{unanswered} requests got no reply"));
    }
    rep.ops(total as u64, failed);
    rep.info("conf_bits_mismatch", conf_mismatch.to_string());
    let reasons: Vec<String> = rejected
        .iter()
        .enumerate()
        .map(|(i, n)| format!("{}={n}", reject_name(i)))
        .collect();
    rep.info("rejected", reasons.join(","));

    let open: Vec<&Rec> = client.recs.iter().filter(|r| r.open).collect();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let latency_us: Vec<f64> = open
        .iter()
        .filter_map(|r| r.reply.map(|p| us(p.at - r.due)))
        .collect();
    rep.metric("serve_p50_ms", percentile(&latency_us, 50.0) / 1e3);
    rep.metric("serve_p99_ms", percentile(&latency_us, 99.0) / 1e3);
    let closed_ok = client
        .recs
        .iter()
        .filter(|r| !r.open && r.reply.is_some())
        .count();
    rep.metric("serve_peak_rps", closed_ok as f64 / closed_s.max(1e-9));

    if !trace {
        return Ok(());
    }
    let server_us: Vec<f64> = open
        .iter()
        .filter_map(|r| r.reply.map(|p| f64::from(p.server_us)))
        .collect();
    let net_us: Vec<f64> = open
        .iter()
        .filter_map(|r| Some(us(r.reply?.at - r.sent?) - f64::from(r.reply?.server_us)))
        .collect();
    let rtt_us: Vec<f64> = open
        .iter()
        .filter_map(|r| Some(us(r.reply?.at - r.sent?)))
        .collect();
    let lag_us: Vec<f64> = open
        .iter()
        .filter_map(|r| Some(us(r.sent? - r.due)))
        .collect();
    rep.metric("server.p50_us", percentile(&server_us, 50.0));
    rep.metric("server.p99_us", percentile(&server_us, 99.0));
    rep.metric("net.p50_us", percentile(&net_us, 50.0));
    rep.metric("net.p99_us", percentile(&net_us, 99.0));
    rep.metric("gen.lag_p99_us", percentile(&lag_us, 99.0));
    for tier in SloTier::ALL {
        let lat: Vec<f64> = open
            .iter()
            .filter(|r| r.tier == tier)
            .filter_map(|r| r.reply.map(|p| us(p.at - r.due)))
            .collect();
        rep.metric(
            &format!("tier.{}.p50_us", tier.name()),
            percentile(&lat, 50.0),
        );
    }
    let open_s = (open_end - phase_start).as_secs_f64();
    for (phase, a, b, secs) in [("open", r0, r1, open_s), ("closed", r1, r2, closed_s)] {
        let batches = b.batches.saturating_sub(a.batches).max(1) as f64;
        let busy = (b.busy_us - a.busy_us).max(0.0);
        let served = b.served.saturating_sub(a.served) as f64;
        rep.metric(&format!("batcher.mean_batch.{phase}"), served / batches);
        rep.metric(
            &format!("replica.busy_frac.{phase}"),
            busy / (secs.max(1e-9) * 1e6 * n_replicas as f64),
        );
        rep.metric(
            &format!("replica.busy_us_per_batch.{phase}"),
            busy / batches,
        );
    }
    // Closure of the open phase: a request's blocking path is transport
    // (client, loopback, reactor) plus its batch's forward pass; what is
    // left is admission, window wait and batch formation.
    let open_batches = r1.batches.saturating_sub(r0.batches).max(1) as f64;
    let infer_us = (r1.busy_us - r0.busy_us).max(0.0) / open_batches;
    let explained = mean(&net_us) + infer_us;
    let rtt = mean(&rtt_us);
    rep.metric("closure.serve_explained_frac", explained / rtt.max(1e-9));
    rep.metric("closure.serve_unexplained_us", rtt - explained);
    for (i, n) in rejected.iter().enumerate() {
        rep.metric(&format!("rejected.{}", reject_name(i)), *n as f64);
    }
    for (i, n) in exit_hist.iter().enumerate() {
        rep.metric(&format!("exit_hist.{i}"), *n as f64);
    }
    rep.metric("serve.conf_bits_mismatch", conf_mismatch as f64);
    rep.metric("proc.serve.user_s", usage.user.as_secs_f64());
    rep.metric("proc.serve.sys_s", usage.sys.as_secs_f64());
    rep.metric("proc.serve.ctxsw_vol", usage.ctxsw_vol as f64);
    rep.metric("proc.serve.ctxsw_invol", usage.ctxsw_invol as f64);
    rep.metric("engine.warmup_s", warmup.as_secs_f64());

    // Replays outside the measured phases.
    let max_batch = policy.max_batch;
    let (mut b1, mut bmax) = (Vec::new(), Vec::new());
    for tier in SloTier::ALL {
        for (batch, out) in [(1, &mut b1), (max_batch, &mut bmax)] {
            let reqs: Vec<ServeRequest> = (0..batch)
                .map(|i| request(i as u64, tier, pixels(i % n_test)))
                .collect();
            let mut times = Vec::with_capacity(ENGINE_REPS);
            for _ in 0..ENGINE_REPS {
                let t = Instant::now();
                std::hint::black_box(
                    primary
                        .infer_batch(std::hint::black_box(&reqs))
                        .map_err(|e| e.to_string())?,
                );
                times.push(us(t.elapsed()));
            }
            out.push(median(&times).unwrap_or(0.0));
        }
    }
    rep.metric("engine.infer_us.b1", mean(&b1));
    rep.metric("engine.infer_us.bmax", mean(&bmax));
    let (encode_ns, decode_ns) = replay_proto(&client.recs, &pixels);
    rep.metric("proto.encode_ns", encode_ns);
    rep.metric("proto.decode_ns", decode_ns);
    Ok(())
}

/// Name of the rejection counted in slot `i` (wire code `i + 1`).
fn reject_name(i: usize) -> &'static str {
    RejectReason::from_code(i as u8 + 1).map_or("unknown", RejectReason::name)
}

fn request(id: u64, tier: SloTier, pixels: &[f32]) -> ServeRequest {
    ServeRequest {
        id,
        tier,
        pixels: pixels.to_vec(),
        arrival_us: 0,
        deadline_us: u64::MAX,
    }
}

/// Encodes and decodes the workload's own request and reply frames
/// through the public codec; returns ns per request-reply pair for each
/// direction.
fn replay_proto<'d>(recs: &[Rec], pixels: &dyn Fn(usize) -> &'d [f32]) -> (f64, f64) {
    let pairs: Vec<(Request, Response)> = recs
        .iter()
        .enumerate()
        .filter_map(|(id, r)| {
            let p = r.reply?;
            let req = Request::Infer {
                id: id as u64,
                tier: r.tier,
                pixels: pixels(r.sample).to_vec(),
            };
            let resp = Response::Infer {
                id: id as u64,
                class: p.class,
                exit: p.exit,
                confidence: p.confidence,
                server_us: p.server_us,
            };
            Some((req, resp))
        })
        .take(PROTO_REPLAY)
        .collect();
    let n = pairs.len().max(1) as f64;
    let t = Instant::now();
    let wire: Vec<(Vec<u8>, Vec<u8>)> = pairs
        .iter()
        .map(|(q, s)| (proto::encode_request(q), proto::encode_response(s)))
        .collect();
    let encode = t.elapsed().as_secs_f64() * 1e9 / n;
    let t = Instant::now();
    for (q, s) in &wire {
        std::hint::black_box(proto::decode_request(std::hint::black_box(q)).ok());
        std::hint::black_box(proto::decode_response(std::hint::black_box(s)).ok());
    }
    let decode = t.elapsed().as_secs_f64() * 1e9 / n;
    (encode, decode)
}
