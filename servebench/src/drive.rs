//! Loopback load drivers: the open loop, the pipelined batch loop and the
//! one-request-at-a-time loop, all over raw wire frames.
//!
//! The open loop uses exactly two generator threads for its two
//! connections: a sender that sleeps until each request is due and
//! writes it, and a receiver that polls both sockets, decodes responses
//! and — for buys — sends the COMMIT as soon as its QUOTE answers.
//! Every request is timed from its due time. A `BUSY` answer is not a
//! failure there: the receiver sends the same request again once the
//! server's `retry_after_ms` hint has passed, as a client would, so a
//! shed shows as latency and in the retry count, and only a request
//! still unanswered at the drain deadline fails.

use crate::affinity;
use crate::stats::{Outcomes, Timeline};
use crate::trace::{Tracer, ROOT};
use crate::workload::{slice_of, Op, CONNECTIONS};
use nimbus_server::sys::{PollEvent, Poller};
use nimbus_server::wire::{
    self, BatchItemMsg, BatchOutcomeMsg, ErrorCode, QuoteMsg, Request, Response, SaleMsg,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How long the receiver waits for stragglers after the last send.
const DRAIN: Duration = Duration::from_secs(3);

/// How one attempted unit ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fail {
    Error,
    Busy,
    Timeout,
    Budget,
}

fn classify(response: &Response) -> Option<Fail> {
    match response {
        Response::Busy { .. } => Some(Fail::Busy),
        Response::Error { code, .. } if *code == ErrorCode::BudgetExhausted => Some(Fail::Budget),
        Response::Error { .. } => Some(Fail::Error),
        _ => None,
    }
}

/// One unit's result: its timeline, the quote and sale it got, or how it
/// failed.
#[derive(Debug, Clone, Default)]
pub struct UnitResult {
    pub timeline: Option<Timeline>,
    pub quote: Option<QuoteMsg>,
    /// The sale, its weight vector dropped once summarized in `model`.
    pub sale: Option<SaleMsg>,
    pub model: ModelSummary,
    pub fail: Option<Fail>,
}

/// What the checks need of a sold model: its dimension and whether
/// every coordinate is finite.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelSummary {
    pub dim: usize,
    pub finite: bool,
}

impl UnitResult {
    /// Keeps a sale, summarizing and dropping its weights so a long run
    /// does not hold every model it bought.
    fn set_sale(&mut self, mut sale: SaleMsg) {
        self.model = ModelSummary {
            dim: sale.weights.len(),
            finite: sale.weights.iter().all(|w| w.is_finite()),
        };
        sale.weights = Vec::new();
        self.sale = Some(sale);
    }
}

pub fn outcomes(units: &[UnitResult]) -> Outcomes {
    let mut o = Outcomes {
        attempted: units.len() as u64,
        ..Outcomes::default()
    };
    for u in units {
        match u.fail {
            None => o.ok += 1,
            Some(Fail::Error) => o.errors += 1,
            Some(Fail::Busy) => o.busy += 1,
            Some(Fail::Timeout) => o.timeouts += 1,
            Some(Fail::Budget) => o.budget_rejects += 1,
        }
    }
    o
}

/// Length-prefixes a payload into one buffer, so a frame leaves in one
/// `write` even when two threads share the socket.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 4);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

fn connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    Ok(stream)
}

pub fn quote_request(op: &Op, names: &[&str]) -> Request {
    Request::Quote {
        listing: Some(names[op.listing].to_string()),
        request: op.request,
    }
}

pub fn commit_request(op: &Op, quote: &QuoteMsg) -> Request {
    Request::Commit {
        listing: Some(quote.listing.clone()),
        x: quote.x,
        snapshot_epoch: quote.snapshot_epoch,
        payment: quote.price,
        nonce: Some(op.nonce),
        buyer: Some(op.buyer),
    }
}

/// Asks the kernel for tight sleeps on this thread: the default 50 µs
/// timer slack would show up as generator lag.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes its value in arg2 and reads no
    // pointers; failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
    }
}

/// Splits a buffer's complete frames off its front.
fn take_frames(buf: &mut Vec<u8>) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while buf.len() - pos >= 4 {
        let len = u32::from_be_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
        if buf.len() - pos - 4 < len {
            break;
        }
        out.push(buf[pos + 4..pos + 4 + len].to_vec());
        pos += 4 + len;
    }
    buf.drain(..pos);
    out
}

/// The open loop's input: a schedule of due times over generated units.
pub struct OpenLoop<'a> {
    pub addr: SocketAddr,
    pub names: &'a [&'a str],
    pub ops: &'a [Op],
    /// Due time of each op, ns after the run's epoch.
    pub due: &'a [u64],
    /// Quote then commit (a buy) instead of a lone quote.
    pub buy: bool,
    pub trace: bool,
}

pub struct OpenLoopRun {
    pub units: Vec<UnitResult>,
    /// Spans (traced runs only): op `i`'s root span has index `i`.
    pub tracer: Tracer,
    /// Requests sent again after a `BUSY` answer.
    pub busy_retries: u64,
}

impl OpenLoop<'_> {
    pub fn run(&self) -> Result<OpenLoopRun, String> {
        let n = self.ops.len();
        let streams: Vec<TcpStream> = (0..CONNECTIONS)
            .map(|_| connect(self.addr))
            .collect::<Result<_, _>>()?;
        let readers: Vec<TcpStream> = streams
            .iter()
            .map(|s| s.try_clone().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let writers: Vec<Mutex<TcpStream>> = streams.into_iter().map(Mutex::new).collect();
        let sender_done = AtomicBool::new(false);
        let epoch = Instant::now();
        let last_due = self.due.last().copied().unwrap_or(0);

        let (sender, receiver) = std::thread::scope(|scope| {
            let sender = scope.spawn(|| self.send_all(epoch, &writers, &sender_done));
            let receiver =
                scope.spawn(|| self.receive_all(epoch, readers, &writers, &sender_done, last_due));
            (sender.join(), receiver.join())
        });
        let (sent, written, send_spans) = sender.map_err(|_| "sender thread panicked")??;
        let (mut units, quote_recv, recv_spans, busy_retries) =
            receiver.map_err(|_| "receiver thread panicked")??;

        let mut tracer = Tracer::new(epoch);
        for (i, unit) in units.iter_mut().enumerate() {
            let due = self.due[i];
            let done = match unit.timeline {
                Some(t) => t.done,
                None => {
                    if unit.fail.is_none() {
                        unit.fail = Some(Fail::Timeout);
                    }
                    due
                }
            };
            unit.timeline = Some(Timeline {
                due,
                sent: sent[i],
                done,
            });
            if self.trace {
                tracer.record(i as u64, ROOT, "loadgen.op", due, done);
            }
        }
        if self.trace {
            for (i, (&w, &r)) in written.iter().zip(&quote_recv).enumerate() {
                if r > 0 {
                    tracer.record(i as u64, i as u32, "client.roundtrip.quote", w, r);
                }
            }
            for t in [send_spans, recv_spans] {
                for s in t {
                    tracer.record(s.0, s.0 as u32, s.1, s.2, s.3);
                }
            }
        }
        debug_assert_eq!(units.len(), n);
        Ok(OpenLoopRun {
            units,
            tracer,
            busy_retries,
        })
    }

    #[allow(clippy::type_complexity)]
    fn send_all(
        &self,
        epoch: Instant,
        writers: &[Mutex<TcpStream>],
        done: &AtomicBool,
    ) -> Result<(Vec<u64>, Vec<u64>, Vec<(u64, &'static str, u64, u64)>), String> {
        affinity::pin_client();
        tighten_timer_slack();
        let mut sent = vec![0u64; self.ops.len()];
        let mut written = vec![0u64; self.ops.len()];
        let mut spans = Vec::new();
        let result = (|| {
            for (i, op) in self.ops.iter().enumerate() {
                let due = self.due[i];
                let now = epoch.elapsed().as_nanos() as u64;
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
                let start = epoch.elapsed().as_nanos() as u64;
                sent[i] = start;
                let bytes =
                    frame(&quote_request(op, self.names).encode_with_corr(2 * i as u64 + 1));
                if self.trace {
                    let encoded = epoch.elapsed().as_nanos() as u64;
                    spans.push((i as u64, "loadgen.lag", due, start));
                    spans.push((i as u64, "client.wire.quote_req.encode", start, encoded));
                }
                let mut w = writers[i % CONNECTIONS]
                    .lock()
                    .map_err(|_| "writer lock poisoned")?;
                w.write_all(&bytes).map_err(|e| e.to_string())?;
                written[i] = epoch.elapsed().as_nanos() as u64;
            }
            Ok::<(), String>(())
        })();
        done.store(true, Ordering::SeqCst);
        result.map(|()| (sent, written, spans))
    }

    #[allow(clippy::type_complexity)]
    fn receive_all(
        &self,
        epoch: Instant,
        mut readers: Vec<TcpStream>,
        writers: &[Mutex<TcpStream>],
        sender_done: &AtomicBool,
        last_due: u64,
    ) -> Result<
        (
            Vec<UnitResult>,
            Vec<u64>,
            Vec<(u64, &'static str, u64, u64)>,
            u64,
        ),
        String,
    > {
        affinity::pin_client();
        let now = || epoch.elapsed().as_nanos() as u64;
        let mut units = vec![UnitResult::default(); self.ops.len()];
        let mut quote_recv = vec![0u64; self.ops.len()];
        let mut commit_sent = vec![0u64; if self.buy { self.ops.len() } else { 0 }];
        let mut spans = Vec::new();
        // Shed requests waiting out the server's hint: (when, op, commit).
        let mut retries: BinaryHeap<Reverse<(u64, usize, bool)>> = BinaryHeap::new();
        let mut busy_retries = 0u64;
        let tick = Duration::from_millis(10);
        let mut poller = Poller::new().map_err(|e| e.to_string())?;
        for (k, r) in readers.iter().enumerate() {
            poller
                .register(r.as_raw_fd(), k as u64, true, false)
                .map_err(|e| e.to_string())?;
        }
        let mut bufs = vec![Vec::<u8>::with_capacity(1 << 16); readers.len()];
        let mut chunk = vec![0u8; 1 << 16];
        let mut events: Vec<PollEvent> = Vec::new();
        let mut finished = 0usize;
        let drain_deadline = last_due + DRAIN.as_nanos() as u64;
        while finished < self.ops.len() {
            if sender_done.load(Ordering::SeqCst) && now() > drain_deadline {
                break;
            }
            while let Some(&Reverse((at, i, commit_phase))) = retries.peek() {
                if at > now() {
                    break;
                }
                retries.pop();
                let op = &self.ops[i];
                let request = if commit_phase {
                    let q = units[i]
                        .quote
                        .as_ref()
                        .ok_or("a shed COMMIT has no quote")?;
                    commit_request(op, q)
                } else {
                    quote_request(op, self.names)
                };
                // The same correlation id: the shed frame was never run.
                let corr = 2 * i as u64 + 1 + u64::from(commit_phase);
                let bytes = frame(&request.encode_with_corr(corr));
                let mut w = writers[i % CONNECTIONS]
                    .lock()
                    .map_err(|_| "writer lock poisoned")?;
                w.write_all(&bytes).map_err(|e| e.to_string())?;
                busy_retries += 1;
            }
            let wait = retries.peek().map_or(tick, |Reverse((at, _, _))| {
                Duration::from_nanos(at.saturating_sub(now())).min(tick)
            });
            poller
                .wait(Some(wait), &mut events)
                .map_err(|e| e.to_string())?;
            for ev in &events {
                let k = ev.token as usize;
                let got = readers[k].read(&mut chunk).map_err(|e| e.to_string())?;
                if got == 0 {
                    return Err("server closed a connection".into());
                }
                let received = now();
                bufs[k].extend_from_slice(&chunk[..got]);
                for payload in take_frames(&mut bufs[k]) {
                    let (corr, response) =
                        Response::decode_framed(&payload).map_err(|e| e.to_string())?;
                    let decoded = now();
                    let i = ((corr - 1) / 2) as usize;
                    let commit_phase = (corr - 1) % 2 == 1;
                    let Some(unit) = units.get_mut(i) else {
                        return Err(format!("response for unknown correlation id {corr}"));
                    };
                    if let Response::Busy { retry_after_ms } = &response {
                        let wait = Duration::from_millis(u64::from(*retry_after_ms).max(1));
                        retries.push(Reverse((
                            received + wait.as_nanos() as u64,
                            i,
                            commit_phase,
                        )));
                        continue;
                    }
                    let layer = if commit_phase {
                        "client.wire.sale_resp.decode"
                    } else {
                        "client.wire.quote_resp.decode"
                    };
                    if self.trace {
                        if commit_phase {
                            let sent = commit_sent[i];
                            spans.push((i as u64, "client.roundtrip.commit", sent, received));
                        } else {
                            quote_recv[i] = received;
                        }
                        spans.push((i as u64, layer, received, decoded));
                    }
                    if let Some(fail) = classify(&response) {
                        unit.fail = Some(fail);
                        unit.timeline = Some(Timeline {
                            due: 0,
                            sent: 0,
                            done: decoded,
                        });
                        finished += 1;
                        continue;
                    }
                    match (commit_phase, response) {
                        (false, Response::Quote(q)) if self.buy => {
                            let start = now();
                            let bytes =
                                frame(&commit_request(&self.ops[i], &q).encode_with_corr(corr + 1));
                            let encoded = now();
                            commit_sent[i] = encoded;
                            if self.trace {
                                spans.push((
                                    i as u64,
                                    "client.wire.commit_req.encode",
                                    start,
                                    encoded,
                                ));
                            }
                            unit.quote = Some(q);
                            let mut w = writers[k].lock().map_err(|_| "writer lock poisoned")?;
                            w.write_all(&bytes).map_err(|e| e.to_string())?;
                        }
                        (false, Response::Quote(q)) => {
                            unit.quote = Some(q);
                            unit.timeline = Some(Timeline {
                                due: 0,
                                sent: 0,
                                done: decoded,
                            });
                            finished += 1;
                        }
                        (true, Response::Commit(s)) => {
                            unit.set_sale(s);
                            unit.timeline = Some(Timeline {
                                due: 0,
                                sent: 0,
                                done: decoded,
                            });
                            finished += 1;
                        }
                        (_, other) => {
                            return Err(format!("unexpected response {}", short(&other)));
                        }
                    }
                }
            }
        }
        Ok((units, quote_recv, spans, busy_retries))
    }
}

fn short(response: &Response) -> String {
    let text = format!("{response:?}");
    text.chars().take(120).collect()
}

/// Reads one frame and decodes it.
fn recv(reader: &mut BufReader<TcpStream>) -> Result<(u64, Response), String> {
    let payload = wire::read_frame(reader).map_err(|e| e.to_string())?;
    Response::decode_framed(&payload).map_err(|e| e.to_string())
}

/// Result of a closed loop: units, batch round trips and completion
/// times (ns from the loop's epoch).
pub struct ClosedRun {
    /// The units driven, index-aligned with `units`.
    pub ops: Vec<Op>,
    pub units: Vec<UnitResult>,
    /// Per unit of latency: one BATCH_COMMIT round trip (pipelined loop)
    /// or one whole unit (single-request loop), with its start time.
    pub latencies: Vec<(u64, u64)>,
    /// Completion time of every acknowledged sale.
    pub completions: Vec<u64>,
    pub tracer: Tracer,
    /// Client turnaround: from one unit's completion to the next unit's
    /// first send on the same connection — the closed loop's own lag.
    pub turnaround: Vec<u64>,
    /// Whether a connection ran out of generated units before the end.
    pub exhausted: bool,
}

/// The `batch_buy` loop: each of two connections pipelines `batch`
/// quotes, then redeems them with one nonce'd, buyer-attributed
/// `BATCH_COMMIT`, until `until` after the epoch. The run is cut into as
/// many time slices as there are `names`; every batch sells on the
/// listing of its slice, whatever listing its ops were generated for.
pub fn batch_loop(
    addr: SocketAddr,
    names: &[&str],
    ops: &[Op],
    batch: usize,
    until: Duration,
    trace: bool,
) -> Result<ClosedRun, String> {
    let epoch = Instant::now();
    let half = ops.len() / CONNECTIONS;
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                let slice = &ops[k * half..(k + 1) * half];
                scope.spawn(move || {
                    batch_conn(addr, names, slice, k * half, batch, epoch, until, trace)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "batch thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut run = ClosedRun {
        ops: Vec::new(),
        units: Vec::new(),
        latencies: Vec::new(),
        completions: Vec::new(),
        tracer: Tracer::new(epoch),
        turnaround: Vec::new(),
        exhausted: false,
    };
    for r in results {
        run.ops.extend(r.ops);
        run.units.extend(r.units);
        run.latencies.extend(r.latencies);
        run.completions.extend(r.completions);
        run.turnaround.extend(r.turnaround);
        run.tracer.absorb(r.tracer);
        run.exhausted |= r.exhausted;
    }
    Ok(run)
}

#[allow(clippy::too_many_arguments)]
fn batch_conn(
    addr: SocketAddr,
    names: &[&str],
    ops: &[Op],
    base: usize,
    batch: usize,
    epoch: Instant,
    until: Duration,
    trace: bool,
) -> Result<ClosedRun, String> {
    affinity::pin_client();
    let now = || epoch.elapsed().as_nanos() as u64;
    let end = until.as_nanos() as u64;
    let mut stream = connect(addr)?;
    let mut reader =
        BufReader::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
    let mut run = ClosedRun {
        ops: Vec::new(),
        units: Vec::new(),
        latencies: Vec::new(),
        completions: Vec::new(),
        tracer: Tracer::new(epoch),
        turnaround: Vec::new(),
        exhausted: false,
    };
    let mut corr = 1u64;
    let mut last_done = None;
    for (b, chunk) in ops.chunks_exact(batch).enumerate() {
        let start = now();
        if start >= end {
            break;
        }
        if let Some(prev) = last_done {
            run.turnaround.push(start - prev);
        }
        // Both connections sell on the same copy of the listing at any
        // moment, moving to the next copy as the run's time slices pass.
        let listing = slice_of(start, end, names.len());
        let chunk: Vec<Op> = chunk.iter().map(|op| Op { listing, ..*op }).collect();
        let op_id = (base / batch + b) as u64;
        let root = if trace {
            run.tracer
                .record(op_id, ROOT, "loadgen.batch", start, start)
        } else {
            ROOT
        };
        let mut bytes = Vec::new();
        for op in &chunk {
            bytes.extend(frame(&quote_request(op, names).encode_with_corr(corr)));
            corr += 1;
        }
        let encoded = now();
        stream.write_all(&bytes).map_err(|e| e.to_string())?;
        let first = corr - chunk.len() as u64;
        let mut units = vec![UnitResult::default(); chunk.len()];
        for _ in 0..chunk.len() {
            let (c, response) = recv(&mut reader)?;
            let slot = c
                .checked_sub(first)
                .map(|s| s as usize)
                .filter(|&s| s < chunk.len());
            let Some(slot) = slot else {
                return Err(format!("response for unknown correlation id {c}"));
            };
            match response {
                Response::Quote(q) => units[slot].quote = Some(q),
                other => units[slot].fail = Some(classify(&other).unwrap_or(Fail::Error)),
            }
        }
        let quoted = now();
        let items: Vec<(usize, BatchItemMsg)> = units
            .iter()
            .enumerate()
            .filter_map(|(s, u)| {
                u.quote.as_ref().map(|q| {
                    (
                        s,
                        BatchItemMsg {
                            x: q.x,
                            snapshot_epoch: q.snapshot_epoch,
                            payment: q.price,
                            nonce: Some(chunk[s].nonce),
                            buyer: Some(chunk[s].buyer),
                        },
                    )
                })
            })
            .collect();
        let listing = units
            .iter()
            .find_map(|u| u.quote.as_ref().map(|q| q.listing.clone()));
        let request = Request::BatchCommit {
            listing,
            items: items.iter().map(|(_, i)| i.clone()).collect(),
        };
        let batch_start = now();
        let bytes = frame(&request.encode_with_corr(corr));
        corr += 1;
        let batch_encoded = now();
        stream.write_all(&bytes).map_err(|e| e.to_string())?;
        let payload = wire::read_frame(&mut reader).map_err(|e| e.to_string())?;
        let received = now();
        let (_, response) = Response::decode_framed(&payload).map_err(|e| e.to_string())?;
        let done = now();
        match response {
            Response::BatchCommit(msg) if msg.items.len() == items.len() => {
                for ((slot, _), outcome) in items.iter().zip(msg.items) {
                    match outcome {
                        BatchOutcomeMsg::Sale(s) => {
                            units[*slot].set_sale(s);
                            run.completions.push(done);
                        }
                        BatchOutcomeMsg::Error { code, .. } => {
                            units[*slot].fail = Some(if code == ErrorCode::BudgetExhausted {
                                Fail::Budget
                            } else {
                                Fail::Error
                            });
                        }
                    }
                }
            }
            other => {
                let fail = classify(&other).unwrap_or(Fail::Error);
                for (slot, _) in &items {
                    units[*slot].fail = Some(fail);
                }
            }
        }
        for u in &mut units {
            u.timeline = Some(Timeline {
                due: batch_start,
                sent: batch_start,
                done,
            });
        }
        run.latencies.push((batch_start, done - batch_start));
        last_done = Some(done);
        if trace {
            let t = &mut run.tracer;
            t.record(op_id, root, "client.wire.quote_req.encode", start, encoded);
            t.record(op_id, root, "client.roundtrip.quotes", encoded, quoted);
            t.record(
                op_id,
                root,
                "client.wire.batch_req.encode",
                batch_start,
                batch_encoded,
            );
            t.record(
                op_id,
                root,
                "client.roundtrip.batch",
                batch_encoded,
                received,
            );
            t.record(op_id, root, "client.wire.batch_resp.decode", received, done);
            t.set_end(root, done);
        }
        run.ops.extend_from_slice(&chunk);
        run.units.extend(units);
    }
    run.exhausted = now() < end;
    Ok(run)
}

/// One request in flight at a time on one connection (ladder rung 4):
/// a quote, a quote then a commit, or `batch` quotes then a
/// `BATCH_COMMIT`, per unit, until `until` or the units run out. Returns
/// each unit's latency and the results of the ops it ran (a prefix of
/// `ops`).
pub fn single_loop(
    addr: SocketAddr,
    names: &[&str],
    ops: &[Op],
    mode: Mode,
    until: Duration,
) -> Result<(Vec<u64>, Vec<UnitResult>), String> {
    let epoch = Instant::now();
    let mut stream = connect(addr)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut corr = 1u64;
    let mut call = |request: &Request| -> Result<Response, String> {
        stream
            .write_all(&frame(&request.encode_with_corr(corr)))
            .map_err(|e| e.to_string())?;
        corr += 1;
        let (_, response) = recv(&mut reader)?;
        match classify(&response) {
            Some(f) => Err(format!("single-request rung failed: {f:?}")),
            None => Ok(response),
        }
    };
    let mut latencies = Vec::new();
    let mut units = Vec::new();
    let unit = match mode {
        Mode::Batch(b) => b,
        _ => 1,
    };
    for chunk in ops.chunks_exact(unit) {
        if epoch.elapsed() >= until {
            break;
        }
        let start = Instant::now();
        let first = units.len();
        let mut items = Vec::with_capacity(chunk.len());
        let mut listing = None;
        for op in chunk {
            let Response::Quote(q) = call(&quote_request(op, names))? else {
                return Err("expected a quote".into());
            };
            let mut result = UnitResult::default();
            match mode {
                Mode::Quote => {}
                Mode::Buy => {
                    let Response::Commit(s) = call(&commit_request(op, &q))? else {
                        return Err("expected a sale".into());
                    };
                    result.set_sale(s);
                }
                Mode::Batch(_) => {
                    items.push(BatchItemMsg {
                        x: q.x,
                        snapshot_epoch: q.snapshot_epoch,
                        payment: q.price,
                        nonce: Some(op.nonce),
                        buyer: Some(op.buyer),
                    });
                    listing = Some(q.listing.clone());
                }
            }
            result.quote = Some(q);
            units.push(result);
        }
        if !items.is_empty() {
            let Response::BatchCommit(msg) = call(&Request::BatchCommit { listing, items })? else {
                return Err("expected a batch outcome".into());
            };
            for (slot, outcome) in msg.items.into_iter().enumerate() {
                match outcome {
                    BatchOutcomeMsg::Sale(s) => units[first + slot].set_sale(s),
                    BatchOutcomeMsg::Error { .. } => units[first + slot].fail = Some(Fail::Error),
                }
            }
        }
        latencies.push(start.elapsed().as_nanos() as u64);
    }
    Ok((latencies, units))
}

/// What a unit of the single-request loop does.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    Quote,
    Buy,
    Batch(usize),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_split_across_reads() {
        let a = frame(b"hello");
        let b = frame(b"wire");
        let mut buf = Vec::new();
        buf.extend_from_slice(&a);
        buf.extend_from_slice(&b[..3]);
        let got = take_frames(&mut buf);
        assert_eq!(got, vec![b"hello".to_vec()]);
        assert_eq!(buf, b[..3].to_vec());
        buf.extend_from_slice(&b[3..]);
        assert_eq!(take_frames(&mut buf), vec![b"wire".to_vec()]);
        assert!(buf.is_empty());
    }

    #[test]
    fn outcomes_count_each_unit_once() {
        let units = vec![
            UnitResult::default(),
            UnitResult {
                fail: Some(Fail::Busy),
                ..UnitResult::default()
            },
            UnitResult {
                fail: Some(Fail::Timeout),
                ..UnitResult::default()
            },
            UnitResult {
                fail: Some(Fail::Budget),
                ..UnitResult::default()
            },
        ];
        let o = outcomes(&units);
        assert_eq!(
            (o.attempted, o.ok, o.busy, o.timeouts, o.budget_rejects),
            (4, 1, 1, 1, 1)
        );
        assert_eq!(o.fail_ratio(), 0.75);
    }
}
