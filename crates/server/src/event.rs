//! Readiness event loop: one thread, tens of thousands of connections.
//!
//! The loop thread owns every socket. It multiplexes the listener, a
//! wake-up pipe and all client connections over one [`crate::sys::Poller`]
//! (`epoll` on Linux, `poll(2)` elsewhere) in level-triggered mode, and
//! never blocks on any single peer:
//!
//! ```text
//!             ┌────────────────────────── event loop thread ───┐
//!  accept ───▶│ slab of per-connection state machines          │
//!  readable ─▶│   read → frame-parse → dispatch ─┬─ MENU/QUOTE:│
//!             │                                  │  execute here│
//!             │                                  └─ other ops ─┼─▶ shard queue
//!  writable ─▶│   flush ← write buffer ← completions ← wake ◀──┼── workers (CPU)
//!             └────────────────────────────────────────────────┘
//! ```
//!
//! * **Per-connection state machine.** Each connection is a slab slot
//!   holding a read buffer, a queue of parsed-but-undispatched frames, a
//!   write buffer and a handful of counters. An idle connection costs one
//!   fd and one slab slot — no thread, no stack.
//! * **Snapshot reads inline.** A current-version `MENU` or `QUOTE` reads
//!   the published snapshot, taking only leaf locks held to clone an
//!   `Arc`, so the loop executes it itself and appends the response to
//!   the write buffer, skipping the queue → worker → completion →
//!   wake-pipe hop. Every other frame, and any frame at another version
//!   or too short to carry an opcode, goes to a worker. Inline reads pause while the connection has more than
//!   [`WRITE_BACKPRESSURE`] response bytes pending, which bounds loop
//!   hold time and memory.
//! * **Pipelining.** Every frame carries a correlation id and may be
//!   dispatched while earlier frames from the same connection are still
//!   executing; responses are matched by id, not order.
//! * **Shedding, not stalling.** Dispatch pushes worker ops onto bounded
//!   shard queues; a full queue answers the *frame* with a typed `BUSY`
//!   instead of queueing unboundedly. The connection stays open across
//!   such a shed (the id tells the client which request was hit).
//!   Snapshot reads take no queue slot and are never shed.
//! * **Slow-loris defense.** A binary heap of timers with lazy
//!   invalidation enforces three deadlines per connection: a
//!   header-read deadline from the first byte of an incomplete frame, an
//!   idle deadline between requests, and a write-stall deadline while a
//!   response is buffered. A connection pushes a heap entry only when its
//!   deadline moves *earlier* than the entry it already has; a later
//!   deadline (every request pushes the idle deadline back) is re-armed
//!   when that entry pops, so the heap holds about one entry per
//!   connection rather than one per request. Header/idle expiry sheds the
//!   connection with a courtesy `BUSY` frame and counts in
//!   [`crate::stats::StatsRegistry::timeout_sheds`]; a stalled writer is
//!   closed outright (the peer is not reading).
//! * **Backpressure.** Read interest is dropped while a connection has
//!   more than [`WRITE_BACKPRESSURE`] buffered response bytes or
//!   [`MAX_PARSED`] undispatched frames, so a fast writer cannot balloon
//!   server memory. A drained read or write buffer gives back capacity
//!   above [`BUF_RETAIN`], so one large frame or reply does not stay
//!   allocated for the connection's lifetime.
//! * **Determinism.** The loop never reads the ambient clock; the server
//!   injects a monotonic `Fn() -> Duration` at start, so every deadline
//!   decision is a pure function of injected time.
//!
//! Completions flow back from the workers through
//! [`crate::server::Inner::completions`] plus one byte on the wake pipe;
//! the loop appends each encoded frame to the connection's write buffer
//! and flushes as the socket drains.

use crate::server::{execute_job, Inner, Job};
use crate::sys::{PollEvent, Poller};
use crate::wire::{self, ErrorCode, Response};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Bytes read per `read(2)` pass.
const READ_CHUNK: usize = 16 * 1024;
/// Buffered response bytes beyond which a connection stops being read.
pub const WRITE_BACKPRESSURE: usize = 256 * 1024;
/// Parsed-but-undispatched frames beyond which a connection stops being
/// read — the per-connection pipeline depth bound.
pub const MAX_PARSED: usize = 128;
/// Capacity a drained connection buffer keeps for reuse; the rest goes
/// back to the allocator.
const BUF_RETAIN: usize = 64 * 1024;
/// Poll timeout ceiling so the stop flag is observed promptly even with
/// no timers armed.
const POLL_CAP: Duration = Duration::from_millis(500);
/// Poll timeout ceiling while draining for shutdown.
const POLL_CAP_STOPPING: Duration = Duration::from_millis(10);

/// Poller token of the TCP listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Poller token of the wake-pipe read end.
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Packs a slab slot and its generation into a poller token. The
/// generation guards against ABA: an event for a closed connection whose
/// slot was reused must not touch the new tenant.
fn token_for(slot: u32, gen: u32) -> u64 {
    (u64::from(gen) << 32) | u64::from(slot)
}

/// Splits a connection token back into `(slot, generation)`.
fn split_token(token: u64) -> (u32, u32) {
    (token as u32, (token >> 32) as u32)
}

/// Which deadline a timer entry represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadlineKind {
    /// A response is buffered and the socket has not drained in time:
    /// the peer stopped reading. Hard close.
    WriteStall,
    /// The first byte of a frame arrived but the frame never completed
    /// (slow-loris). Shed with `BUSY`, then close.
    Header,
    /// No request in flight, none parsed, nothing buffered, and the
    /// connection has been silent too long. Shed with `BUSY`, then close.
    Idle,
}

/// Timer entries `(due, slot, generation)`, earliest first.
type TimerHeap = BinaryHeap<Reverse<(Duration, u32, u32)>>;

/// A connection's deadline and the earliest timer entry armed for it.
///
/// Invariant: while `deadline` is `Some(d)`, `armed` is `Some(a)` with
/// `a <= d` and an entry for `a` is in the heap, so the deadline is never
/// missed; entries later than `armed` are superseded and skipped.
#[derive(Default)]
struct ConnTimer {
    deadline: Option<(Duration, DeadlineKind)>,
    armed: Option<Duration>,
}

impl ConnTimer {
    /// Makes `next` the connection's deadline. A heap entry is pushed only
    /// if `next` is earlier than the armed one; a later deadline waits for
    /// the armed entry to pop (see [`ConnTimer::pop`]).
    fn set(
        &mut self,
        next: Option<(Duration, DeadlineKind)>,
        heap: &mut TimerHeap,
        slot: u32,
        gen: u32,
    ) {
        self.deadline = next;
        if let Some((at, _)) = next {
            if !matches!(self.armed, Some(armed) if armed <= at) {
                heap.push(Reverse((at, slot, gen)));
                self.armed = Some(at);
            }
        }
    }

    /// Handles this connection's entry for `at` popping at `now`: returns
    /// the deadline to fire if it is due, and otherwise re-arms at the
    /// current deadline. A superseded entry changes nothing.
    fn pop(
        &mut self,
        at: Duration,
        now: Duration,
        heap: &mut TimerHeap,
        slot: u32,
        gen: u32,
    ) -> Option<DeadlineKind> {
        if self.armed != Some(at) {
            return None;
        }
        self.armed = None;
        match self.deadline {
            Some((due, kind)) if due <= now => {
                self.deadline = None;
                Some(kind)
            }
            next => {
                self.set(next, heap, slot, gen);
                None
            }
        }
    }
}

/// Gives a buffer's capacity above [`BUF_RETAIN`] back to the allocator,
/// unless its contents need more (a large frame still arriving).
fn release_spare(buf: &mut Vec<u8>) {
    if buf.len() <= BUF_RETAIN {
        buf.shrink_to(BUF_RETAIN);
    }
}

/// One frame sniffed off a connection, waiting for dispatch.
struct PendingFrame {
    corr: u64,
    /// A current-version `MENU` or `QUOTE`: answered on the loop thread.
    snapshot_read: bool,
    payload: Vec<u8>,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    fd: i32,
    gen: u32,
    /// Shard this connection's frames dispatch to (fixed at accept).
    shard: usize,
    read_buf: Vec<u8>,
    parsed: VecDeque<PendingFrame>,
    /// Dispatched jobs whose completions have not come back yet.
    in_flight: u32,
    write_buf: Vec<u8>,
    write_pos: usize,
    close_after_flush: bool,
    peer_eof: bool,
    io_dead: bool,
    last_activity: Duration,
    last_write_progress: Duration,
    /// When the currently incomplete frame's first byte arrived.
    partial_since: Option<Duration>,
    /// `(read, write)` interest currently registered with the poller.
    interest: (bool, bool),
    timer: ConnTimer,
}

impl Conn {
    fn pending_write(&self) -> usize {
        self.write_buf.len().saturating_sub(self.write_pos)
    }

    /// Appends one length-prefixed frame to the write buffer.
    fn queue_frame(&mut self, payload: &[u8]) {
        self.write_buf
            .extend_from_slice(&(payload.len() as u32).to_be_bytes());
        self.write_buf.extend_from_slice(payload);
    }

    /// The earliest applicable deadline under the current state.
    fn compute_deadline(
        &self,
        cfg: &crate::server::ServerConfig,
    ) -> Option<(Duration, DeadlineKind)> {
        let mut best: Option<(Duration, DeadlineKind)> = None;
        let mut consider = |at: Duration, kind: DeadlineKind| match best {
            Some((t, _)) if t <= at => {}
            _ => best = Some((at, kind)),
        };
        if self.pending_write() > 0 {
            consider(
                self.last_write_progress + cfg.write_timeout,
                DeadlineKind::WriteStall,
            );
        }
        if let Some(since) = self.partial_since {
            consider(since + cfg.header_read_timeout, DeadlineKind::Header);
        }
        if self.in_flight == 0
            && self.parsed.is_empty()
            && self.pending_write() == 0
            && self.partial_since.is_none()
            && !self.close_after_flush
        {
            consider(self.last_activity + cfg.idle_timeout, DeadlineKind::Idle);
        }
        best
    }
}

/// The event loop. Owns the listener, the wake pipe's read end and every
/// live connection; everything else reaches it through the shard queues
/// and the completion list.
pub(crate) struct EventLoop {
    inner: Arc<Inner>,
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    timers: TimerHeap,
    /// Jobs dispatched to workers whose completions have not been applied
    /// yet, across all connections (including already-closed ones).
    total_in_flight: u64,
    next_shard: usize,
    next_gen: u32,
    stopping: bool,
    clock: Box<dyn Fn() -> Duration + Send>,
}

impl EventLoop {
    pub(crate) fn new(
        inner: Arc<Inner>,
        listener: TcpListener,
        wake_rx: UnixStream,
        clock: Box<dyn Fn() -> Duration + Send>,
    ) -> std::io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
        poller.register(wake_rx.as_raw_fd(), TOKEN_WAKE, true, false)?;
        Ok(EventLoop {
            inner,
            poller,
            listener: Some(listener),
            wake_rx,
            conns: Vec::new(),
            free: Vec::new(),
            timers: BinaryHeap::new(),
            total_in_flight: 0,
            next_shard: 0,
            next_gen: 1,
            stopping: false,
            clock,
        })
    }

    pub(crate) fn run(&mut self) {
        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            if !self.stopping && self.inner.stop.load(Ordering::SeqCst) {
                self.begin_shutdown();
            }
            if self.stopping && self.drained() {
                break;
            }
            let timeout = self.poll_timeout();
            match self.poller.wait(Some(timeout), &mut events) {
                Ok(()) => {}
                Err(_) => {
                    // A failing poller is unrecoverable; drain what we
                    // can and exit rather than spin.
                    if self.stopping {
                        break;
                    }
                    self.begin_shutdown();
                    continue;
                }
            }
            // Drain the wake pipe *before* taking the completion list: a
            // worker pushes its completion and then writes its byte, so
            // every completion pushed after the take below has a byte
            // still unread, and the next poll wakes for it. Draining
            // after the take could swallow that byte and strand the
            // completion until some unrelated event or `POLL_CAP`.
            if events.iter().any(|ev| ev.token == TOKEN_WAKE) {
                self.drain_wake_pipe();
            }
            self.apply_completions();
            for i in 0..events.len() {
                let Some(ev) = events.get(i).copied() else {
                    break;
                };
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => {}
                    token => self.conn_ready(token, ev),
                }
            }
            self.fire_due_timers();
        }
        self.close_all();
    }

    /// Whether shutdown can complete: no job in flight anywhere and no
    /// response bytes still buffered on a live connection.
    fn drained(&self) -> bool {
        self.total_in_flight == 0 && self.conns.iter().flatten().all(|c| c.pending_write() == 0)
    }

    fn poll_timeout(&mut self) -> Duration {
        let cap = if self.stopping {
            POLL_CAP_STOPPING
        } else {
            POLL_CAP
        };
        let now = (self.clock)();
        match self.timers.peek() {
            Some(Reverse((at, _, _))) => at.saturating_sub(now).min(cap),
            None => cap,
        }
    }

    /// Stops accepting and reading; existing responses still flush.
    fn begin_shutdown(&mut self) {
        self.stopping = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
            // Dropping the listener closes the port: connects after
            // shutdown fail instead of queueing in the backlog.
        }
        for slot in 0..self.conns.len() as u32 {
            if let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) {
                // Parsed-but-undispatched frames are dropped: their
                // requests were never admitted, so no response is owed.
                conn.parsed.clear();
                conn.close_after_flush = true;
            }
            self.after_io(slot);
        }
    }

    // -- accept ------------------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let accepted = {
                let Some(listener) = self.listener.as_ref() else {
                    return;
                };
                listener.accept()
            };
            match accepted {
                Ok((stream, _peer)) => self.install(stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. EMFILE): leave the rest
                // of the backlog for the next readiness event.
                Err(_) => return,
            }
        }
    }

    fn install(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let fd = stream.as_raw_fd();
        let gen = self.next_gen;
        self.next_gen = self.next_gen.wrapping_add(1).max(1);
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.conns.push(None);
                (self.conns.len() - 1) as u32
            }
        };
        if self
            .poller
            .register(fd, token_for(slot, gen), true, false)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.inner.stats.connection_accepted();
        let shard = self.next_shard % self.inner.shards.len().max(1);
        self.next_shard = self.next_shard.wrapping_add(1);
        let now = (self.clock)();
        let conn = Conn {
            stream,
            fd,
            gen,
            shard,
            read_buf: Vec::new(),
            parsed: VecDeque::new(),
            in_flight: 0,
            write_buf: Vec::new(),
            write_pos: 0,
            close_after_flush: false,
            peer_eof: false,
            io_dead: false,
            last_activity: now,
            last_write_progress: now,
            partial_since: None,
            interest: (true, false),
            timer: ConnTimer::default(),
        };
        if let Some(cell) = self.conns.get_mut(slot as usize) {
            *cell = Some(conn);
        }
        self.rearm_deadline(slot);
    }

    // -- wake pipe / completions -------------------------------------------

    fn drain_wake_pipe(&mut self) {
        let mut sink = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut sink) {
                Ok(0) => return, // workers gone; completions still drain
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return, // WouldBlock: pipe drained
            }
        }
    }

    fn apply_completions(&mut self) {
        let completed = {
            let mut guard = match self.inner.completions.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *guard)
        };
        for completion in completed {
            // Every dispatched job produces exactly one completion, so
            // the global count decrements here even when the connection
            // is already gone (its response is simply dropped).
            self.total_in_flight = self.total_in_flight.saturating_sub(1);
            let slot = completion.slot;
            let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
                continue;
            };
            if conn.gen != completion.gen {
                continue;
            }
            conn.in_flight = conn.in_flight.saturating_sub(1);
            conn.queue_frame(&completion.frame);
            if completion.close {
                // Protocol violation: the framing is untrustworthy past
                // this frame. Answer, then hang up.
                conn.close_after_flush = true;
                conn.parsed.clear();
            }
            self.after_io(slot);
        }
    }

    // -- socket readiness --------------------------------------------------

    fn conn_ready(&mut self, token: u64, ev: PollEvent) {
        let (slot, gen) = split_token(token);
        {
            let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
                return;
            };
            if conn.gen != gen {
                return;
            }
        }
        if ev.readable {
            self.do_read(slot);
        }
        if ev.writable {
            self.do_write(slot);
        }
        if ev.hangup && !ev.readable {
            // Pure hangup with nothing left to read.
            if let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) {
                conn.peer_eof = true;
            }
        }
        self.after_io(slot);
    }

    /// Reads until `WouldBlock` (bounded per pass by backpressure caps).
    fn do_read(&mut self, slot: u32) {
        let now = (self.clock)();
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
            return;
        };
        if conn.close_after_flush || conn.peer_eof {
            return;
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.parsed.len() >= MAX_PARSED || conn.pending_write() > WRITE_BACKPRESSURE {
                break; // backpressure: interest drops in after_io
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    conn.peer_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf
                        .extend_from_slice(chunk.get(..n).unwrap_or(&[]));
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.io_dead = true;
                    break;
                }
            }
        }
    }

    /// Flushes the write buffer until done or `WouldBlock`.
    fn do_write(&mut self, slot: u32) {
        let now = (self.clock)();
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
            return;
        };
        while conn.pending_write() > 0 {
            let pending = conn.write_buf.get(conn.write_pos..).unwrap_or(&[]);
            match conn.stream.write(pending) {
                Ok(0) => {
                    conn.io_dead = true;
                    break;
                }
                Ok(n) => {
                    conn.write_pos += n;
                    conn.last_write_progress = now;
                    conn.last_activity = now;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    conn.io_dead = true;
                    break;
                }
            }
        }
        if conn.pending_write() == 0 {
            conn.write_buf.clear();
            release_spare(&mut conn.write_buf);
            conn.write_pos = 0;
        }
    }

    /// Parse → dispatch → flush → interest/deadline/close bookkeeping.
    /// Every path that touches a connection funnels through here.
    fn after_io(&mut self, slot: u32) {
        self.parse_frames(slot);
        self.dispatch(slot);
        self.do_write(slot);
        let close = {
            let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
                return;
            };
            let done_writing = conn.pending_write() == 0;
            // After EOF a leftover partial frame can never complete, so
            // `parsed` emptiness is the only read-side condition.
            conn.io_dead
                || (conn.close_after_flush && done_writing && conn.in_flight == 0)
                || (conn.peer_eof && done_writing && conn.in_flight == 0 && conn.parsed.is_empty())
        };
        if close {
            self.close(slot);
            return;
        }
        self.update_interest(slot);
        self.rearm_deadline(slot);
    }

    /// Extracts complete frames from the read buffer into the parsed
    /// queue, sniffing each frame's correlation id.
    fn parse_frames(&mut self, slot: u32) {
        let now = (self.clock)();
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
            return;
        };
        if self.stopping || conn.close_after_flush {
            return;
        }
        let mut pos = 0usize;
        loop {
            if conn.parsed.len() >= MAX_PARSED {
                break;
            }
            let Some(header) = conn.read_buf.get(pos..pos + 4) else {
                break;
            };
            let len = match <[u8; 4]>::try_from(header) {
                Ok(raw) => u32::from_be_bytes(raw) as usize,
                Err(_) => break,
            };
            if len > wire::MAX_FRAME_LEN {
                // Framing is lost past an oversized announcement: answer
                // with a typed error, then close.
                self.inner.stats.protocol_error();
                let frame = Response::Error {
                    code: ErrorCode::BadFrame,
                    message: format!(
                        "frame of {len} bytes exceeds the {} byte limit",
                        wire::MAX_FRAME_LEN
                    ),
                }
                .encode_with_corr(0);
                conn.queue_frame(&frame);
                conn.close_after_flush = true;
                conn.parsed.clear();
                conn.read_buf.clear();
                return;
            }
            let Some(payload) = conn.read_buf.get(pos + 4..pos + 4 + len) else {
                break; // incomplete frame
            };
            let (corr, op) = wire::sniff_header(payload);
            conn.parsed.push_back(PendingFrame {
                corr,
                snapshot_read: wire::is_snapshot_read(op),
                payload: payload.to_vec(),
            });
            pos += 4 + len;
        }
        if pos > 0 {
            conn.read_buf.drain(..pos);
            release_spare(&mut conn.read_buf);
        }
        // Slow-loris tracking: the header deadline runs from the first
        // byte of an incomplete frame and is NOT reset by trickled bytes.
        if conn.read_buf.is_empty() {
            conn.partial_since = None;
        } else if conn.partial_since.is_none() {
            conn.partial_since = Some(now);
        }
    }

    /// Drains parsed frames in arrival order. Snapshot reads (`MENU`,
    /// `QUOTE`) execute here and their responses go straight into the
    /// write buffer; every other frame moves onto the shard queue, shed
    /// with `BUSY` when it is full. While the connection has more than
    /// [`WRITE_BACKPRESSURE`] response bytes pending, a snapshot read
    /// stays at the head of `parsed` with everything behind it, and runs
    /// on the next writable pass.
    fn dispatch(&mut self, slot: u32) {
        let retry_after_ms = self.retry_after_ms();
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
            return;
        };
        let Some(shard) = self.inner.shards.get(conn.shard) else {
            return;
        };
        loop {
            if conn.close_after_flush || self.stopping {
                conn.parsed.clear();
                break;
            }
            let Some(head) = conn.parsed.front() else {
                break;
            };
            if head.snapshot_read && conn.pending_write() > WRITE_BACKPRESSURE {
                break;
            }
            let Some(frame) = conn.parsed.pop_front() else {
                break;
            };
            if frame.snapshot_read {
                let (reply, close) = execute_job(&self.inner, frame.corr, &frame.payload);
                conn.queue_frame(&reply);
                // A malformed body poisons the framing: answer, then
                // hang up (the loop top drops what is left of `parsed`).
                conn.close_after_flush |= close;
                continue;
            }
            let mut queue = match shard.queue.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            // Checked under the lock: a worker's exit decision (stop &&
            // empty) is serialized with this push, so a job enqueued here
            // is guaranteed to be drained.
            if self.inner.stop.load(Ordering::SeqCst) {
                conn.parsed.clear();
                break;
            }
            if queue.len() >= self.inner.config.queue_capacity {
                drop(queue);
                self.inner.stats.busy_rejection();
                let busy = Response::Busy { retry_after_ms }.encode_with_corr(frame.corr);
                conn.queue_frame(&busy);
                continue;
            }
            queue.push_back(Job {
                slot,
                gen: conn.gen,
                corr: frame.corr,
                payload: frame.payload,
            });
            drop(queue);
            shard.available.notify_one();
            conn.in_flight += 1;
            self.total_in_flight += 1;
        }
    }

    fn retry_after_ms(&self) -> u32 {
        self.inner
            .config
            .retry_after_hint
            .as_millis()
            .min(u32::MAX as u128) as u32
    }

    fn update_interest(&mut self, slot: u32) {
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
            return;
        };
        let want_read = !self.stopping
            && !conn.peer_eof
            && !conn.close_after_flush
            && conn.pending_write() <= WRITE_BACKPRESSURE
            && conn.parsed.len() < MAX_PARSED;
        // Frames left in `parsed` after dispatch are snapshot reads held
        // back by write backpressure; write interest brings the next pass
        // even if the flush above already drained the buffer.
        let want_write = conn.pending_write() > 0 || !conn.parsed.is_empty();
        if conn.interest != (want_read, want_write) {
            if self
                .poller
                .modify(conn.fd, token_for(slot, conn.gen), want_read, want_write)
                .is_err()
            {
                conn.io_dead = true;
            } else {
                conn.interest = (want_read, want_write);
            }
        }
        if conn.io_dead {
            self.close(slot);
        }
    }

    // -- timers ------------------------------------------------------------

    /// Recomputes the connection's deadline; see [`ConnTimer::set`].
    fn rearm_deadline(&mut self, slot: u32) {
        let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
            return;
        };
        let next = conn.compute_deadline(&self.inner.config);
        conn.timer.set(next, &mut self.timers, slot, conn.gen);
    }

    fn fire_due_timers(&mut self) {
        let now = (self.clock)();
        loop {
            match self.timers.peek() {
                Some(Reverse((at, _, _))) if *at <= now => {}
                _ => break,
            }
            let Some(Reverse((at, slot, gen))) = self.timers.pop() else {
                break;
            };
            let kind = {
                let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
                    continue;
                };
                if conn.gen != gen {
                    continue;
                }
                // Lazy invalidation: fire only the connection's *current*
                // deadline, and only if it is actually due.
                match conn.timer.pop(at, now, &mut self.timers, slot, gen) {
                    Some(kind) => kind,
                    None => continue,
                }
            };
            match kind {
                DeadlineKind::WriteStall => {
                    // The peer stopped reading; nothing we send lands.
                    self.close(slot);
                }
                DeadlineKind::Header | DeadlineKind::Idle => {
                    self.timeout_shed(slot);
                }
            }
        }
    }

    /// Sheds a slow or idle connection: a courtesy `BUSY` frame, then
    /// close-after-flush.
    fn timeout_shed(&mut self, slot: u32) {
        let retry_after_ms = self.retry_after_ms();
        {
            let Some(conn) = self.conns.get_mut(slot as usize).and_then(Option::as_mut) else {
                return;
            };
            self.inner.stats.timeout_shed();
            let busy = Response::Busy { retry_after_ms }.encode_with_corr(0);
            conn.queue_frame(&busy);
            conn.close_after_flush = true;
            conn.parsed.clear();
            conn.read_buf.clear();
            conn.partial_since = None;
        }
        self.after_io(slot);
    }

    // -- teardown ----------------------------------------------------------

    fn close(&mut self, slot: u32) {
        let Some(cell) = self.conns.get_mut(slot as usize) else {
            return;
        };
        let Some(conn) = cell.take() else {
            return;
        };
        let _ = self.poller.deregister(conn.fd);
        // In-flight jobs for this connection may still complete; their
        // completions decrement the global count and are otherwise
        // dropped (the generation check misses on a reused slot).
        self.free.push(slot);
        drop(conn);
    }

    fn close_all(&mut self) {
        for slot in 0..self.conns.len() as u32 {
            self.close(slot);
        }
    }
}

/// Entry point for the server's event thread.
pub(crate) fn run(
    inner: Arc<Inner>,
    listener: TcpListener,
    wake_rx: UnixStream,
    clock: Box<dyn Fn() -> Duration + Send>,
) {
    match EventLoop::new(inner, listener, wake_rx, clock) {
        Ok(mut event_loop) => event_loop.run(),
        Err(_) => {
            // Poller construction failed (fd exhaustion at startup): the
            // server cannot serve; stop_and_join still reaps the workers.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_round_trip_slot_and_generation() {
        let token = token_for(7, 123);
        assert_eq!(split_token(token), (7, 123));
        let token = token_for(u32::MAX - 2, u32::MAX - 9);
        assert_eq!(split_token(token), (u32::MAX - 2, u32::MAX - 9));
        assert_ne!(token_for(1, 2), TOKEN_LISTENER);
        assert_ne!(token_for(1, 2), TOKEN_WAKE);
    }

    fn secs(s: u64) -> Duration {
        Duration::from_secs(s)
    }

    #[test]
    fn later_deadlines_leave_one_timer_entry() {
        let mut heap = TimerHeap::new();
        let mut timer = ConnTimer::default();
        // Every request pushes the idle deadline back a little.
        for i in 0..1000 {
            timer.set(Some((secs(60 + i), DeadlineKind::Idle)), &mut heap, 3, 1);
        }
        assert_eq!(heap.len(), 1);
        assert_eq!(timer.armed, Some(secs(60)));
        assert_eq!(timer.deadline, Some((secs(1059), DeadlineKind::Idle)));
    }

    #[test]
    fn an_earlier_deadline_pushes_an_entry() {
        let mut heap = TimerHeap::new();
        let mut timer = ConnTimer::default();
        timer.set(Some((secs(60), DeadlineKind::Idle)), &mut heap, 3, 1);
        timer.set(Some((secs(5), DeadlineKind::WriteStall)), &mut heap, 3, 1);
        assert_eq!(heap.len(), 2);
        assert_eq!(heap.peek(), Some(&Reverse((secs(5), 3, 1))));
        // It fires on time.
        let Reverse((at, _, _)) = heap.pop().expect("entry armed");
        assert_eq!(
            timer.pop(at, secs(5), &mut heap, 3, 1),
            Some(DeadlineKind::WriteStall)
        );
        assert_eq!(timer.deadline, None);
        // The superseded 60 s entry is skipped when it comes due.
        let Reverse((at, _, _)) = heap.pop().expect("superseded entry still queued");
        assert_eq!(timer.pop(at, secs(60), &mut heap, 3, 1), None);
        assert!(heap.is_empty());
    }

    #[test]
    fn an_early_pop_rearms_at_the_current_deadline() {
        let mut heap = TimerHeap::new();
        let mut timer = ConnTimer::default();
        timer.set(Some((secs(60), DeadlineKind::Idle)), &mut heap, 3, 1);
        timer.set(Some((secs(90), DeadlineKind::Idle)), &mut heap, 3, 1);
        let Reverse((at, _, _)) = heap.pop().expect("entry armed");
        assert_eq!(timer.pop(at, secs(60), &mut heap, 3, 1), None);
        assert_eq!(heap.peek(), Some(&Reverse((secs(90), 3, 1))));
        assert_eq!(timer.armed, Some(secs(90)));
        let Reverse((at, _, _)) = heap.pop().expect("re-armed");
        assert_eq!(
            timer.pop(at, secs(90), &mut heap, 3, 1),
            Some(DeadlineKind::Idle)
        );
        // A cleared deadline leaves its entry to be skipped.
        timer.set(Some((secs(100), DeadlineKind::Header)), &mut heap, 3, 1);
        timer.set(None, &mut heap, 3, 1);
        let Reverse((at, _, _)) = heap.pop().expect("entry armed");
        assert_eq!(timer.pop(at, secs(100), &mut heap, 3, 1), None);
        assert!(heap.is_empty());
    }

    #[test]
    fn drained_buffers_give_back_spare_capacity() {
        let mut buf = vec![0u8; 1 << 20];
        buf.clear();
        release_spare(&mut buf);
        assert!(buf.capacity() < 1 << 20, "capacity {}", buf.capacity());
        // A large frame still arriving keeps what it needs.
        let mut partial = vec![7u8; 2 * BUF_RETAIN];
        release_spare(&mut partial);
        assert_eq!(partial.len(), 2 * BUF_RETAIN);
        assert!(partial.iter().all(|&b| b == 7));
        // A small buffer keeps its contents and capacity.
        let mut small = Vec::with_capacity(1024);
        small.extend_from_slice(b"frame");
        release_spare(&mut small);
        assert_eq!((small.as_slice(), small.capacity()), (&b"frame"[..], 1024));
    }
}
