//! The network front-end: a fixed set of reactor threads driving
//! non-blocking sockets off POSIX `poll(2)`, per-connection state machines
//! with reusable buffers, both wire codecs (auto-detected text and
//! pipelined `DCB1` binary — see [`crate::codec`]), per-tenant admission
//! control and load-shedding backpressure ([`crate::admission`]).
//!
//! ## Thread layout
//!
//! ```text
//! reactor 0 ──► owns the listener; accepted sockets are dealt
//! reactor 1..R     round-robin across all reactors (handoff via an
//!                  injection queue + wake-socket byte)
//! worker 0..W ──► execute decoded requests through protocol::execute;
//!                  completions return to the owning reactor's queue
//! supervisor  ──► joins everything; ServerHandle joins the supervisor
//! ```
//!
//! Reactors never execute engine verbs themselves (a `WAIT_LSN` may
//! legally block for ten seconds; a reactor must not): every
//! admission-approved data-plane request becomes a job for the worker
//! pool. Only `PING` and `HELLO` — pure connection-state operations — run
//! inline. Responses are delivered **in request order per connection**
//! regardless of worker completion order: each connection keeps a deque of
//! response slots, workers fill slots by sequence number, and the reactor
//! writes out the completed prefix.
//!
//! ## Why responses stay ordered under pipelining
//!
//! Request *k* on a connection is assigned slot `base_seq + len(slots)` at
//! decode time; inline responses fill their slot immediately, worker
//! responses arrive tagged `(slot, generation, seq)`. The reactor only
//! pops the front of the deque while it is `Some`, so a slow request
//! parks every response behind it — exactly the in-order contract — while
//! later requests still *execute* concurrently on the workers. The
//! `generation` tag makes a late completion for a closed connection a
//! no-op instead of a write into whatever connection reused the slot.
//!
//! ## Readiness
//!
//! Each reactor keeps one `pollfd` array beside its connection table: the
//! read end of its wake socket pair, the listener, then one entry per
//! connection slot (a free slot has fd `-1`, which `poll` skips). Changing
//! a connection's interest is a store into its entry, not a system call.
//! `poll` is the one foreign declaration, so the reactor runs on every
//! Unix from the same code; other platforms get
//! [`std::io::ErrorKind::Unsupported`]. Each wait hands the kernel the
//! whole array: well under a microsecond at the handful of connections a
//! serving client keeps open, tens of microseconds per wake once a reactor
//! holds hundreds.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::engine::ShardedDcTree;

/// Reactor front-end knobs.
#[derive(Clone, Debug, Default)]
pub struct ReactorConfig {
    /// Admission control (token buckets + overload shedding).
    pub admission: crate::admission::AdmissionConfig,
}

/// A running server. Dropping the handle without calling
/// [`stop`](Self::stop) leaves the server running detached.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    supervisor: JoinHandle<()>,
    /// Kicks the blocked event loops and workers after the stop flag flips.
    waker: Box<dyn Fn() + Send + Sync>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once the server has been asked to stop (by [`stop`](Self::stop)
    /// or a client's `SHUTDOWN`).
    pub fn is_stopped(&self) -> bool {
        self.stop.load(SeqCst)
    }

    /// Stops accepting and waits for every reactor and worker thread to
    /// exit.
    pub fn stop(self) {
        self.stop.store(true, SeqCst);
        (self.waker)();
        let _ = self.supervisor.join();
    }

    /// Blocks until the server stops on its own (e.g. a client sent
    /// `SHUTDOWN`), joining all threads.
    pub fn join(self) {
        let _ = self.supervisor.join();
    }
}

/// Binds `addr` (e.g. `"127.0.0.1:0"`) and serves the engine until
/// stopped.
#[cfg(unix)]
pub fn serve_reactor(
    engine: Arc<ShardedDcTree>,
    addr: &str,
    config: ReactorConfig,
) -> io::Result<ServerHandle> {
    imp::serve_reactor(engine, addr, config)
}

/// Stub for platforms without `poll(2)`.
#[cfg(not(unix))]
pub fn serve_reactor(
    _engine: Arc<ShardedDcTree>,
    _addr: &str,
    _config: ReactorConfig,
) -> io::Result<ServerHandle> {
    Err(io::Error::new(
        io::ErrorKind::Unsupported,
        "the reactor front-end requires poll(2) (unix)",
    ))
}

/// The one kernel facility the reactor declares itself: `poll(2)`. Sockets
/// and the wake pair come from std, already switchable to non-blocking.
/// Declared directly against the C library std already links, so no
/// external crate is required.
#[cfg(unix)]
mod sys {
    use std::io;
    use std::os::raw::{c_int, c_short};

    /// `struct pollfd`. A negative `fd` is skipped by `poll`.
    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: c_short,
        pub revents: c_short,
    }

    impl PollFd {
        pub fn new(fd: c_int, events: c_short) -> PollFd {
            PollFd {
                fd,
                events,
                revents: 0,
            }
        }
    }

    // The same values on Linux, the BSDs, macOS and illumos.
    pub const POLLIN: c_short = 0x001;
    pub const POLLOUT: c_short = 0x004;
    pub const POLLERR: c_short = 0x008;
    pub const POLLHUP: c_short = 0x010;
    pub const POLLNVAL: c_short = 0x020;

    #[cfg(any(target_os = "linux", target_os = "illumos", target_os = "solaris"))]
    type NfdsT = std::os::raw::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "illumos", target_os = "solaris")))]
    type NfdsT = std::os::raw::c_uint;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
    }

    /// Waits up to `timeout_ms` for readiness on `fds`, filling every
    /// entry's `revents`; returns how many entries have some. EINTR
    /// retries internally.
    pub fn wait(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
        loop {
            // SAFETY: `fds` is an exclusively borrowed slice of `repr(C)`
            // `pollfd` records and `nfds` is its length, so `poll` reads
            // and writes (only `revents`) inside it.
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

#[cfg(unix)]
mod imp {
    use std::collections::VecDeque;
    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed, Ordering::SeqCst};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use parking_lot::{Condvar, Mutex};

    use super::sys::{self, PollFd};
    use super::{ReactorConfig, ServerHandle};
    use crate::admission::{
        AdmissionController, TenantBucket, Verdict, DEFAULT_TENANT, MAX_TENANTS,
    };
    use crate::codec::{self, DecodeStep, Protocol};
    use crate::engine::ShardedDcTree;
    use crate::metrics::TenantNetMetrics;
    use crate::protocol::{self, Control, Request};

    /// Event-loop threads. Each owns a `poll` set and a share of the
    /// connections; reactor 0 also owns the listener.
    const REACTORS: usize = 2;
    /// Worker threads executing engine verbs (must cover the worst-case
    /// number of concurrently *blocking* requests, e.g. `WAIT_LSN`).
    const WORKERS: usize = 4;
    /// A connection idle longer than this (nothing read, nothing pending) is
    /// closed.
    const READ_TIMEOUT: Duration = Duration::from_secs(30);
    /// Granularity of stop-flag checks and idle scans when no I/O is
    /// happening. This is the *only* timed wakeup — readiness and completions
    /// wake the loop directly.
    const TICK: Duration = Duration::from_millis(100);
    /// `pollfd` index of the read end of the reactor's wake socket pair.
    const WAKE: usize = 0;
    /// `pollfd` index of the listener (fd `-1` on every reactor but 0).
    const LISTENER: usize = 1;
    /// `pollfd` index of connection slot 0.
    const CONN_BASE: usize = 2;

    /// Largest batch of one connection's pipelined requests moved to a
    /// worker as a single job. Batching amortises the dispatch handshake
    /// (jobs lock + condvar + completion lock + wake byte) across the burst —
    /// per-request that handshake costs more than a cheap verb itself — and
    /// the cap keeps a deep pipeline streaming responses in chunks instead
    /// of buffering the whole window.
    const JOB_BATCH_MAX: usize = 32;

    /// One executed batch coming back from a worker.
    struct Completion {
        slot: usize,
        generation: u64,
        /// `(seq, response, control)` in execution order.
        results: Vec<(u64, String, Control)>,
    }

    /// A batch of admitted requests of ONE connection on its way to a
    /// worker, executed sequentially in order.
    struct Job {
        reactor: usize,
        slot: usize,
        generation: u64,
        reqs: Vec<(u64, Request)>,
    }

    /// Cross-thread mailbox of one reactor.
    struct ReactorShared {
        /// Write end of the reactor's wake socket pair.
        wake: UnixStream,
        /// Bounds wake writes to one outstanding byte.
        wake_pending: AtomicBool,
        /// Sockets handed over by the accepting reactor.
        injected: Mutex<Vec<TcpStream>>,
        /// Executed requests waiting to be written out.
        completions: Mutex<Vec<Completion>>,
    }

    impl ReactorShared {
        fn notify(&self) {
            if !self.wake_pending.swap(true, SeqCst) {
                // One byte never fills the pair's buffer; a failed write
                // would only mean the reactor is gone.
                let _ = (&self.wake).write(&[1]);
            }
        }
    }

    /// State shared by every thread of the front-end.
    struct Shared {
        engine: Arc<ShardedDcTree>,
        stop: Arc<AtomicBool>,
        admission: AdmissionController,
        jobs: Mutex<VecDeque<Job>>,
        jobs_cv: Condvar,
        /// Jobs decoded and admitted but not yet finished by a worker —
        /// queued work the engine metrics can't see, counted by the
        /// overload gate.
        jobs_depth: AtomicU64,
        reactors: Vec<ReactorShared>,
    }

    impl Shared {
        /// Wakes every thread (stop, shutdown, external `ServerHandle::stop`).
        fn wake_all(&self) {
            for r in &self.reactors {
                r.notify();
            }
            self.jobs_cv.notify_all();
        }
    }

    /// Per-connection state machine.
    struct Conn {
        stream: TcpStream,
        generation: u64,
        protocol: Protocol,
        rbuf: Vec<u8>,
        /// Text protocol: the first `scanned` bytes of `rbuf` hold no
        /// newline, so each read searches only the bytes it added.
        scanned: usize,
        wbuf: Vec<u8>,
        /// Bytes of `wbuf` already written.
        wpos: usize,
        /// Response slots in request order; `None` = still executing.
        slots: VecDeque<Option<(String, Control)>>,
        /// Sequence number of `slots[0]`.
        base_seq: u64,
        /// Admitted requests awaiting their turn on the worker pool. One
        /// connection has at most ONE job (a batch of up to
        /// [`JOB_BATCH_MAX`] requests, executed in order) in flight:
        /// pipelining overlaps transport (one syscall carries many frames)
        /// and batching amortises the worker handshake, but execution stays
        /// sequential per connection, so `INSERT, FLUSH, COUNT` pipelined
        /// behaves exactly like the same verbs sent one at a time —
        /// different connections still execute concurrently.
        queued: VecDeque<(u64, Request)>,
        /// Whether a job of this connection is at the workers.
        inflight: bool,
        tenant_name: String,
        tenant: Arc<TenantNetMetrics>,
        /// The tenant's token bucket, resolved once per `HELLO` so the
        /// per-request admission check never touches the global bucket map.
        bucket: Arc<TenantBucket>,
        last_activity: Instant,
        /// Peer closed its write side; serve out pending work then close.
        read_closed: bool,
        /// Fatal protocol error; close once `wbuf` drains.
        closing: bool,
    }

    impl Conn {
        fn push_ready(&mut self, response: String, control: Control) {
            self.slots.push_back(Some((response, control)));
        }

        fn next_seq(&self) -> u64 {
            self.base_seq + self.slots.len() as u64
        }

        fn idle_and_drained(&self) -> bool {
            self.slots.is_empty() && self.wpos >= self.wbuf.len()
        }

        /// The `poll` events this connection waits for: input until the
        /// peer half-closes or the connection is condemned (a closed read
        /// side stays readable, and waiting on it would spin), output while
        /// `wbuf` holds unwritten bytes.
        fn interest(&self) -> i16 {
            let mut events = 0;
            if !(self.read_closed || self.closing) {
                events |= sys::POLLIN;
            }
            if self.wpos < self.wbuf.len() {
                events |= sys::POLLOUT;
            }
            events
        }
    }

    pub fn serve_reactor(
        engine: Arc<ShardedDcTree>,
        addr: &str,
        config: ReactorConfig,
    ) -> io::Result<ServerHandle> {
        start(engine, addr, config).map(|(handle, _)| handle)
    }

    /// [`serve_reactor`], also handing back the state its threads share.
    fn start(
        engine: Arc<ShardedDcTree>,
        addr: &str,
        config: ReactorConfig,
    ) -> io::Result<(ServerHandle, Arc<Shared>)> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let mut reactors = Vec::with_capacity(REACTORS);
        let mut wake_readers = Vec::with_capacity(REACTORS);
        for _ in 0..REACTORS {
            let (reader, writer) = UnixStream::pair()?;
            reader.set_nonblocking(true)?;
            writer.set_nonblocking(true)?;
            wake_readers.push(reader);
            reactors.push(ReactorShared {
                wake: writer,
                wake_pending: AtomicBool::new(false),
                injected: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
            });
        }
        let shared = Arc::new(Shared {
            admission: AdmissionController::new(config.admission),
            engine: Arc::clone(&engine),
            stop: Arc::clone(&stop),
            jobs: Mutex::new(VecDeque::new()),
            jobs_cv: Condvar::new(),
            jobs_depth: AtomicU64::new(0),
            reactors,
        });
        engine.metrics().net.enabled.store(1, Relaxed);

        let mut threads = Vec::new();
        let mut listener = Some(listener);
        for (id, wake) in wake_readers.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let listener = listener.take();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dc-reactor-{id}"))
                    .spawn(move || Reactor::new(id, shared, listener, wake).run())?,
            );
        }
        for id in 0..WORKERS {
            let shared = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dc-net-worker-{id}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let supervisor_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("dc-reactor-supervisor".into())
            .spawn(move || {
                for t in threads {
                    let _ = t.join();
                }
                drop(supervisor_shared);
            })?;
        let waker_shared = Arc::clone(&shared);
        let handle = ServerHandle {
            addr: local,
            stop,
            supervisor,
            waker: Box::new(move || waker_shared.wake_all()),
        };
        Ok((handle, shared))
    }

    fn worker_loop(shared: &Shared) {
        loop {
            let job = {
                let mut jobs = shared.jobs.lock();
                loop {
                    if shared.stop.load(SeqCst) {
                        return;
                    }
                    if let Some(job) = jobs.pop_front() {
                        break job;
                    }
                    // The timeout is a safety net; stop and submission both
                    // notify the condvar.
                    shared
                        .jobs_cv
                        .wait_for(&mut jobs, Duration::from_millis(500));
                }
            };
            let mut results = Vec::with_capacity(job.reqs.len());
            let mut remaining = job.reqs.len();
            for (seq, req) in &job.reqs {
                let (response, control) = protocol::execute(&shared.engine, req);
                shared.jobs_depth.fetch_sub(1, Relaxed);
                remaining -= 1;
                let stop = control == Control::StopServer;
                results.push((*seq, response, control));
                if stop {
                    // The rest of the batch is behind a SHUTDOWN; it never
                    // executes, but the overload gauge must not leak.
                    shared.jobs_depth.fetch_sub(remaining as u64, Relaxed);
                    break;
                }
            }
            let mailbox = &shared.reactors[job.reactor];
            mailbox.completions.lock().push(Completion {
                slot: job.slot,
                generation: job.generation,
                results,
            });
            mailbox.notify();
        }
    }

    struct Reactor {
        id: usize,
        shared: Arc<Shared>,
        /// Read end of the wake socket pair (`fds[WAKE]`).
        wake: UnixStream,
        listener: Option<TcpListener>,
        /// `WAKE`, `LISTENER`, then `fds[CONN_BASE + slot]` for `conns[slot]`.
        fds: Vec<PollFd>,
        conns: Vec<Option<Conn>>,
        free: Vec<usize>,
        /// Reusable socket-read scratch shared by all connections of this
        /// reactor (data lands in the per-connection `rbuf`).
        scratch: Box<[u8]>,
        next_generation: u64,
        /// Round-robin accept target.
        next_rr: usize,
        last_idle_scan: Instant,
        jobs_out: Vec<Job>,
    }

    impl Reactor {
        fn new(
            id: usize,
            shared: Arc<Shared>,
            listener: Option<TcpListener>,
            wake: UnixStream,
        ) -> Reactor {
            let listener_fd = listener.as_ref().map_or(-1, |l| l.as_raw_fd());
            Reactor {
                id,
                shared,
                fds: vec![
                    PollFd::new(wake.as_raw_fd(), sys::POLLIN),
                    PollFd::new(listener_fd, sys::POLLIN),
                ],
                wake,
                listener,
                conns: Vec::new(),
                free: Vec::new(),
                scratch: vec![0u8; 64 * 1024].into_boxed_slice(),
                next_generation: 0,
                next_rr: 0,
                last_idle_scan: Instant::now(),
                jobs_out: Vec::new(),
            }
        }

        fn run(mut self) {
            while !self.shared.stop.load(SeqCst) {
                let Ok(mut ready) = sys::wait(&mut self.fds, TICK.as_millis() as i32) else {
                    break;
                };
                if ready > 0 && self.fds[WAKE].revents != 0 {
                    ready -= 1;
                    self.drain_wake();
                }
                if ready > 0 && self.fds[LISTENER].revents != 0 {
                    ready -= 1;
                    self.accept_ready();
                }
                // Slots adopted above start with no `revents`; a slot
                // closed during the scan has its entry cleared.
                let mut slot = 0;
                while ready > 0 && slot < self.conns.len() {
                    let bits = self.fds[CONN_BASE + slot].revents;
                    if bits != 0 {
                        ready -= 1;
                        self.conn_ready(slot, bits);
                    }
                    slot += 1;
                }
                // Mailboxes are drained every iteration (not only on wake
                // events) so a coalesced wake byte never strands work.
                self.adopt_injected();
                self.apply_completions();
                if self.last_idle_scan.elapsed() >= TICK {
                    self.scan_idle();
                    self.last_idle_scan = Instant::now();
                }
            }
            // Unblock everyone else on the way out (idempotent).
            self.shared.wake_all();
        }

        fn drain_wake(&mut self) {
            let mut buf = [0u8; 64];
            while matches!((&self.wake).read(&mut buf), Ok(n) if n > 0) {}
            self.shared.reactors[self.id]
                .wake_pending
                .store(false, SeqCst);
        }

        // ---- accept path -------------------------------------------------

        fn accept_ready(&mut self) {
            loop {
                let Some(listener) = &self.listener else {
                    return;
                };
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        let metrics = self.shared.engine.metrics();
                        metrics.net.accepted_total.fetch_add(1, Relaxed);
                        let target = self.next_rr % self.shared.reactors.len();
                        self.next_rr = self.next_rr.wrapping_add(1);
                        if target == self.id {
                            self.adopt(stream);
                        } else {
                            let mailbox = &self.shared.reactors[target];
                            mailbox.injected.lock().push(stream);
                            mailbox.notify();
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => return,
                }
            }
        }

        fn adopt_injected(&mut self) {
            let streams = {
                let mut injected = self.shared.reactors[self.id].injected.lock();
                std::mem::take(&mut *injected)
            };
            for stream in streams {
                self.adopt(stream);
            }
        }

        fn adopt(&mut self, stream: TcpStream) {
            if stream.set_nonblocking(true).is_err() {
                return;
            }
            let _ = stream.set_nodelay(true);
            let metrics = self.shared.engine.metrics();
            self.next_generation += 1;
            let conn = Conn {
                generation: self.next_generation,
                protocol: Protocol::Undecided,
                rbuf: Vec::new(),
                scanned: 0,
                wbuf: Vec::new(),
                wpos: 0,
                slots: VecDeque::new(),
                base_seq: 0,
                queued: VecDeque::new(),
                inflight: false,
                tenant_name: DEFAULT_TENANT.to_string(),
                tenant: metrics
                    .net
                    .tenant(DEFAULT_TENANT)
                    .expect("the default tenant is never refused"),
                bucket: self.shared.admission.bucket(DEFAULT_TENANT),
                last_activity: Instant::now(),
                read_closed: false,
                closing: false,
                stream,
            };
            let entry = PollFd::new(conn.stream.as_raw_fd(), sys::POLLIN);
            match self.free.pop() {
                Some(slot) => {
                    self.conns[slot] = Some(conn);
                    self.fds[CONN_BASE + slot] = entry;
                }
                None => {
                    self.conns.push(Some(conn));
                    self.fds.push(entry);
                }
            }
            metrics.net.active_connections.fetch_add(1, Relaxed);
        }

        fn close(&mut self, slot: usize) {
            if let Some(conn) = self.conns[slot].take() {
                self.fds[CONN_BASE + slot] = PollFd::new(-1, 0);
                self.free.push(slot);
                // Undispatched requests die with the connection; the
                // backlog gauge must not leak them (the in-flight one, if
                // any, is decremented by its worker).
                if !conn.queued.is_empty() {
                    self.shared
                        .jobs_depth
                        .fetch_sub(conn.queued.len() as u64, Relaxed);
                }
                self.shared
                    .engine
                    .metrics()
                    .net
                    .active_connections
                    .fetch_sub(1, Relaxed);
            }
        }

        // ---- event dispatch ----------------------------------------------

        fn conn_ready(&mut self, slot: usize, bits: i16) {
            if bits & (sys::POLLERR | sys::POLLNVAL) != 0 {
                self.close(slot);
                return;
            }
            // `POLLHUP` is read like `POLLIN`: some systems raise it for a
            // half-close, and the read tells an EOF (serve what is pending,
            // then close) from a reset (close now).
            if bits & (sys::POLLIN | sys::POLLHUP) != 0 {
                self.readable(slot);
            }
            if self.conns[slot].is_some() && bits & sys::POLLOUT != 0 {
                self.flush_conn(slot);
            }
        }

        fn readable(&mut self, slot: usize) {
            loop {
                let conn = self.conns[slot].as_mut().unwrap();
                match conn.stream.read(&mut self.scratch) {
                    Ok(0) => {
                        conn.read_closed = true;
                        break;
                    }
                    Ok(n) => {
                        conn.last_activity = Instant::now();
                        conn.rbuf.extend_from_slice(&self.scratch[..n]);
                        self.shared
                            .engine
                            .metrics()
                            .net
                            .bytes_in
                            .fetch_add(n as u64, Relaxed);
                        if n < self.scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.close(slot);
                        return;
                    }
                }
            }
            self.process_rbuf(slot);
            if self.conns[slot].is_some() {
                self.dispatch_jobs();
                self.pump(slot);
            }
        }

        /// Decodes every complete request sitting in the connection's read
        /// buffer, filling response slots / queueing worker jobs.
        fn process_rbuf(&mut self, slot: usize) {
            // The read buffer is taken out of the connection for the
            // duration of the pass so decoded requests can be admitted
            // (which mutates the connection) while slices of it are alive.
            let (protocol, mut rbuf, mut from) = {
                let conn = self.conns[slot].as_mut().unwrap();
                if conn.protocol == Protocol::Undecided {
                    conn.protocol = codec::detect_protocol(&conn.rbuf);
                    if conn.protocol == Protocol::Binary {
                        conn.rbuf.drain(..codec::MAGIC.len());
                    }
                }
                (conn.protocol, std::mem::take(&mut conn.rbuf), conn.scanned)
            };
            let mut consumed = 0usize;
            match protocol {
                Protocol::Undecided => {}
                Protocol::Text => {
                    while let Some(off) = rbuf[from..].iter().position(|&b| b == b'\n') {
                        let nl = from + off;
                        let parsed = match std::str::from_utf8(&rbuf[consumed..nl]) {
                            Ok(s) => protocol::parse_request(s),
                            Err(_) => Err("request not UTF-8".to_string()),
                        };
                        consumed = nl + 1;
                        from = consumed;
                        self.admit(slot, parsed);
                    }
                    // Undelimited text is bounded like a binary frame: a
                    // peer that never sends a newline would otherwise grow
                    // `rbuf` forever, refreshing `last_activity` as it goes.
                    if rbuf.len() - consumed > codec::MAX_FRAME {
                        let msg = format!("request line longer than {} bytes", codec::MAX_FRAME);
                        self.condemn(slot, msg);
                        consumed = rbuf.len();
                    }
                }
                Protocol::Binary => loop {
                    match codec::decode_request(&rbuf[consumed..]) {
                        DecodeStep::Incomplete => break,
                        DecodeStep::Frame {
                            consumed: n,
                            request,
                        } => {
                            consumed += n;
                            self.admit(slot, request.map_err(|e| e.to_string()));
                        }
                        DecodeStep::Fatal(e) => {
                            self.condemn(slot, e.to_string());
                            consumed = rbuf.len();
                            break;
                        }
                    }
                },
            }
            if consumed > 0 {
                rbuf.drain(..consumed);
            }
            let conn = self.conns[slot].as_mut().unwrap();
            // Only the text decoder reads `scanned`: whatever it leaves in
            // `rbuf` holds no newline (nor do the magic-prefix bytes an
            // undecided connection holds).
            conn.scanned = rbuf.len();
            conn.rbuf = rbuf;
        }

        /// Answers `ERR <msg>` after the responses already queued, then
        /// closes the connection once that is written.
        fn condemn(&mut self, slot: usize, msg: String) {
            let conn = self.conns[slot].as_mut().unwrap();
            conn.push_ready(format!("ERR {msg}"), Control::Continue);
            conn.closing = true;
        }

        /// Runs one decoded (or failed-to-decode) request through admission
        /// and either answers it inline or hands it to the worker pool.
        fn admit(&mut self, slot: usize, parsed: Result<Request, String>) {
            let metrics = self.shared.engine.metrics();
            metrics.net.requests_total.fetch_add(1, Relaxed);
            let conn = self.conns[slot].as_mut().unwrap();
            metrics
                .net
                .pipeline_depth
                .record(conn.slots.len() as u64 + 1);
            let req = match parsed {
                Err(msg) => {
                    conn.push_ready(format!("ERR {msg}"), Control::Continue);
                    return;
                }
                Ok(req) => req,
            };
            match req {
                // Connection-state verbs run inline: no engine resources.
                // A new tenant past the cap is refused before either map
                // grows, and the connection keeps the tenant it has.
                Request::Hello { tenant } => {
                    let Some(counters) = metrics.net.tenant(&tenant) else {
                        let line = format!("ERR more than {MAX_TENANTS} tenants");
                        conn.push_ready(line, Control::Continue);
                        return;
                    };
                    conn.tenant = counters;
                    conn.bucket = self.shared.admission.bucket(&tenant);
                    conn.tenant_name = tenant;
                    let line = format!("OK HELLO {}", conn.tenant_name);
                    conn.push_ready(line, Control::Continue);
                }
                Request::Ping => conn.push_ready("OK PONG".to_string(), Control::Continue),
                req => {
                    if req.admission_controlled() {
                        let extra = self.shared.jobs_depth.load(Relaxed);
                        match self
                            .shared
                            .admission
                            .check_bucket(&conn.bucket, metrics, extra)
                        {
                            Verdict::Admit => conn.tenant.admitted.fetch_add(1, Relaxed),
                            shed => {
                                conn.tenant.denied.fetch_add(1, Relaxed);
                                metrics.net.shed_total.fetch_add(1, Relaxed);
                                let line = shed.busy_line().unwrap().to_string();
                                conn.push_ready(line, Control::Continue);
                                return;
                            }
                        };
                    }
                    let seq = conn.next_seq();
                    conn.slots.push_back(None);
                    conn.queued.push_back((seq, req));
                    self.shared.jobs_depth.fetch_add(1, Relaxed);
                    self.maybe_dispatch(slot);
                }
            }
        }

        /// Moves the connection's queued requests (up to [`JOB_BATCH_MAX`])
        /// to the worker pool as one job, if none of its requests is
        /// currently executing (per-connection sequential execution — see
        /// the `queued` field).
        fn maybe_dispatch(&mut self, slot: usize) {
            let conn = self.conns[slot].as_mut().unwrap();
            if conn.inflight || conn.queued.is_empty() {
                return;
            }
            let take = conn.queued.len().min(JOB_BATCH_MAX);
            let reqs: Vec<(u64, Request)> = conn.queued.drain(..take).collect();
            conn.inflight = true;
            self.jobs_out.push(Job {
                reactor: self.id,
                slot,
                generation: conn.generation,
                reqs,
            });
        }

        /// Publishes the jobs collected during this read pass in one lock
        /// acquisition.
        fn dispatch_jobs(&mut self) {
            if self.jobs_out.is_empty() {
                return;
            }
            let n = self.jobs_out.len();
            self.shared.jobs.lock().extend(self.jobs_out.drain(..));
            if n == 1 {
                self.shared.jobs_cv.notify_one();
            } else {
                self.shared.jobs_cv.notify_all();
            }
        }

        // ---- completion path ---------------------------------------------

        fn apply_completions(&mut self) {
            let completions = {
                let mut mailbox = self.shared.reactors[self.id].completions.lock();
                std::mem::take(&mut *mailbox)
            };
            let mut touched = Vec::new();
            for c in completions {
                let valid = self.conns.get(c.slot).is_some_and(|s| {
                    s.as_ref()
                        .is_some_and(|conn| conn.generation == c.generation)
                });
                if !valid {
                    // The connection died while the batch ran. A SHUTDOWN
                    // must still stop the server even if its client is gone.
                    if c.results
                        .iter()
                        .any(|(_, _, ctl)| *ctl == Control::StopServer)
                    {
                        self.initiate_stop();
                    }
                    continue;
                }
                let conn = self.conns[c.slot].as_mut().unwrap();
                for (seq, response, control) in c.results {
                    let idx = (seq - conn.base_seq) as usize;
                    conn.slots[idx] = Some((response, control));
                }
                conn.inflight = false;
                self.maybe_dispatch(c.slot);
                if !touched.contains(&c.slot) {
                    touched.push(c.slot);
                }
            }
            self.dispatch_jobs();
            for slot in touched {
                self.pump(slot);
            }
        }

        /// Moves the completed in-order response prefix into the write
        /// buffer and pushes it to the socket.
        fn pump(&mut self, slot: usize) {
            let mut stop_after_flush = false;
            {
                let conn = self.conns[slot].as_mut().unwrap();
                while let Some(Some(_)) = conn.slots.front() {
                    let (response, control) = conn.slots.pop_front().unwrap().unwrap();
                    conn.base_seq += 1;
                    match conn.protocol {
                        Protocol::Binary => codec::encode_response(&response, &mut conn.wbuf),
                        _ => {
                            conn.wbuf.extend_from_slice(response.as_bytes());
                            conn.wbuf.push(b'\n');
                        }
                    }
                    if control == Control::StopServer {
                        stop_after_flush = true;
                        break;
                    }
                }
            }
            self.flush_conn(slot);
            if stop_after_flush {
                // Best-effort: give the closing client a beat to receive
                // `OK BYE` even if the socket buffer was momentarily full.
                let deadline = Instant::now() + Duration::from_millis(250);
                while self.conns[slot]
                    .as_ref()
                    .is_some_and(|c| c.wpos < c.wbuf.len())
                    && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_millis(5));
                    self.flush_conn(slot);
                }
                self.initiate_stop();
            }
        }

        fn initiate_stop(&self) {
            self.shared.stop.store(true, SeqCst);
            self.shared.wake_all();
        }

        /// Writes as much of `wbuf` as the socket accepts; updates the
        /// connection's `poll` interest and handles end-of-life transitions.
        fn flush_conn(&mut self, slot: usize) {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let mut written = 0u64;
            let mut dead = false;
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => {
                        conn.wpos += n;
                        written += n as u64;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if written > 0 {
                self.shared
                    .engine
                    .metrics()
                    .net
                    .bytes_out
                    .fetch_add(written, Relaxed);
            }
            if dead {
                self.close(slot);
                return;
            }
            let drained = conn.wpos >= conn.wbuf.len();
            if drained && conn.wpos > 0 {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            // `POLLHUP` is reported whatever the interest, so a connection
            // that waits for nothing must not be in the wait at all.
            let events = conn.interest();
            let fd = if events == 0 {
                -1
            } else {
                conn.stream.as_raw_fd()
            };
            self.fds[CONN_BASE + slot] = PollFd::new(fd, events);
            let finished = self.conns[slot]
                .as_ref()
                .is_some_and(|c| (c.closing || c.read_closed) && c.idle_and_drained());
            if finished {
                self.close(slot);
            }
        }

        fn scan_idle(&mut self) {
            let mut expired = Vec::new();
            for (slot, conn) in self.conns.iter().enumerate() {
                if let Some(c) = conn {
                    if c.idle_and_drained() && c.last_activity.elapsed() >= READ_TIMEOUT {
                        expired.push(slot);
                    }
                }
            }
            for slot in expired {
                self.close(slot);
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::engine::EngineConfig;
        use dc_hierarchy::{CubeSchema, HierarchySchema};
        use std::io::{BufRead, BufReader};
        use std::net::TcpStream;

        /// One connection declaring more tenants than the cap: the new
        /// names past it are refused, neither tenant map grows past it, and
        /// STATS stays bounded by it.
        #[test]
        fn hello_past_the_tenant_cap_is_refused() {
            let schema = CubeSchema::new(
                vec![HierarchySchema::new("Customer", vec!["Region".into()])],
                "sales",
            );
            let engine = Arc::new(ShardedDcTree::new(schema, EngineConfig::default()).unwrap());
            let (handle, shared) =
                start(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
            let stream = TcpStream::connect(handle.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut r = BufReader::new(stream);
            let mut request = |line: &str| {
                w.write_all(format!("{line}\n").as_bytes()).unwrap();
                let mut response = String::new();
                r.read_line(&mut response).unwrap();
                response.trim_end().to_string()
            };
            let base = request("STATS").len();

            // The default tenant holds one of the slots.
            let name = |i: usize| format!("tenant-{i:04}");
            let last = MAX_TENANTS - 2;
            for i in 0..MAX_TENANTS + 100 {
                let response = request(&format!("HELLO {}", name(i)));
                if i <= last {
                    assert_eq!(response, format!("OK HELLO {}", name(i)));
                } else {
                    assert!(response.starts_with("ERR "), "HELLO #{i}: {response}");
                }
            }
            // A known name is still accepted at the cap.
            assert_eq!(request("HELLO default"), "OK HELLO default");
            assert_eq!(
                request(&format!("HELLO {}", name(last))),
                format!("OK HELLO {}", name(last))
            );
            assert!(request(&format!("HELLO {}", name(last + 1))).starts_with("ERR "));

            let tenants = engine.metrics().net.tenant_counts();
            assert_eq!(tenants.len(), MAX_TENANTS);
            assert!(shared.admission.tenants() <= MAX_TENANTS);
            // The refused HELLO left the connection on its tenant.
            assert_eq!(request("COUNT"), "OK 0.00");
            let counts = engine.metrics().net.tenant_counts();
            assert!(counts.contains(&(name(last), 1, 0)), "{counts:?}");

            // Each tenant adds one `"name":{"admitted":a,"denied":d}` member.
            let member = format!("\"{}\":{{\"admitted\":1,\"denied\":0}},", name(0)).len();
            let stats = request("STATS").len();
            assert!(stats <= base + MAX_TENANTS * member + 256, "{stats} bytes");
            handle.stop();
            engine.shutdown();
        }
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::codec;
    use crate::engine::{EngineConfig, PartitionPolicy};
    use crate::protocol::Request;
    use dc_hierarchy::{CubeSchema, HierarchySchema};
    use std::io::{BufRead, BufReader, Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    fn tiny_engine() -> Arc<ShardedDcTree> {
        let schema = CubeSchema::new(
            vec![HierarchySchema::new(
                "Customer",
                vec!["Region".into(), "Nation".into()],
            )],
            "sales",
        );
        Arc::new(
            ShardedDcTree::new(
                schema,
                EngineConfig {
                    num_shards: 2,
                    policy: PartitionPolicy::Hash,
                    ..Default::default()
                },
            )
            .unwrap(),
        )
    }

    #[test]
    fn text_and_binary_clients_share_one_reactor() {
        let engine = tiny_engine();
        let handle =
            serve_reactor(Arc::clone(&engine), "127.0.0.1:0", ReactorConfig::default()).unwrap();
        let addr = handle.local_addr();

        // Text client.
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut w = stream.try_clone().unwrap();
        let mut r = BufReader::new(stream);
        w.write_all(b"PING\nINSERT 5 EUROPE/FRANCE\n").unwrap();
        let mut line = String::new();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK PONG");
        line.clear();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK INSERTED");
        engine.flush();
        w.write_all(b"SUM\n").unwrap();
        line.clear();
        r.read_line(&mut line).unwrap();
        assert_eq!(line.trim_end(), "OK 5.00");

        // Pipelined binary client over the same server.
        let mut bin = TcpStream::connect(addr).unwrap();
        bin.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut frames = codec::MAGIC.to_vec();
        codec::encode_request(&Request::Ping, &mut frames);
        codec::encode_request(
            &Request::Insert {
                measure: 7,
                paths: vec![vec!["ASIA".into(), "JAPAN".into()]],
            },
            &mut frames,
        );
        codec::encode_request(
            &Request::Query {
                text: "COUNT".into(),
            },
            &mut frames,
        );
        bin.write_all(&frames).unwrap();
        let mut got = Vec::new();
        let mut responses = Vec::new();
        let mut chunk = [0u8; 4096];
        while responses.len() < 3 {
            let n = bin.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed early; got {responses:?}");
            got.extend_from_slice(&chunk[..n]);
            loop {
                match codec::decode_response(&got) {
                    codec::ResponseStep::Incomplete => break,
                    codec::ResponseStep::Frame {
                        consumed,
                        status,
                        response,
                    } => {
                        got.drain(..consumed);
                        responses.push((status, response));
                    }
                    other => panic!("{other:?}"),
                }
            }
        }
        assert_eq!(responses[0], (codec::STATUS_OK, "OK PONG".to_string()));
        assert_eq!(responses[1].0, codec::STATUS_OK);
        handle.stop();
    }
}
