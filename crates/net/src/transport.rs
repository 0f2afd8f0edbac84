//! The std-TCP [`Transport`] backend and its receive fabric.
//!
//! Topology: every node owns one [`TcpListener`]; every directed peer
//! link `src → dst` is one outbound [`TcpStream`] owned by `src`'s
//! [`TcpTransport`]. TCP keeps bytes ordered within a connection, so
//! each link is FIFO — the same per-ordered-pair assumption the paper
//! (and the in-process runtime) makes. Writes are blocking and happen
//! on the sending node's own thread; a failed link is retried with
//! bounded backoff and otherwise *drops* the message, which the
//! protocols already tolerate as message loss.
//!
//! The [`NetFabric`] owns the inbound side: one accept thread per
//! listener, one reader thread per accepted connection. A reader
//! decodes frames with the [`WireCodec`] and injects each message into
//! the hosting [`ThreadRuntime`](sbs_sim::ThreadRuntime) through its
//! [`MsgInjector`]. A frame that fails to decode bumps a reject counter
//! and kills that connection — a Byzantine peer can waste a connection,
//! not the process.
//!
//! Each connection opens with an 8-byte preamble: a magic word and the
//! sender's process id. The claimed id is **trusted**, exactly like
//! [`ThreadRuntime::inject`](sbs_sim::ThreadRuntime::inject)'s claimed
//! sender — authentication is out of scope here; the protocol layer is
//! the part that tolerates Byzantine peers.

use crate::codec::{read_frame, write_frame, WireCodec};
use sbs_bulk::BulkCodec;
use sbs_core::Payload;
use sbs_sim::{MsgInjector, ProcessId, Transport};
use sbs_store::{StoreOut, StoreWire};
use std::io::{self, BufReader, Read, Write};
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// First 4 bytes of every connection ("SBSN"), so a stray client
/// connecting to the port is detected before any frame is parsed.
const PREAMBLE_MAGIC: u32 = u32::from_le_bytes(*b"SBSN");

/// Connect attempts per send before the link declares the message lost.
const CONNECT_ATTEMPTS: u32 = 5;
/// Backoff before connect attempt `i` (doubling): 1, 2, 4, 8, 16 ms.
const CONNECT_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// The outbound half of one node's links: a lazily connected
/// [`TcpStream`] per peer, with bounded reconnect. One instance lives on
/// each node thread (handed to
/// [`ThreadRuntime::spawn_with_transport`](sbs_sim::ThreadRuntime::spawn_with_transport)),
/// so no locking is involved on the send path.
pub struct TcpTransport<V> {
    me: ProcessId,
    peers: Vec<SocketAddr>,
    conns: Vec<Option<TcpStream>>,
    codec: WireCodec,
    /// Messages dropped after exhausting reconnect attempts, shared
    /// across the fleet's transports for the harness to report.
    drops: Arc<AtomicU64>,
    _values: PhantomData<fn() -> V>,
}

impl<V> std::fmt::Debug for TcpTransport<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("me", &self.me)
            .field("peers", &self.peers.len())
            .finish_non_exhaustive()
    }
}

impl<V> TcpTransport<V> {
    /// A transport for node `me` reaching the peers at `peers` (indexed
    /// by [`ProcessId::index`]). `drops` is the shared lost-message
    /// counter.
    pub fn new(
        me: ProcessId,
        peers: Vec<SocketAddr>,
        codec: WireCodec,
        drops: Arc<AtomicU64>,
    ) -> Self {
        let conns = peers.iter().map(|_| None).collect();
        TcpTransport {
            me,
            peers,
            conns,
            codec,
            drops,
            _values: PhantomData,
        }
    }

    fn connect(&self, to: usize) -> io::Result<TcpStream> {
        let mut last_err = None;
        for attempt in 0..CONNECT_ATTEMPTS {
            if attempt > 0 {
                std::thread::sleep(CONNECT_BACKOFF_BASE * (1 << (attempt - 1)));
            }
            match TcpStream::connect(self.peers[to]) {
                Ok(mut stream) => {
                    stream.set_nodelay(true)?;
                    let mut preamble = [0u8; 8];
                    preamble[..4].copy_from_slice(&PREAMBLE_MAGIC.to_le_bytes());
                    preamble[4..].copy_from_slice(&self.me.0.to_le_bytes());
                    stream.write_all(&preamble)?;
                    return Ok(stream);
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.expect("at least one connect attempt"))
    }

    fn write_to(&mut self, to: usize, frame: &[u8]) -> io::Result<()> {
        if self.conns[to].is_none() {
            self.conns[to] = Some(self.connect(to)?);
        }
        let stream = self.conns[to].as_mut().expect("just connected");
        write_frame(stream, frame)
    }
}

impl<V> Transport<StoreWire<V>> for TcpTransport<V>
where
    V: Payload + BulkCodec + Send + Sync,
{
    fn send(&mut self, _from: ProcessId, to: ProcessId, msg: StoreWire<V>) {
        let frame = self.codec.encode(&msg);
        let to = to.index();
        if to >= self.peers.len() {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        if self.write_to(to, &frame).is_ok() {
            return;
        }
        // The stream died (peer restarted, kernel buffer torn down):
        // reconnect once — with its own bounded backoff — then give the
        // message up as link loss.
        self.conns[to] = None;
        if self.write_to(to, &frame).is_err() {
            self.conns[to] = None;
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The inbound fabric: every node's listener plus the accept and reader
/// threads feeding decoded messages back into the hosting runtime.
///
/// Build with [`NetFabric::bind`] (which fixes the fleet's addresses),
/// spawn the runtime with [`TcpTransport`]s pointed at
/// [`NetFabric::addrs`], then call [`NetFabric::start`] with the
/// runtime's injectors. Dropping the fabric shuts every thread down;
/// drop the [`ThreadRuntime`](sbs_sim::ThreadRuntime) *first* so node
/// threads stop writing before their peers' readers vanish.
pub struct NetFabric {
    listeners: Vec<TcpListener>,
    addrs: Vec<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    /// Accepted streams, registered so shutdown can unblock their readers.
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    rejects: Arc<AtomicU64>,
    accept_handles: Vec<JoinHandle<()>>,
    reader_handles: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl std::fmt::Debug for NetFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetFabric")
            .field("nodes", &self.addrs.len())
            .finish_non_exhaustive()
    }
}

impl NetFabric {
    /// Binds one loopback listener per node and fixes the fleet's
    /// addresses (ephemeral ports — parallel deployments never collide).
    pub fn bind(nodes: usize) -> io::Result<Self> {
        let mut listeners = Vec::with_capacity(nodes);
        let mut addrs = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let listener = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }
        Ok(NetFabric {
            listeners,
            addrs,
            shutdown: Arc::new(AtomicBool::new(false)),
            accepted: Arc::new(Mutex::new(Vec::new())),
            rejects: Arc::new(AtomicU64::new(0)),
            accept_handles: Vec::new(),
            reader_handles: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The fleet's socket addresses, indexed by [`ProcessId::index`].
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// Frames that failed to decode (and the connections they killed).
    pub fn decode_rejects(&self) -> u64 {
        self.rejects.load(Ordering::Relaxed)
    }

    /// Starts the accept and reader threads, delivering every decoded
    /// inbound message to its node through `injectors` (one per node, in
    /// [`ProcessId`] order).
    ///
    /// # Panics
    ///
    /// Panics if `injectors` does not match the fleet bound by
    /// [`NetFabric::bind`], or if called twice.
    pub fn start<V>(
        &mut self,
        codec: WireCodec,
        injectors: Vec<MsgInjector<StoreWire<V>, StoreOut<V>>>,
    ) where
        V: Payload + BulkCodec + Send + Sync,
    {
        assert_eq!(
            injectors.len(),
            self.addrs.len(),
            "one injector per bound node"
        );
        assert!(
            !self.listeners.is_empty() || self.addrs.is_empty(),
            "fabric already started"
        );
        for (i, (listener, injector)) in self.listeners.drain(..).zip(injectors).enumerate() {
            let shutdown = Arc::clone(&self.shutdown);
            let accepted = Arc::clone(&self.accepted);
            let rejects = Arc::clone(&self.rejects);
            let reader_handles = Arc::clone(&self.reader_handles);
            let handle = std::thread::Builder::new()
                .name(format!("sbs-net-accept-{i}"))
                .spawn(move || loop {
                    let stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(_) => return,
                    };
                    if shutdown.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Ok(clone) = stream.try_clone() {
                        accepted.lock().expect("accepted registry").push(clone);
                    }
                    let injector = injector.clone();
                    let codec = codec;
                    let rejects = Arc::clone(&rejects);
                    let reader = std::thread::Builder::new()
                        .name(format!("sbs-net-read-{i}"))
                        .spawn(move || reader_main::<V>(stream, codec, injector, rejects))
                        .expect("failed to spawn reader thread");
                    reader_handles.lock().expect("reader registry").push(reader);
                })
                .expect("failed to spawn accept thread");
            self.accept_handles.push(handle);
        }
    }
}

impl Drop for NetFabric {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock readers: half-close every accepted stream.
        for stream in self.accepted.lock().expect("accepted registry").drain(..) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock accept threads: a throwaway connection each (they
        // re-check the shutdown flag right after accept returns).
        for addr in &self.addrs {
            let _ = TcpStream::connect(addr);
        }
        for handle in self.accept_handles.drain(..) {
            let _ = handle.join();
        }
        for handle in self
            .reader_handles
            .lock()
            .expect("reader registry")
            .drain(..)
        {
            let _ = handle.join();
        }
    }
}

/// One connection's read loop: preamble, then frames until the stream
/// closes or a frame refuses to decode. Reads go through a buffer, so a
/// small frame's prefix and payload cost one `read` call, not two;
/// `read_frame` still checks the announced length against `MAX_FRAME`
/// before it allocates.
fn reader_main<V>(
    stream: TcpStream,
    codec: WireCodec,
    injector: MsgInjector<StoreWire<V>, StoreOut<V>>,
    rejects: Arc<AtomicU64>,
) where
    V: Payload + BulkCodec + Send + Sync,
{
    let mut stream = BufReader::new(stream);
    let mut preamble = [0u8; 8];
    if stream.read_exact(&mut preamble).is_err() {
        return; // shutdown poke or stray connect — nothing was claimed
    }
    let magic = u32::from_le_bytes(preamble[..4].try_into().expect("4 bytes"));
    if magic != PREAMBLE_MAGIC {
        rejects.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let from = ProcessId(u32::from_le_bytes(
        preamble[4..].try_into().expect("4 bytes"),
    ));
    loop {
        let payload = match read_frame(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => return, // clean close
            Err(_) => {
                // Torn frame or an over-cap length prefix.
                rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        match codec.decode_payload::<V>(&payload) {
            Ok(msg) => injector.inject(from, msg),
            Err(_) => {
                // A peer speaking garbage loses its connection; if it
                // was an honest peer's torn write, it will reconnect.
                rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}
