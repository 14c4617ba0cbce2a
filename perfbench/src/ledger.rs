//! The per-layer ledger: a benchmark-side [`Process`] wrapper that times
//! every call the engine makes into a hosted process and books it under a
//! bucket named after the message variant or timer class.
//!
//! Bucket keys come from the `Debug` output of the message, never from an
//! exhaustive `match`: a protocol change that adds, renames or removes a
//! variant gets its own bucket with no edit here. Only the leading
//! identifiers of the `Debug` output are read; formatting stops at the
//! first field, so a large message costs no more to classify than a small
//! one.
//!
//! The ledger lives in a thread-local, since a simulation runs on one
//! thread. It is off unless [`set_enabled`] turned it on, so the untraced
//! run pays one flag test per callback.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::{self, Debug, Write};
use std::time::Instant;

use isis_core::process::APP_TIMER_BASE;
use isis_core::IsisMsg;
use now_sim::{Ctx, Pid, Process, TimerId};

/// Counts and inclusive handler time of one bucket.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Acc {
    /// Handler invocations.
    pub n: u64,
    /// Summed handler wall time, nanoseconds.
    pub ns: u64,
    /// Summed estimated wire bytes of the delivered messages.
    pub bytes: u64,
    /// Largest single message, estimated wire bytes.
    pub max_bytes: u64,
}

impl Acc {
    fn add(&mut self, ns: u64, bytes: u64) {
        self.n += 1;
        self.ns += ns;
        self.bytes += bytes;
        self.max_bytes = self.max_bytes.max(bytes);
    }

    /// Summed handler time in seconds.
    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Everything one thread's ledger recorded.
#[derive(Clone, Debug, Default)]
pub struct Ledger {
    /// Per bucket key (`core.Heartbeat`, `hier.Ctl.HierPush`, `core.timer`,
    /// `start`, ...).
    pub buckets: BTreeMap<String, Acc>,
    /// Messages handed to a process.
    pub deliveries: u64,
    /// Timers fired into a process.
    pub timer_fires: u64,
}

impl Ledger {
    /// Summed handler time over every bucket, nanoseconds.
    pub fn handler_ns(&self) -> u64 {
        self.buckets.values().map(|a| a.ns).sum()
    }

    /// Per-bucket difference `self - earlier` (for windows inside a run).
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        let mut out = self.clone();
        for (k, a) in &earlier.buckets {
            if let Some(e) = out.buckets.get_mut(k) {
                e.n -= a.n;
                e.ns -= a.ns;
                e.bytes -= a.bytes;
            }
        }
        out.deliveries -= earlier.deliveries;
        out.timer_fires -= earlier.timer_fires;
        out
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static LEDGER: RefCell<Ledger> = RefCell::new(Ledger::default());
}

/// Turns this thread's ledger on or off.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Takes this thread's ledger, leaving an empty one.
pub fn take() -> Ledger {
    LEDGER.with(|l| std::mem::take(&mut *l.borrow_mut()))
}

/// A copy of this thread's ledger so far.
pub fn snapshot() -> Ledger {
    LEDGER.with(|l| l.borrow().clone())
}

fn book(key: &str, ns: u64, bytes: u64) {
    LEDGER.with(|l| {
        let mut l = l.borrow_mut();
        match l.buckets.get_mut(key) {
            Some(a) => a.add(ns, bytes),
            None => {
                let mut a = Acc::default();
                a.add(ns, bytes);
                l.buckets.insert(key.to_owned(), a);
            }
        }
    });
}

/// A fixed-capacity key buffer; bucket keys never allocate on the hot path.
#[derive(Clone)]
pub struct KeyBuf {
    buf: [u8; 96],
    len: usize,
}

impl Default for KeyBuf {
    fn default() -> KeyBuf {
        KeyBuf {
            buf: [0; 96],
            len: 0,
        }
    }
}

impl KeyBuf {
    /// The key text.
    pub fn as_str(&self) -> &str {
        // Only ASCII identifier bytes and '.' are ever pushed.
        std::str::from_utf8(&self.buf[..self.len]).unwrap_or("?")
    }

    fn push(&mut self, s: &str) {
        for &b in s.as_bytes() {
            if self.len < self.buf.len() {
                self.buf[self.len] = b;
                self.len += 1;
            }
        }
    }
}

/// Collects the leading identifier path of a `Debug` rendering:
/// `Tree(Forward { .. })` gives `["Tree", "Forward"]`, `Heartbeat { .. }`
/// gives `["Heartbeat"]`. Formatting is aborted (by returning an error) as
/// soon as the path ends or `max` identifiers were read.
struct PathSink {
    segs: [(usize, usize); 4],
    nsegs: usize,
    max: usize,
    text: [u8; 96],
    len: usize,
    in_ident: bool,
}

impl PathSink {
    fn new(max: usize) -> PathSink {
        PathSink {
            segs: [(0, 0); 4],
            nsegs: 0,
            max: max.min(4),
            text: [0; 96],
            len: 0,
            in_ident: false,
        }
    }

    fn close_ident(&mut self) {
        if self.in_ident {
            self.in_ident = false;
            self.segs[self.nsegs].1 = self.len;
            self.nsegs += 1;
        }
    }

    fn seg(&self, i: usize) -> Option<&str> {
        let (a, b) = *self.segs.get(i).filter(|_| i < self.nsegs)?;
        std::str::from_utf8(&self.text[a..b]).ok()
    }
}

impl Write for PathSink {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for c in s.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                if !self.in_ident {
                    self.in_ident = true;
                    self.segs[self.nsegs].0 = self.len;
                }
                if self.len == self.text.len() {
                    return Err(fmt::Error);
                }
                self.text[self.len] = c as u8;
                self.len += 1;
            } else {
                self.close_ident();
                // Only a tuple-variant opening continues the path.
                if c != '(' || self.nsegs >= self.max {
                    return Err(fmt::Error);
                }
            }
        }
        Ok(())
    }
}

/// Appends the leading identifiers (at most `max`) of `v`'s `Debug`
/// rendering to `out`, joined by dots.
fn write_path<T: Debug + ?Sized>(v: &T, max: usize, out: &mut KeyBuf) {
    let mut sink = PathSink::new(max);
    let _ = write!(sink, "{v:?}");
    sink.close_ident();
    for i in 0..sink.nsegs {
        if i > 0 {
            out.push(".");
        }
        out.push(sink.seg(i).unwrap_or("?"));
    }
}

/// Bucket key of a hierarchical payload: `hier.<Tree|Ctl|Cmd>.<Variant>`,
/// or `hier.Biz` for a business payload (whatever its own shape).
pub fn hier_key<Q: Debug + ?Sized>(payload: &Q, out: &mut KeyBuf) {
    out.push("hier.");
    let mut path = KeyBuf::default();
    write_path(payload, 2, &mut path);
    let path = path.as_str();
    let biz = path == "Biz" || path.starts_with("Biz.");
    out.push(if biz { "Biz" } else { path });
}

/// Bucket key of a message of the ISIS stack. Casts and direct messages
/// carry hierarchical payloads and are booked under the payload's variant;
/// every other message is `core.<Variant>`.
pub fn msg_key<Q: Debug, S: Debug>(m: &IsisMsg<Q, S>) -> KeyBuf {
    let mut out = KeyBuf::default();
    if let IsisMsg::Cast(c) = m {
        hier_key(&c.payload, &mut out);
    } else if let IsisMsg::Direct(p) = m {
        hier_key(p, &mut out);
    } else {
        out.push("core.");
        write_path(m, 1, &mut out);
    }
    out
}

/// Bucket key of a timer: `core.timer` for the ISIS runtime's own kinds,
/// `hier.timer` for application kinds (the hierarchy's housekeeping and
/// business timers).
pub fn timer_key(kind: u32) -> &'static str {
    if kind >= APP_TIMER_BASE {
        "hier.timer"
    } else {
        "core.timer"
    }
}

/// A message type the ledger can classify.
pub trait Classify {
    /// The bucket key of this message.
    fn key(&self) -> KeyBuf;
}

impl<Q: Debug, S: Debug> Classify for IsisMsg<Q, S> {
    fn key(&self) -> KeyBuf {
        msg_key(self)
    }
}

/// Benchmark-side wrapper around a hosted process. With the ledger off it
/// only forwards; with it on it books every callback's wall time.
pub struct Ledgered<P: Process> {
    inner: P,
}

impl<P: Process> Ledgered<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Ledgered<P> {
        Ledgered { inner }
    }

    /// The wrapped process.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The wrapped process, mutably (harness entry points).
    pub fn inner_mut(&mut self) -> &mut P {
        &mut self.inner
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<P: Process> Process for Ledgered<P>
where
    P::Msg: Classify,
{
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg>) {
        if !enabled() {
            return self.inner.on_start(ctx);
        }
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        book("start", elapsed_ns(t0), 0);
    }

    fn on_message(&mut self, from: Pid, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>) {
        if !enabled() {
            return self.inner.on_message(from, msg, ctx);
        }
        let key = msg.key();
        let bytes = if key.as_str().starts_with("hier.Ctl.") {
            P::wire_size(&msg) as u64
        } else {
            0
        };
        let t0 = Instant::now();
        self.inner.on_message(from, msg, ctx);
        let ns = elapsed_ns(t0);
        book(key.as_str(), ns, bytes);
        LEDGER.with(|l| l.borrow_mut().deliveries += 1);
    }

    fn on_timer(&mut self, id: TimerId, kind: u32, ctx: &mut Ctx<'_, Self::Msg>) {
        if !enabled() {
            return self.inner.on_timer(id, kind, ctx);
        }
        let t0 = Instant::now();
        self.inner.on_timer(id, kind, ctx);
        book(timer_key(kind), elapsed_ns(t0), 0);
        LEDGER.with(|l| l.borrow_mut().timer_fires += 1);
    }

    fn wire_size(msg: &Self::Msg) -> usize {
        P::wire_size(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug)]
    #[allow(dead_code)]
    enum FakeCtl {
        HierPush { view: Vec<u32>, propagate: bool },
        BrandNewVariant(u8),
        Unit,
    }

    #[derive(Debug)]
    #[allow(dead_code)]
    enum FakePayload {
        Biz(String),
        Ctl(FakeCtl),
    }

    #[derive(Debug)]
    #[allow(dead_code)]
    enum FakeCore {
        Heartbeat { gid: u32 },
        AddedLater(u64, u64),
    }

    fn hkey(p: &FakePayload) -> String {
        let mut k = KeyBuf::default();
        hier_key(p, &mut k);
        k.as_str().to_owned()
    }

    fn path(v: &impl Debug, max: usize) -> String {
        let mut k = KeyBuf::default();
        write_path(v, max, &mut k);
        k.as_str().to_owned()
    }

    #[test]
    fn the_path_reads_only_leading_identifiers() {
        let p = FakePayload::Ctl(FakeCtl::HierPush {
            view: vec![1, 2, 3],
            propagate: true,
        });
        assert_eq!(path(&p, 4), "Ctl.HierPush");
        assert_eq!(path(&p, 1), "Ctl");
        assert_eq!(path(&FakeCtl::Unit, 4), "Unit");
    }

    #[test]
    fn a_new_variant_lands_in_its_own_bucket_without_a_code_change() {
        // Neither `BrandNewVariant` nor `AddedLater` is named anywhere in
        // the ledger: the key comes from the Debug rendering alone.
        assert_eq!(
            hkey(&FakePayload::Ctl(FakeCtl::BrandNewVariant(7))),
            "hier.Ctl.BrandNewVariant"
        );
        assert_eq!(hkey(&FakePayload::Biz("x".into())), "hier.Biz");
        let direct: IsisMsg<FakePayload, ()> = IsisMsg::Direct(FakePayload::Ctl(FakeCtl::Unit));
        assert_eq!(msg_key(&direct).as_str(), "hier.Ctl.Unit");
        assert_eq!(path(&FakeCore::AddedLater(1, 2), 1), "AddedLater");
        assert_eq!(path(&FakeCore::Heartbeat { gid: 3 }, 1), "Heartbeat");
    }

    #[test]
    fn real_protocol_messages_are_keyed_by_variant() {
        use isis_core::GroupId;
        use isis_hier::{CtlMsg, HierPayload, LargeGroupId};
        let m: IsisMsg<HierPayload<String>, ()> = IsisMsg::JoinReq { gid: GroupId(4) };
        assert_eq!(msg_key(&m).as_str(), "core.JoinReq");
        let m: IsisMsg<HierPayload<String>, ()> =
            IsisMsg::Direct(HierPayload::Ctl(CtlMsg::JoinLargeReq {
                lgid: LargeGroupId(1),
            }));
        assert_eq!(msg_key(&m).as_str(), "hier.Ctl.JoinLargeReq");
        assert_eq!(timer_key(1), "core.timer");
        assert_eq!(timer_key(APP_TIMER_BASE + 3), "hier.timer");
    }

    #[test]
    fn since_subtracts_an_earlier_snapshot() {
        let mut a = Ledger::default();
        a.buckets.insert(
            "k".into(),
            Acc {
                n: 5,
                ns: 50,
                bytes: 0,
                max_bytes: 0,
            },
        );
        a.deliveries = 5;
        let mut b = a.clone();
        if let Some(x) = b.buckets.get_mut("k") {
            x.add(10, 0);
        }
        b.deliveries = 6;
        let d = b.since(&a);
        assert_eq!(d.buckets["k"].n, 1);
        assert_eq!(d.buckets["k"].ns, 10);
        assert_eq!(d.deliveries, 1);
    }
}
