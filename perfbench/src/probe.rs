//! The benchmark's business application: it logs every large-group
//! broadcast it delivers and reports deliveries and admissions
//! to the harness over a channel, stamped with the protocol clock. That is
//! how per-operation latencies are observed without any instrumentation
//! inside the stack.

use std::marker::PhantomData;
use std::sync::mpsc::Sender;

use isis_apps::trading::{Quote, QUOTE_BYTES};
use isis_core::GroupId;
use isis_hier::{LargeApp, LargeGroupId, LargeUplink};
use now_sim::Pid;

/// What a [`Desk`] tells the harness.
#[derive(Debug)]
pub enum Note {
    /// A broadcast with this tag was delivered at `pid`.
    Delivered {
        /// The payload's tag.
        tag: u64,
        /// Receiving process.
        pid: Pid,
        /// Protocol clock at delivery, microseconds.
        at_us: u64,
    },
    /// `pid` completed admission to the large group.
    Joined {
        /// Admitted process.
        pid: Pid,
        /// Protocol clock at admission, microseconds.
        at_us: u64,
    },
}

/// A broadcast payload the harness can recognise.
pub trait Tagged: Clone + std::fmt::Debug + Send + Sync + 'static {
    /// The operation this payload belongs to.
    fn tag(&self) -> u64;
    /// Estimated wire bytes.
    fn bytes(&self) -> usize;
}

impl Tagged for Quote {
    fn tag(&self) -> u64 {
        self.seq
    }

    fn bytes(&self) -> usize {
        QUOTE_BYTES
    }
}

/// Text payloads are `"<label>:<tag>"`.
impl Tagged for String {
    fn tag(&self) -> u64 {
        self.rsplit(':')
            .next()
            .and_then(|t| t.parse().ok())
            .unwrap_or(u64::MAX)
    }

    fn bytes(&self) -> usize {
        self.len()
    }
}

/// The business application of every benchmark process.
pub struct Desk<Q> {
    tx: Sender<Note>,
    /// Tags of the delivered broadcasts, in delivery order.
    pub log: Vec<u64>,
    _q: PhantomData<fn() -> Q>,
}

impl<Q> Desk<Q> {
    /// A desk reporting to `tx`.
    pub fn new(tx: Sender<Note>) -> Desk<Q> {
        Desk {
            tx,
            log: Vec::new(),
            _q: PhantomData,
        }
    }

    fn note(&self, n: Note) {
        // The harness may have hung up after a failed run; nothing to do.
        let _ = self.tx.send(n);
    }
}

impl<Q: Tagged> LargeApp for Desk<Q> {
    type Payload = Q;
    /// A joining member learns how many broadcasts its leaf had delivered.
    type LeafState = u64;

    fn on_lbcast(
        &mut self,
        _lgid: LargeGroupId,
        _origin: Pid,
        payload: &Q,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        let tag = payload.tag();
        self.log.push(tag);
        self.note(Note::Delivered {
            tag,
            pid: up.me(),
            at_us: up.now().as_micros(),
        });
    }

    fn on_joined_large(
        &mut self,
        _lgid: LargeGroupId,
        _leaf: GroupId,
        up: &mut LargeUplink<'_, '_, '_, Self>,
    ) {
        self.note(Note::Joined {
            pid: up.me(),
            at_us: up.now().as_micros(),
        });
    }

    fn export_leaf_state(&self, _lgid: LargeGroupId, _leaf: GroupId) -> u64 {
        self.log.len() as u64
    }

    fn payload_bytes(p: &Q) -> usize {
        p.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_tags_parse_after_the_last_colon() {
        assert_eq!("c:17".to_string().tag(), 17);
        assert_eq!("q:3:42".to_string().tag(), 42);
        assert_eq!("untagged".to_string().tag(), u64::MAX);
    }
}
