//! Subdivided parallel computation, flat variant: an initiator scatters a
//! numeric range across all group members and folds the partial results.
//!
//! The work function is deliberately simple and verifiable: the task is to
//! compute `sum of f(i) for i in lo..hi`, with each member taking a
//! contiguous slice by view rank. The flat cost is one scatter + one gather
//! message per member, paid by the single initiator — the per-process load
//! the hierarchical variant (`crate::hier::parallel`) bounds by `fanout`.

use std::collections::BTreeMap;

use now_sim::Pid;

use isis_core::{Application, CastKind, GroupId, GroupView, Uplink};

/// The deterministic work kernel: cheap, non-trivial, verifiable.
pub fn kernel(i: u64) -> u64 {
    (i.wrapping_mul(2_654_435_761) % 1_000) + 1
}

/// Reference result for `lo..hi`, for test verification.
pub fn expected_sum(lo: u64, hi: u64) -> u64 {
    (lo..hi).map(kernel).sum()
}

/// Wire payload of the parallel-computation tool.
#[derive(Clone, Debug)]
pub enum ParMsg {
    /// Initiator → worker: compute `kernel` over `lo..hi` for `task`.
    Scatter { task: u64, lo: u64, hi: u64 },
    /// Worker → initiator: partial result.
    Gather { task: u64, partial: u64 },
}

/// A member of a parallel-computation group (any member may initiate).
#[derive(Default)]
pub struct FlatParallel {
    view: Option<GroupView>,
    next_task: u64,
    /// Initiator-side: per-task remaining worker count and running sum.
    collecting: BTreeMap<u64, (usize, u64)>,
    /// Completed tasks: task -> total.
    pub results: BTreeMap<u64, u64>,
}

impl FlatParallel {
    /// Creates an idle member.
    pub fn new() -> FlatParallel {
        FlatParallel::default()
    }

    /// Starts a computation over `lo..hi`, scattering slices to every
    /// member (including ourselves). Returns the task id, or `None` when
    /// no view is installed yet.
    pub fn run(&mut self, lo: u64, hi: u64, up: &mut Uplink<'_, '_, Self>) -> Option<u64> {
        let view = self.view.clone()?;
        assert!(hi >= lo);
        self.next_task += 1;
        let task = self.next_task * 1_000_000 + up.me().0 as u64;
        let n = view.size() as u64;
        let span = hi - lo;
        self.collecting.insert(task, (view.size(), 0));
        for (rank, &m) in view.members.iter().enumerate() {
            let s = lo + span * rank as u64 / n;
            let e = lo + span * (rank as u64 + 1) / n;
            up.direct(m, ParMsg::Scatter { task, lo: s, hi: e });
        }
        Some(task)
    }

    /// The total for a finished task.
    pub fn result(&self, task: u64) -> Option<u64> {
        self.results.get(&task).copied()
    }
}

impl Application for FlatParallel {
    type Payload = ParMsg;
    type State = ();

    fn on_direct(&mut self, from: Pid, payload: &ParMsg, up: &mut Uplink<'_, '_, Self>) {
        match payload {
            ParMsg::Scatter { task, lo, hi } => {
                let partial: u64 = (*lo..*hi).map(kernel).sum();
                up.direct(from, ParMsg::Gather { task: *task, partial });
            }
            ParMsg::Gather { task, partial } => {
                if let Some((left, sum)) = self.collecting.get_mut(task) {
                    *sum += partial;
                    *left -= 1;
                    if *left == 0 {
                        let total = *sum;
                        self.collecting.remove(task);
                        self.results.insert(*task, total);
                    }
                }
            }
        }
    }

    fn on_deliver(
        &mut self,
        _gid: GroupId,
        _from: Pid,
        _kind: CastKind,
        _payload: &ParMsg,
        _up: &mut Uplink<'_, '_, Self>,
    ) {
    }

    fn on_view(&mut self, view: &GroupView, _joined: bool, _up: &mut Uplink<'_, '_, Self>) {
        self.view = Some(view.clone());
    }

    fn payload_bytes(_p: &ParMsg) -> usize {
        32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_bounded() {
        assert_eq!(kernel(42), kernel(42));
        for i in 0..1_000 {
            let k = kernel(i);
            assert!((1..=1_000).contains(&k));
        }
    }

    #[test]
    fn expected_sum_is_additive() {
        assert_eq!(
            expected_sum(0, 100),
            expected_sum(0, 40) + expected_sum(40, 100)
        );
    }
}
