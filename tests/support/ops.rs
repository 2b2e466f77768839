//! The one host-op generator the whole-SSD suites draw from: an
//! abstract [`Action`] over a small logical space, and the page-granular
//! [`Op`]s it expands to.

use proptest::prelude::*;

/// An abstract host action over a small logical space.
#[derive(Debug, Clone, Copy)]
pub enum Action {
    Write { lpa: u64, len: u64 },
    StridedWrite { lpa: u64, stride: u64, count: u64 },
    Read { lpa: u64 },
    Flush,
}

/// Short runs, strided bursts, reads and host flushes; addresses wrap
/// at the device's logical capacity when expanded.
pub fn action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0u64..1200, 1u64..12).prop_map(|(lpa, len)| Action::Write { lpa, len }),
        2 => (0u64..1000, 2u64..6, 2u64..16)
            .prop_map(|(lpa, stride, count)| Action::StridedWrite { lpa, stride, count }),
        3 => (0u64..1400).prop_map(|lpa| Action::Read { lpa }),
        1 => Just(Action::Flush),
    ]
}

/// One page-granular host operation.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `(lpa, content)`.
    Write(u64, u64),
    Read(u64),
    Flush,
}

/// Expands actions into page ops over `logical` pages; each write
/// carries the next `content`, so contents only grow across calls that
/// share the counter.
pub fn page_ops(actions: &[Action], logical: u64, content: &mut u64) -> Vec<Op> {
    let mut ops = Vec::new();
    let mut write = |lpa: u64, ops: &mut Vec<Op>| {
        *content += 1;
        ops.push(Op::Write(lpa % logical, *content));
    };
    for &action in actions {
        match action {
            Action::Write { lpa, len } => (0..len).for_each(|j| write(lpa + j, &mut ops)),
            Action::StridedWrite { lpa, stride, count } => {
                (0..count).for_each(|j| write(lpa + j * stride, &mut ops));
            }
            Action::Read { lpa } => ops.push(Op::Read(lpa % logical)),
            Action::Flush => ops.push(Op::Flush),
        }
    }
    ops
}
