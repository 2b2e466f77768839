//! Simulator error type.

use leaftl_flash::{FlashError, Lpa, Ppa};
use std::error::Error;
use std::fmt;

/// Errors surfaced by the simulated SSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Host address beyond the advertised logical capacity.
    LpaOutOfRange(Lpa),
    /// No free blocks remain and GC cannot reclaim any — the device is
    /// over-filled (should not happen with sane over-provisioning).
    DeviceFull,
    /// A NAND-level invariant was violated (FTL logic bug).
    Flash(FlashError),
    /// An address prediction could not be resolved to a valid page
    /// within its error bound (mapping-table logic bug).
    MappingCorruption {
        /// The LPA being translated.
        lpa: Lpa,
        /// The predicted PPA that failed to resolve.
        predicted: Ppa,
    },
    /// A block being relocated (a GC victim, a wear swap's cold block)
    /// holds a valid page whose OOB names no LPA — only translation-log
    /// pages are programmed that way (FTL logic bug).
    MissingReverseMapping {
        /// The valid page without a reverse mapping.
        ppa: Ppa,
    },
    /// A command was submitted to a submission queue the device does
    /// not have.
    UnknownQueue(usize),
    /// An open-loop trace names more distinct streams than the device
    /// config has submission queues — silently aliasing tenants onto
    /// shared queues would corrupt per-tenant attribution, so the
    /// replay refuses instead.
    StreamsExceedQueues {
        /// Distinct streams in the trace.
        streams: usize,
        /// Submission queues in the device config.
        queues: usize,
    },
    /// The device scheduler has work pending but found nothing to
    /// dispatch and no completion, arrival or erase to wait for — a
    /// scheduling invariant is broken (device logic bug). The device is
    /// poisoned rather than left spinning.
    DispatchStalled {
        /// Virtual time at which the scheduler wedged.
        now_ns: u64,
        /// Host commands still pending.
        pending: usize,
    },
    /// A GC migration or translation-log write — internal
    /// traffic that submission rejects — reached the head of a host
    /// submission queue (device logic bug).
    BackgroundCommandInHostQueue {
        /// The host queue it was found in.
        queue: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::LpaOutOfRange(lpa) => {
                write!(f, "logical address {lpa} beyond device capacity")
            }
            SimError::DeviceFull => write!(f, "no reclaimable space left on device"),
            SimError::Flash(e) => write!(f, "flash invariant violated: {e}"),
            SimError::MappingCorruption { lpa, predicted } => write!(
                f,
                "mapping corruption: {lpa} predicted at {predicted} but not found within bound"
            ),
            SimError::MissingReverseMapping { ppa } => write!(
                f,
                "valid page {ppa} of a relocated block carries no reverse mapping"
            ),
            SimError::UnknownQueue(queue) => {
                write!(f, "submission queue {queue} does not exist")
            }
            SimError::StreamsExceedQueues { streams, queues } => write!(
                f,
                "trace names {streams} distinct streams but the device has only {queues} \
                 submission queues — raise `DeviceConfig::queues` to at least the stream count"
            ),
            SimError::DispatchStalled { now_ns, pending } => write!(
                f,
                "dispatch stalled at {now_ns} ns with {pending} host commands pending \
                 and nothing to wait for"
            ),
            SimError::BackgroundCommandInHostQueue { queue } => write!(
                f,
                "background command at the head of host submission queue {queue}"
            ),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Flash(e) => Some(e),
            SimError::LpaOutOfRange(_)
            | SimError::DeviceFull
            | SimError::MappingCorruption { .. }
            | SimError::MissingReverseMapping { .. }
            | SimError::UnknownQueue(_)
            | SimError::StreamsExceedQueues { .. }
            | SimError::DispatchStalled { .. }
            | SimError::BackgroundCommandInHostQueue { .. } => None,
        }
    }
}

impl From<FlashError> for SimError {
    fn from(e: FlashError) -> Self {
        SimError::Flash(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::Flash(FlashError::ReadErased(Ppa::new(3)));
        assert!(e.to_string().contains("flash"));
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&SimError::DeviceFull).is_none());
        assert!(!SimError::LpaOutOfRange(Lpa::new(1)).to_string().is_empty());
    }
}
