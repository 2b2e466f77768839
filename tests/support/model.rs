//! The host model every mapping scheme is held to: each LPA's newest
//! host write, kept beside an [`Ssd`] driven one page op at a time.
//! [`Model`] checks, exactly:
//!
//! - every read returns the newest host write;
//! - after every flush (host-issued or a full buffer's),
//!   [`Ssd::check_invariants`] finds nothing, and the newest flash copy
//!   of every LPA (by program sequence) is its newest host write. No
//!   data cache can mask this, and a recovery check alone cannot see it
//!   once GC has migrated a stale copy over the live one: the stale
//!   copy then *is* the newest on flash;
//! - after a power cut, every LPA reads exactly its newest flash copy,
//!   and the LPAs where that copy is not the newest write are exactly
//!   the buffered writes DRAM lost, each holding an older value.

#![allow(
    dead_code,
    reason = "each suite that includes this module drives the model its own way"
)]

use crate::flash_truth::{assert_recovered_matches, checked, flash_ground_truth, Contents};
use crate::ops::{action, page_ops, Action, Op};
use leaftl_repro::flash::Lpa;
use leaftl_repro::sim::{MappingScheme, Ssd};
use proptest::prelude::*;

/// One step of a history: host traffic (whose overwrites bring GC
/// passes and, for the learned schemes, compaction sweeps), a
/// persistence point, or a power cut.
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Host(Action),
    Persist,
    Crash,
}

pub fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        8 => action().prop_map(Step::Host),
        2 => Just(Step::Persist),
        1 => Just(Step::Crash),
    ]
}

/// An [`Ssd`] and what its host has written to it.
pub struct Model<S: MappingScheme + Clone> {
    ssd: Ssd<S>,
    /// Each LPA's newest write. Contents only grow, so an older write
    /// holds a smaller one.
    newest: Contents,
    content: u64,
    /// Data programs at the last look: a flush moves the count.
    programs: u64,
}

impl<S: MappingScheme + Clone> Model<S> {
    /// A model of `ssd`, whose write buffer is empty: each LPA's newest
    /// write is its newest copy on flash.
    pub fn new(ssd: Ssd<S>) -> Result<Self, TestCaseError> {
        let newest = flash_ground_truth(&ssd)?;
        Ok(Model {
            content: newest.iter().flatten().copied().max().unwrap_or(0),
            programs: ssd.stats().flash.data_programs,
            newest,
            ssd,
        })
    }

    pub fn ssd(&self) -> &Ssd<S> {
        &self.ssd
    }

    pub fn into_ssd(self) -> Ssd<S> {
        self.ssd
    }

    pub fn step(&mut self, step: Step) -> Result<(), TestCaseError> {
        let actions = match step {
            Step::Host(action) => vec![action],
            // A flush of at least one page first: under the log that
            // drains the generation in flight, so the point is not
            // skipped.
            Step::Persist => vec![
                Action::Write {
                    lpa: self.content,
                    len: 1,
                },
                Action::Flush,
            ],
            Step::Crash => return self.crash(),
        };
        let logical = self.ssd.config().logical_pages();
        for op in page_ops(&actions, logical, &mut self.content) {
            self.op(op)?;
        }
        if let Step::Persist = step {
            self.ssd.take_snapshot();
        }
        Ok(())
    }

    /// Reads every LPA.
    pub fn sweep(&mut self) -> Result<(), TestCaseError> {
        (0..self.newest.len() as u64).try_for_each(|lpa| self.op(Op::Read(lpa)))
    }

    fn op(&mut self, op: Op) -> Result<(), TestCaseError> {
        match op {
            Op::Write(lpa, content) => {
                checked(self.ssd.write(Lpa::new(lpa), content), "write")?;
                self.newest[lpa as usize] = Some(content);
            }
            Op::Read(lpa) => {
                let got = checked(self.ssd.read(Lpa::new(lpa)), "read")?;
                prop_assert_eq!(got, self.newest[lpa as usize], "read of lpa {}", lpa);
            }
            Op::Flush => checked(self.ssd.flush(), "flush")?,
        }
        let programs = self.ssd.stats().flash.data_programs;
        if programs != self.programs {
            self.programs = programs;
            // A flush drains the whole buffer.
            prop_assert_eq!(
                self.ssd.check_invariants(),
                Vec::<String>::new(),
                "after a flush"
            );
            let stale = self.differences(&flash_ground_truth(&self.ssd)?);
            prop_assert!(
                stale.is_empty(),
                "newest copy is not the newest write: {stale:?}"
            );
        }
        Ok(())
    }

    fn crash(&mut self) -> Result<(), TestCaseError> {
        let (report, truth) = assert_recovered_matches(&mut self.ssd, "power cut")?;
        let lost = self.differences(&truth);
        prop_assert!(
            lost.len() == report.lost_buffered_writes
                && lost.iter().all(|&(_, durable, newest)| durable < newest),
            "{} buffered writes lost, but (lpa, durable, newest) {:?}",
            report.lost_buffered_writes,
            lost
        );
        self.newest = truth;
        self.programs = self.ssd.stats().flash.data_programs;
        Ok(())
    }

    /// `(lpa, flash, newest write)` wherever `flash` is not the newest
    /// write.
    fn differences(&self, flash: &Contents) -> Vec<(usize, Option<u64>, Option<u64>)> {
        let pairs = flash.iter().zip(&self.newest).enumerate();
        pairs
            .filter(|(_, (a, b))| a != b)
            .map(|(lpa, (&a, &b))| (lpa, a, b))
            .collect()
    }
}

/// Runs `steps` on `ssd` under the model, then reads every LPA; returns
/// the model for what the history must have exercised.
pub fn check_model<S: MappingScheme + Clone>(
    ssd: Ssd<S>,
    steps: &[Step],
) -> Result<Model<S>, TestCaseError> {
    let mut model = Model::new(ssd)?;
    for &step in steps {
        model.step(step)?;
    }
    model.sweep()?;
    Ok(model)
}
