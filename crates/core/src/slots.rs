//! Copy-on-write slots that list which of them changed.
//!
//! The shape both table-backed schemes keep their mapping in: one slot
//! per id (a 256-LPA group for [`crate::LeaFtlTable`], a 512-entry
//! translation page for the page-level baselines), each value behind an
//! [`Arc`] so that a clone copies pointers and the first write to a
//! value another copy still holds copies that one value
//! ([`Arc::make_mut`]).
//!
//! The one way to write — [`CowSlots::make_mut`] — also lists the slot,
//! once, so a copy kept from an earlier moment (the recovery baseline of
//! a persistence point, §3.8) is brought up to date by
//! [`CowSlots::sync`] re-pointing exactly the listed slots: the cost of
//! what changed since, not of the table.

use std::sync::Arc;

#[cfg(test)]
thread_local! {
    /// Walks over every slot ([`CowSlots::iter`]) on this thread. Unit
    /// tests bound what a translation costs with it.
    pub(crate) static WALKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Values indexed by a dense id, shared copy-on-write between clones,
/// with a list of the slots written since the last [`CowSlots::sync`].
#[derive(Debug, Clone)]
pub struct CowSlots<T> {
    /// Indexed by id, grown to the highest id ever written; `None` for
    /// an id nothing was written to. Each value is shared with every
    /// clone that has not diverged in it.
    slots: Vec<Option<Arc<T>>>,
    /// Number of values held (`Some` slots).
    held: usize,
    /// Ids of the slots created or taken through [`Arc::make_mut`]
    /// since the last sync — exactly the slots `changed_mark` flags,
    /// each once, so the list never outgrows the table.
    changed: Vec<u64>,
    changed_mark: Vec<bool>,
}

impl<T> Default for CowSlots<T> {
    fn default() -> Self {
        CowSlots {
            slots: Vec::new(),
            held: 0,
            changed: Vec::new(),
            changed_mark: Vec::new(),
        }
    }
}

impl<T: Clone> CowSlots<T> {
    /// The value at `id`, `None` when nothing was written there.
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(usize::try_from(id).ok()?)?.as_deref()
    }

    /// The value at `id` for writing: created by `init` when absent,
    /// separated from whatever clone still shares it, and listed as
    /// changed.
    pub fn make_mut(&mut self, id: u64, init: impl FnOnce() -> T) -> &mut T {
        let index = id as usize;
        if self.slots.len() <= index {
            self.slots.resize(index + 1, None);
            self.changed_mark.resize(index + 1, false);
        }
        if !self.changed_mark[index] {
            self.changed_mark[index] = true;
            self.changed.push(id);
        }
        let slot = &mut self.slots[index];
        if slot.is_none() {
            self.held += 1;
        }
        Arc::make_mut(slot.get_or_insert_with(|| Arc::new(init())))
    }

    /// The held values with their ids, ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        #[cfg(test)]
        WALKS.with(|walks| walks.set(walks.get() + 1));
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(id, slot)| Some((id as u64, slot.as_deref()?)))
    }

    /// Number of values held.
    pub fn held(&self) -> usize {
        self.held
    }

    /// Highest id ever written, plus one.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether nothing was ever written.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Brings `checkpoint` — what `self` was when this last ran on it,
    /// or any clone of `self` taken since — up to date, as
    /// `*checkpoint = self.clone()` would, by re-pointing the slots
    /// listed since and forgetting them (and whatever a clone had
    /// listed itself). Returns how many slots it wrote.
    pub fn sync(&mut self, checkpoint: &mut CowSlots<T>) -> usize {
        if checkpoint.slots.len() < self.slots.len() {
            checkpoint.slots.resize(self.slots.len(), None);
            checkpoint.changed_mark.resize(self.slots.len(), false);
        }
        for id in checkpoint.changed.drain(..) {
            checkpoint.changed_mark[id as usize] = false;
        }
        let written = self.changed.len();
        for id in self.changed.drain(..) {
            let index = id as usize;
            checkpoint.slots[index].clone_from(&self.slots[index]);
            self.changed_mark[index] = false;
        }
        checkpoint.held = self.held;
        written
    }

    /// Whether `other` is what `self.clone()` would be right after a
    /// sync: the same values at the same addresses, nothing listed.
    /// What debug builds hold every sync to.
    pub fn same_state(&self, other: &CowSlots<T>) -> bool {
        self.held == other.held
            && self.changed.is_empty()
            && other.changed.is_empty()
            && self.changed_mark == other.changed_mark
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(|pair| match pair {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per slot of `a`, whether `b` holds the very same value.
    fn shared(a: &CowSlots<u32>, b: &CowSlots<u32>) -> Vec<bool> {
        (0..a.len() as u64)
            .map(|id| matches!((a.get(id), b.get(id)), (Some(x), Some(y)) if std::ptr::eq(x, y)))
            .collect()
    }

    #[test]
    fn writes_copy_what_is_shared_and_sync_re_points_what_was_written() {
        let mut live: CowSlots<u32> = CowSlots::default();
        for id in [0, 1, 3] {
            *live.make_mut(id, || 0) = 10 + id as u32;
        }
        assert_eq!((live.held(), live.len()), (3, 4));
        assert_eq!(live.get(2), None);
        assert_eq!(live.get(u64::MAX), None);
        assert_eq!(
            live.iter().collect::<Vec<_>>(),
            [(0, &10), (1, &11), (3, &13)]
        );

        // A clone taken mid-round shares everything and is a valid
        // checkpoint: the live list only grows until the next sync.
        let mut kept = live.clone();
        assert_eq!(shared(&live, &kept), [true, true, false, true]);
        *live.make_mut(1, || 0) += 100;
        *live.make_mut(1, || 0) += 100;
        *live.make_mut(5, || 7) += 1;
        assert_eq!(
            shared(&live, &kept),
            [true, false, false, true, false, false]
        );
        assert_eq!(kept.get(1), Some(&11), "the clone did not follow");
        let held = kept.clone();
        assert_eq!(live.sync(&mut kept), 4, "0, 1, 3 and 5, each once");
        assert!(live.same_state(&kept));
        assert_eq!(kept.get(1), Some(&211));
        assert_eq!(kept.get(5), Some(&8));
        assert_eq!(held.get(1), Some(&11), "nor did a copy of the kept one");
        assert_eq!(live.sync(&mut kept), 0, "nothing changed since");

        // With the other copies gone a write copies nothing.
        drop((kept, held));
        let before = live.get(3).unwrap() as *const u32;
        *live.make_mut(3, || 0) = 1;
        assert_eq!(before, live.get(3).unwrap() as *const u32);

        // A table restored from a clone of its checkpoint is in step.
        let mut kept = live.clone();
        live.sync(&mut kept);
        let mut restored = kept.clone();
        *restored.make_mut(0, || 0) = 99;
        assert_eq!(restored.sync(&mut kept), 1);
        assert!(restored.same_state(&kept));
    }
}
