//! Differential test for [`FlashDevice`]'s page storage.
//!
//! The reference below is the layout the device started with: three
//! vectors per block (content, reverse mapping, program sequence)
//! behind a write pointer and an erase count. Arbitrary sequences of
//! programs, reads, peeks, erases, block scans and OOB-window reads —
//! legal and illegal — must get the same answer, error for error, from
//! the device as from the reference, whatever the device keeps its
//! pages in.

#![expect(
    clippy::expect_used,
    reason = "a test: a step that fails should fail it with its message"
)]

use leaftl_repro::flash::{BlockId, FlashDevice, FlashError, FlashGeometry, Lpa, PageState, Ppa};
use proptest::collection::vec;
use proptest::prelude::*;

const BLOCKS: u64 = 6;
const PAGES_PER_BLOCK: u32 = 8;
const ENDURANCE: u32 = 3;
const GAMMAS: [u32; 3] = [0, 1, 16];

fn geometry() -> FlashGeometry {
    FlashGeometry {
        channels: 2,
        dies_per_channel: 1,
        blocks: BLOCKS,
        pages_per_block: PAGES_PER_BLOCK,
        page_size: 4096,
        oob_size: 256,
        endurance: ENDURANCE,
    }
}

/// One block of the reference: per-page vectors, valid below the write
/// pointer.
#[derive(Debug, Clone)]
struct RefBlock {
    contents: Vec<u64>,
    lpas: Vec<Option<Lpa>>,
    seqs: Vec<u64>,
    write_ptr: u32,
    erase_count: u32,
}

#[derive(Debug)]
struct Reference {
    blocks: Vec<RefBlock>,
    program_seq: u64,
    reads: u64,
    programs: u64,
    erases: u64,
}

impl Reference {
    fn new() -> Self {
        let block = RefBlock {
            contents: vec![0; PAGES_PER_BLOCK as usize],
            lpas: vec![None; PAGES_PER_BLOCK as usize],
            seqs: vec![0; PAGES_PER_BLOCK as usize],
            write_ptr: 0,
            erase_count: 0,
        };
        Reference {
            blocks: vec![block; BLOCKS as usize],
            program_seq: 0,
            reads: 0,
            programs: 0,
            erases: 0,
        }
    }

    /// `(block, page)` of an in-range PPA.
    fn locate(ppa: u64) -> Option<(usize, usize)> {
        (ppa < BLOCKS * PAGES_PER_BLOCK as u64).then(|| {
            (
                (ppa / PAGES_PER_BLOCK as u64) as usize,
                (ppa % PAGES_PER_BLOCK as u64) as usize,
            )
        })
    }

    fn program(&mut self, ppa: u64, content: u64, lpa: Option<Lpa>) -> Result<(), FlashError> {
        let (b, page) = Self::locate(ppa).ok_or(FlashError::OutOfRange(Ppa::new(ppa)))?;
        let block = &mut self.blocks[b];
        if block.erase_count >= ENDURANCE {
            return Err(FlashError::WornOut(BlockId::new(b as u64)));
        }
        if (page as u32) < block.write_ptr {
            return Err(FlashError::ProgramNonFree(Ppa::new(ppa)));
        }
        if page as u32 != block.write_ptr {
            return Err(FlashError::NonSequentialProgram {
                requested: Ppa::new(ppa),
                expected: Ppa::new(b as u64 * PAGES_PER_BLOCK as u64 + block.write_ptr as u64),
            });
        }
        self.program_seq += 1;
        block.contents[page] = content;
        block.lpas[page] = lpa;
        block.seqs[page] = self.program_seq;
        block.write_ptr += 1;
        self.programs += 1;
        Ok(())
    }

    /// `(content, lpa, seq)` of a programmed page.
    fn page(&self, ppa: u64) -> Option<(u64, Option<Lpa>, u64)> {
        let (b, page) = Self::locate(ppa)?;
        let block = &self.blocks[b];
        ((page as u32) < block.write_ptr)
            .then(|| (block.contents[page], block.lpas[page], block.seqs[page]))
    }

    fn read(&mut self, ppa: u64) -> Result<(u64, Option<Lpa>, u64), FlashError> {
        if Self::locate(ppa).is_none() {
            return Err(FlashError::OutOfRange(Ppa::new(ppa)));
        }
        self.reads += 1;
        self.page(ppa).ok_or(FlashError::ReadErased(Ppa::new(ppa)))
    }

    fn erase(&mut self, block: u64) -> Result<u32, FlashError> {
        if block >= BLOCKS {
            return Err(FlashError::BlockOutOfRange(BlockId::new(block)));
        }
        let state = &mut self.blocks[block as usize];
        if state.erase_count >= ENDURANCE {
            return Err(FlashError::WornOut(BlockId::new(block)));
        }
        state.write_ptr = 0;
        state.erase_count += 1;
        self.erases += 1;
        Ok(state.erase_count)
    }

    /// The window's entries for deltas `−γ ..= γ`: null beyond either
    /// end of the block and over unprogrammed neighbours.
    fn window(&self, ppa: u64, gamma: u32) -> Option<Vec<Option<Lpa>>> {
        self.page(ppa)?;
        let (b, page) = Self::locate(ppa)?;
        let block = &self.blocks[b];
        Some(
            (-(gamma as i64)..=gamma as i64)
                .map(|delta| {
                    let neighbour = page as i64 + delta;
                    if neighbour < 0 || neighbour >= block.write_ptr as i64 {
                        return None;
                    }
                    block.lpas[neighbour as usize]
                })
                .collect(),
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Program the next free page of a block (the legal program).
    Append {
        block: u64,
        lpa: u64,
        metadata: bool,
    },
    /// Program an arbitrary page (mostly illegal).
    Program {
        ppa: u64,
        lpa: u64,
    },
    Read(u64),
    Peek(u64),
    Erase(u64),
    Scan(u64),
    Window {
        ppa: u64,
        gamma: u32,
    },
}

fn op() -> impl Strategy<Value = Op> {
    // One past the last page and the last block, so range checks run.
    let ppa = || 0u64..BLOCKS * PAGES_PER_BLOCK as u64 + 2;
    // Few LPAs: windows hold duplicates for `find` to report.
    let lpa = || 0u64..6;
    prop_oneof![
        10 => (0u64..BLOCKS, lpa(), 0u32..5)
            .prop_map(|(block, lpa, m)| Op::Append { block, lpa, metadata: m == 0 }),
        2 => (ppa(), lpa()).prop_map(|(ppa, lpa)| Op::Program { ppa, lpa }),
        4 => ppa().prop_map(Op::Read),
        2 => ppa().prop_map(Op::Peek),
        1 => (0u64..BLOCKS + 1).prop_map(Op::Erase),
        1 => (0u64..BLOCKS).prop_map(Op::Scan),
        4 => (ppa(), 0usize..GAMMAS.len()).prop_map(|(ppa, g)| Op::Window { ppa, gamma: GAMMAS[g] }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn device_matches_the_per_block_vectors(ops in vec(op(), 1..250)) {
        let mut device = FlashDevice::new(geometry());
        let mut reference = Reference::new();
        for op in ops {
            match op {
                Op::Append { block, lpa, metadata } => {
                    // A full block's "next page" is the next block's
                    // first page or out of range: illegal, as intended.
                    let ppa = block * PAGES_PER_BLOCK as u64
                        + reference.blocks[block as usize].write_ptr as u64;
                    let lpa = (!metadata).then(|| Lpa::new(lpa));
                    let content = (ppa << 20) | reference.program_seq;
                    prop_assert_eq!(
                        device.program(Ppa::new(ppa), content, lpa),
                        reference.program(ppa, content, lpa)
                    );
                }
                Op::Program { ppa, lpa } => {
                    let lpa = Some(Lpa::new(lpa));
                    prop_assert_eq!(
                        device.program(Ppa::new(ppa), ppa, lpa),
                        reference.program(ppa, ppa, lpa)
                    );
                }
                Op::Read(ppa) => {
                    let got = device.read(Ppa::new(ppa)).map(|v| (v.content, v.lpa, v.seq));
                    prop_assert_eq!(got, reference.read(ppa));
                }
                Op::Peek(ppa) => {
                    let got = device.peek(Ppa::new(ppa)).map(|v| (v.content, v.lpa, v.seq));
                    prop_assert_eq!(got, reference.page(ppa));
                }
                Op::Erase(block) => {
                    prop_assert_eq!(device.erase(BlockId::new(block)), reference.erase(block));
                }
                Op::Scan(block) => {
                    let got: Vec<(Ppa, Option<Lpa>, u64)> =
                        device.scan_block(BlockId::new(block)).collect();
                    let state = &reference.blocks[block as usize];
                    let want: Vec<(Ppa, Option<Lpa>, u64)> = (0..state.write_ptr as usize)
                        .map(|page| {
                            let ppa = block * PAGES_PER_BLOCK as u64 + page as u64;
                            (Ppa::new(ppa), state.lpas[page], state.seqs[page])
                        })
                        .collect();
                    prop_assert_eq!(got, want);
                }
                Op::Window { ppa, gamma } => {
                    let got = device.oob_window(Ppa::new(ppa), gamma);
                    let want = reference.window(ppa, gamma);
                    prop_assert_eq!(got.is_some(), want.is_some());
                    if let (Some(got), Some(want)) = (got, want) {
                        prop_assert_eq!(got.gamma(), gamma);
                        prop_assert_eq!(got.own_lpa(), want[gamma as usize]);
                        // Two past either edge: beyond the window is null.
                        for delta in -(gamma as i64) - 2..=gamma as i64 + 2 {
                            let inside = usize::try_from(delta + gamma as i64)
                                .ok()
                                .and_then(|at| want.get(at).copied());
                            prop_assert_eq!(got.entry(delta), inside.flatten());
                        }
                        for lpa in (0..6).map(Lpa::new) {
                            let found: Vec<i64> = got.find(lpa).collect();
                            let expect: Vec<i64> = (-(gamma as i64)..=gamma as i64)
                                .filter(|&d| want[(d + gamma as i64) as usize] == Some(lpa))
                                .collect();
                            prop_assert_eq!(found, expect);
                        }
                    }
                }
            }
            prop_assert_eq!(device.program_seq(), reference.program_seq);
            prop_assert_eq!(device.stats().reads, reference.reads);
            prop_assert_eq!(device.stats().programs, reference.programs);
            prop_assert_eq!(device.stats().erases, reference.erases);
        }
        // Block headers, as the FTL reads them.
        let counts: Vec<(BlockId, u32)> = device.erase_counts().collect();
        for (b, state) in reference.blocks.iter().enumerate() {
            let block = device.block(BlockId::new(b as u64));
            prop_assert_eq!(block.write_ptr(), state.write_ptr);
            prop_assert_eq!(block.erase_count(), state.erase_count);
            prop_assert_eq!(block.is_erased(), state.write_ptr == 0);
            prop_assert_eq!(counts[b], (BlockId::new(b as u64), state.erase_count));
            for page in 0..PAGES_PER_BLOCK {
                let want = if page < state.write_ptr {
                    PageState::Programmed
                } else {
                    PageState::Free
                };
                prop_assert_eq!(block.page_state(page), want);
            }
        }
    }
}

/// The fixed cases the issue names: windows at γ ∈ {0, 1, 16} clipped
/// at both block boundaries and over unprogrammed neighbours.
#[test]
fn windows_clip_at_block_boundaries_and_the_write_pointer() {
    let mut device = FlashDevice::new(geometry());
    // Block 0 full, block 1 holds three pages, block 2 is erased.
    for ppa in 0..PAGES_PER_BLOCK as u64 + 3 {
        device
            .program(Ppa::new(ppa), ppa, Some(Lpa::new(100 + ppa)))
            .expect("program");
    }
    let lpa = |ppa: u64| Some(Lpa::new(100 + ppa));

    // γ = 0: the page's own entry only.
    let w = device.oob_window(Ppa::new(0), 0).expect("programmed");
    assert_eq!((w.own_lpa(), w.entry(-1), w.entry(1)), (lpa(0), None, None));

    // γ = 1 at the first page of block 1: the left neighbour is block
    // 0's last page — programmed, but across the boundary: null.
    let w = device.oob_window(Ppa::new(8), 1).expect("programmed");
    assert_eq!(
        (w.entry(-1), w.own_lpa(), w.entry(1)),
        (None, lpa(8), lpa(9))
    );
    // … and at the last page of block 0 the right neighbour is null.
    let w = device.oob_window(Ppa::new(7), 1).expect("programmed");
    assert_eq!(
        (w.entry(-1), w.own_lpa(), w.entry(1)),
        (lpa(6), lpa(7), None)
    );

    // γ = 16 covers more than a block: everything beyond either end of
    // block 1, and its unprogrammed pages 3.., read null.
    let w = device.oob_window(Ppa::new(9), 16).expect("programmed");
    for delta in -16i64..=16 {
        let want = (-1..=1).contains(&delta).then(|| lpa((9 + delta) as u64));
        assert_eq!(w.entry(delta), want.flatten(), "delta {delta}");
    }
    let found: Vec<i64> = w.find(Lpa::new(110)).collect();
    assert_eq!(found, vec![1]);

    // An unprogrammed or out-of-range centre has no window.
    assert!(device.oob_window(Ppa::new(11), 1).is_none());
    assert!(device.oob_window(Ppa::new(16), 16).is_none());
    assert!(device
        .oob_window(Ppa::new(BLOCKS * PAGES_PER_BLOCK as u64), 0)
        .is_none());
}
